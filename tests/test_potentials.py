import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from rotstar.axisym import Discretization
from rotstar.numerics import Panels, Ytilde
from rotstar.potentials import PotentialQuadrature, origin_row
from reference import dense_potential_matrices

#: the constant l = 0 harmonic
Y00 = Ytilde([0], 1.0)[0]


def _ode_mode_potential(sigma_of, l, b, s_eval):
    """Independent oracle: solve Phi'' + (2/r)Phi' - l(l+1)/r^2 Phi = -4 pi
    sigma with regularity at 0 and decay matching r^-(l+1) outside."""
    r0 = 1e-8 * b

    def rhs(r, y):
        return [y[1], -2.0 / r * y[1] + l * (l + 1) / r ** 2 * y[0]
                - 4.0 * np.pi * sigma_of(r)]

    part = solve_ivp(rhs, (r0, b), [0.0, 0.0], rtol=1e-12, atol=1e-14,
                     dense_output=True)
    # homogeneous solution r^l; pick the combination with
    # Phi'(b) = -(l+1)/b Phi(b)
    pb, pbp = part.sol(b)
    denom = l * b ** (l - 1) + (l + 1) / b * b ** l
    c = -(pbp + (l + 1) / b * pb) / denom
    out = part.sol(np.asarray(s_eval))
    return out[0] + c * np.asarray(s_eval) ** l


def test_monopole_of_uniform_ball():
    # rho = 1 inside radius b: potential 4 pi (b^2/2 - s^2/6)
    b = 1.3
    pan = Panels.graded(b, 96, order=8)
    sigma = np.ones(len(pan)) * np.sqrt(4 * np.pi)  # Y00 coefficient of 1
    s = np.linspace(0.0, b, 41)[1:]
    [A] = PotentialQuadrature(pan, (0,), s).dense()
    phi = (A @ sigma) * Y00
    exact = 4 * np.pi * (b ** 2 / 2 - s ** 2 / 6)
    assert np.max(np.abs(phi - exact)) < 1e-12
    # Phi_0' from the factored quadrature the solver applies
    dphi = PotentialQuadrature(pan, (0,), s).apply(sigma[None])[1, 0] * Y00
    assert np.max(np.abs(dphi - (-4 * np.pi * s / 3))) < 1e-11


#: modes of the batched and factored quadrature checks
ELLS = (0, 1, 2, 4, 12)


def _edge_grid(order, n_nodes):
    """Panels of [0, 1.3] and targets on every edge but the first, on every
    node and at random points in (0, 1.3]."""
    b = 1.3
    pan = Panels.graded(b, n_nodes, order=order)
    rng = np.random.default_rng(7)
    s = np.concatenate([pan.edges[1:], pan.x, b * (1.0 - rng.random(40))])
    return pan, s


@pytest.mark.parametrize("order, n_nodes", [(8, 96), (2, 64)])
def test_batched_blocks_equal_single_mode_calls(order, n_nodes):
    pan, s = _edge_grid(order, n_nodes)
    batched = PotentialQuadrature(pan, ELLS, s).dense()
    assert len(batched) == len(ELLS)
    for l, A in zip(ELLS, batched):
        [A1] = PotentialQuadrature(pan, (l,), s).dense()
        assert np.array_equal(A, A1)


@pytest.mark.parametrize("order, n_nodes", [(8, 96), (2, 64)])
def test_dense_expansion_equals_per_target_matrices(order, n_nodes):
    pan, s = _edge_grid(order, n_nodes)
    for A, (A1, _) in zip(PotentialQuadrature(pan, ELLS, s).dense(),
                          dense_potential_matrices(pan, ELLS, s)):
        assert np.array_equal(A, A1)


@pytest.mark.parametrize("order, n_nodes", [(8, 96), (2, 64)])
def test_factored_quadrature_matches_dense_products(order, n_nodes):
    pan, s = _edge_grid(order, n_nodes)
    rng = np.random.default_rng(3)
    sigma = rng.standard_normal((len(ELLS), len(pan)))
    dense = dense_potential_matrices(pan, ELLS, s)
    phi, dphi = PotentialQuadrature(pan, ELLS, s).apply(sigma)
    for i, (A, Ap) in enumerate(dense):
        for got, want in ((phi[i], A @ sigma[i]), (dphi[i], Ap @ sigma[i])):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _contraction_rows(pan):
    """Targets of shape (7, 5): a row on panel edges, the first interior
    one and the last included; a row in five panels; a row mixing edges and
    interiors; random rows; a row inside one panel; and a row with targets
    on a panel's left edge and inside that panel (one group) and on the
    last edge."""
    b, e = pan.edges[-1], pan.edges
    mid = 0.5 * (e[:-1] + e[1:])
    rng = np.random.default_rng(11)
    return np.array([[e[1], e[3], e[5], e[-2], e[-1]],
                     mid[2:7],
                     [0.3 * e[7] + 0.7 * e[8], mid[7], e[8], e[2], mid[-1]],
                     b * (1.0 - rng.random(5)),
                     b * (1.0 - rng.random(5)),
                     e[4] + (e[5] - e[4]) * np.linspace(0.1, 0.9, 5),
                     [e[4], mid[4], 0.8 * e[4] + 0.2 * e[5], e[-1],
                      0.3 * e[4] + 0.7 * e[5]]])


def _check_contracted(quad, s, n_o, n_b=4):
    """apply_contracted against the contraction of dense() at random
    weights (n_o, n_l, n_j) and sources (n_l, n_nodes, n_b)."""
    n_l, n_nodes = len(quad.ells), len(quad.panels)
    rng = np.random.default_rng(5)
    w = rng.standard_normal((n_o, n_l, s.shape[1]))
    sigma = rng.standard_normal((n_l, n_nodes, n_b))
    got = quad.apply_contracted(w, sigma)
    want = sum(np.einsum("oj,rjk,kb->orb", w[:, i],
                         A.reshape(s.shape + (-1,)), sigma[i])
               for i, A in enumerate(quad.dense()))
    assert got.shape == want.shape == (n_o, len(s), n_b)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("order, n_nodes", [(8, 96), (2, 64)])
def test_contracted_batch_matches_dense(order, n_nodes):
    pan = Panels.graded(1.3, n_nodes, order=order)
    s = _contraction_rows(pan)
    quad = PotentialQuadrature(pan, ELLS, s)
    p = quad.p.reshape(s.shape)
    assert len(set(p[1])) == 5
    assert p[6].tolist() == [4, 4, 4, pan.n_panels - 1, 4]
    _check_contracted(quad, s, 3)


def test_contracted_batch_matches_dense_at_fine_grid_shape():
    # 13 modes and 48 colatitudes, as at ells <= 24 and n_mu = 48
    pan = Panels.graded(1.3, 272, order=8)
    ells = tuple(range(0, 25, 2))
    rng = np.random.default_rng(3)
    s = np.sort(pan.edges[-1] * (1.0 - rng.random((6, 48))), axis=1)
    s[0, ::6] = pan.edges[1::4][:8]
    quad = PotentialQuadrature(pan, ells, s)
    assert np.count_nonzero(np.isin(s, pan.edges)) == 8
    _check_contracted(quad, s, len(ells))


def test_uniform_ball_monopole_on_edges_and_nodes():
    b = 1.3
    pan = Panels.graded(b, 96, order=8)
    sigma = np.ones(len(pan)) * np.sqrt(4 * np.pi)
    s = np.concatenate([pan.edges[1:], pan.x])
    [A] = PotentialQuadrature(pan, (0,), s).dense()
    phi = (A @ sigma) * Y00
    exact = 4 * np.pi * (b ** 2 / 2 - s ** 2 / 6)
    assert np.max(np.abs(phi - exact)) < 1e-12


def test_quadrupole_closed_form():
    # sigma_2(t) = t^2 on [0, b]
    b = 2.0
    pan = Panels.graded(b, 96, order=8)
    sigma = pan.x ** 2
    s = np.linspace(0.05, b - 0.05, 31)
    [A] = PotentialQuadrature(pan, (2,), s).dense()
    exact = 4 * np.pi / 5 * (s ** 4 / 7 + s ** 2 * (b ** 2 - s ** 2) / 2)
    assert np.max(np.abs(A @ sigma - exact)) < 1e-11
    h = 1e-6
    [Ah] = PotentialQuadrature(pan, (2,), s + h).dense()
    [Al] = PotentialQuadrature(pan, (2,), s - h).dense()
    fd = (Ah @ sigma - Al @ sigma) / (2 * h)
    # Phi_2' from the factored quadrature the solver applies
    dphi = PotentialQuadrature(pan, (2,), s).apply(sigma[None])[1, 0]
    assert np.max(np.abs(dphi - fd)) < 1e-4


def test_monopole_reproduces_radial_potential(star15):
    # the potential of rho0 is u0 - a up to the value at the origin
    pan = Panels.graded(star15.R, 256, order=8)
    sigma = star15.rho0_of(pan.x) * np.sqrt(4 * np.pi)
    s = np.linspace(0.0, star15.R, 101)[1:]
    [A] = PotentialQuadrature(pan, (0,), s).dense()
    phi = ((A - origin_row(pan)) @ sigma) * Y00
    assert np.max(np.abs(phi - (star15.u0_of(s) - star15.a))) < 1e-11


def test_far_field_is_mass_over_radius(star15):
    # at the surface s = R, the outermost target, Phi_0 = M/R
    pan = Panels.graded(star15.R, 256, order=8)
    sigma = star15.rho0_of(pan.x) * np.sqrt(4 * np.pi)
    [A] = PotentialQuadrature(pan, (0,), [star15.R]).dense()
    phi = (A @ sigma) * Y00
    assert np.allclose(phi, star15.mass / star15.R, rtol=1e-10)


def test_mode_potential_against_ode_oracle(star15):
    # l = 2 with the kernel-type source rho0'(t) t: fully independent solver
    pan = Panels.graded(star15.R, 256, order=8)
    sigma_vals = star15.rho0p_of(pan.x) * pan.x
    s = np.linspace(0.15, star15.R * 0.98, 25)
    [A] = PotentialQuadrature(pan, (2,), s).dense()
    direct = A @ sigma_vals

    def sigma_of(r):
        return float(star15.rho0p_of(r)) * r

    oracle = _ode_mode_potential(sigma_of, 2, star15.R, s)
    assert np.max(np.abs(direct - oracle)) < 1e-9 * max(1.0, np.max(np.abs(oracle)))


def test_potential_at_zero_row(star15):
    pan = Panels.graded(star15.R, 192, order=8)
    sigma = star15.rho0_of(pan.x) * np.sqrt(4 * np.pi)
    val = float(origin_row(pan) @ sigma) * Y00
    ref, _ = quad(lambda t: 4 * np.pi * float(star15.rho0_of(t)) * t,
                  0.0, star15.R, limit=200)
    assert val == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("s", [0.0, -0.1, 1.3 * (1.0 + 1e-12), 2.6, np.nan])
def test_target_outside_the_panels_raises(s):
    # targets lie in (0, b]: the origin is origin_row, and no target lies
    # past the outer edge
    pan = Panels.graded(1.3, 96, order=8)
    with pytest.raises(ValueError, match=r"outside \(0.0, 1.3\]"):
        PotentialQuadrature(pan, ELLS, [0.5, s])


def test_potential_is_continuous_off_a_panel_edge():
    # a target on an edge splits the panel above it like any other target
    # in that panel, one half empty: moving it 1e-11 b off every interior
    # edge into that panel moves Phi_l in proportion (1.2e-9 relative at
    # l = 12)
    b = 1.3
    pan = Panels.graded(b, 96, order=8)
    ells = (0, 2, 12)
    sigma = np.tile(1.5 - (pan.x / b) ** 2, (len(ells), 1))
    e = pan.edges[1:-1]
    phi = PotentialQuadrature(pan, ells, e).apply(sigma)[0]
    moved = PotentialQuadrature(pan, ells, e + 1e-11 * b).apply(sigma)[0]
    assert np.all(phi > 0.0)
    assert np.max(np.abs(moved / phi - 1.0)) < 1e-8


def test_mode_projection_recovers_band_limited_field():
    disc = Discretization(1.0, ells=(0, 2, 4), n_mu=24)
    coef = {0: 0.7, 2: -1.2, 4: 0.4}
    f = sum(c * Y for c, Y in zip(coef.values(), Ytilde(list(coef), disc.mu)))
    got = disc.proj @ f
    assert np.allclose(got, [0.7, -1.2, 0.4], atol=1e-13)
