import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_legendre

from reference import reference_local_rows
from rotstar.numerics import (Panels, Ytilde, dY_dtheta, gl_nodes,
                              legendre_table, smallest_singular_value)


def test_gauss_legendre_polynomial_exactness():
    # degree 2n-1 is integrated exactly by one panel of order n
    rng = np.random.default_rng(0)
    for n in (2, 5, 9):
        coef = rng.standard_normal(2 * n)
        f = np.polynomial.Polynomial(coef)
        exact = f.integ()(2.5) - f.integ()(-0.7)
        pan = Panels([-0.7, 2.5], n)
        assert pan.w @ f(pan.x) == pytest.approx(exact, rel=1e-13)


def test_gauss_legendre_validates_input():
    with pytest.raises(ValueError):
        Panels([1.0, 0.0], 4)
    with pytest.raises(ValueError):
        Panels([0.0, 1.0], 0)


def test_gauss_legendre_matches_quad():
    pan = Panels([0.0, 2.0], 40)
    val = pan.w @ (np.exp(-pan.x) * np.cos(3 * pan.x))
    ref, _ = quad(lambda t: np.exp(-t) * np.cos(3 * t), 0.0, 2.0)
    assert val == pytest.approx(ref, abs=1e-13)


def test_legendre_values():
    x = np.linspace(-1, 1, 11)
    norm = [np.sqrt((2 * l + 1) / (4 * np.pi)) for l in range(3)]
    Y = Ytilde(range(3), x)
    assert np.allclose(Y[0] / norm[0], 1.0)
    assert np.allclose(Y[1] / norm[1], x)
    assert np.allclose(Y[2] / norm[2], 0.5 * (3 * x ** 2 - 1))


def test_legendre_table_matches_scipy():
    mu = np.concatenate([[-1.0, 0.0, 1.0],
                         np.random.default_rng(0).uniform(-1, 1, 200)])
    P = legendre_table(12, mu)
    for l in range(13):
        assert np.max(np.abs(P[l] - eval_legendre(l, mu))) < 1e-14, l
    # rows come in the order asked for, each with its own normalisation
    ells = (4, 0, 12, 2)
    want = [np.sqrt((2 * l + 1) / (4 * np.pi)) * eval_legendre(l, mu)
            for l in ells]
    assert np.max(np.abs(Ytilde(ells, mu) - want)) < 1e-14
    assert Ytilde(ells, np.zeros((2, 3))).shape == (4, 2, 3)


def test_harmonics_orthonormal_on_sphere():
    # 2 pi int_0^pi Y_l Y_m sin(theta) dtheta = delta_lm
    mu, w = gl_nodes(64)
    Y = Ytilde(range(5), mu)
    for l in range(5):
        for m in range(5):
            val = 2 * np.pi * np.dot(w, Y[l] * Y[m])
            assert val == pytest.approx(1.0 if l == m else 0.0, abs=1e-13)


def test_dY_dtheta_matches_finite_differences():
    th = np.linspace(0.2, np.pi - 0.2, 17)
    h = 1e-6
    ells = (1, 2, 3, 6)
    fd = (Ytilde(ells, np.cos(th + h)) - Ytilde(ells, np.cos(th - h))) / (2 * h)
    dY = dY_dtheta(ells, th)
    for i in range(len(ells)):
        assert np.max(np.abs(dY[i] - fd[i])) < 1e-8


def test_dY_dtheta_vanishes_at_poles():
    assert dY_dtheta([3], np.array([0.0, np.pi]))[0] == pytest.approx([0.0, 0.0])


@pytest.mark.parametrize("b, order", [(1.0, 16), (3.7, 8)])
def test_cumulative_matrix_integrates_polynomials(b, order):
    # cumulative(p) is the antiderivative from 0 of p at every node, for
    # every degree below order (each panel integrates its interpolant
    # exactly), row by row of a batch
    pan = Panels.graded(b, 512, order)
    rng = np.random.default_rng(1)
    polys = [np.polynomial.Polynomial(rng.standard_normal(deg + 1),
                                      domain=[0.0, b]) for deg in range(order)]
    got = pan.cumulative(np.array([f(pan.x) for f in polys]))
    for f, row in zip(polys, got):
        want = f.integ(lbnd=0.0)(pan.x)
        assert np.max(np.abs(row - want)) \
            < 1e-13 * max(1.0, np.max(np.abs(want)))
    assert np.array_equal(pan.cumulative(polys[-1](pan.x)), got[-1])


@pytest.mark.parametrize("order", [8, 16])
def test_derivative_differentiates_polynomials(order):
    # derivative(p) is p' at every node for every degree below order, on
    # an (n_l, n) batch of mode profiles like the one ModalField passes
    pan = Panels.graded(2.0, 6 * order, order)
    rng = np.random.default_rng(2)
    for deg in range(order):
        polys = [np.polynomial.Polynomial(rng.standard_normal(deg + 1),
                                          domain=[0.0, 2.0])
                 for _ in range(7)]
        got = pan.derivative(np.array([f(pan.x) for f in polys]))
        assert got.shape == (7, len(pan))
        for f, row in zip(polys, got):
            want = f.deriv()(pan.x)
            assert np.max(np.abs(row - want)) \
                < 1e-11 * max(1.0, np.max(np.abs(want)))


def test_smallest_singular_value_known_matrix():
    A = np.diag([3.0, 1.0, 0.25])
    assert smallest_singular_value(A) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        smallest_singular_value(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def _counted_linalg(monkeypatch):
    """Count the calls of np.linalg.eigvalsh, inv and svd."""
    calls = {"eigvalsh": 0, "inv": 0, "svd": 0}
    for name in calls:
        def counted(*args, _f=getattr(np.linalg, name), _name=name, **kw):
            calls[_name] += 1
            return _f(*args, **kw)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _with_singular_values(s, seed=0):
    """Q diag(s) Q^T for a random orthogonal Q."""
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal(
        (len(s), len(s))))[0]
    return (q * s) @ q.T


#: (calls of eigvalsh, inv, svd) in the Gram-first order, then in the
#: inverse-first order
@pytest.mark.parametrize("tail, path", [
    ([0.25, 0.5], [(1, 0, 0), (1, 1, 0)]),           # Gram eigenvalues
    ([1e-13, 1e-3], [(1, 1, 0), (0, 1, 0)]),         # inverse iteration
    ([1e-13, 1.01e-13], [(1, 1, 1), (1, 1, 1)]),     # no convergence: SVD
    ([0.25, 0.2525], [(1, 0, 0), (1, 1, 0)]),        # clustered: Gram
])
def test_smallest_singular_value_paths(monkeypatch, tail, path):
    # each path on a matrix made to reach it, in either order, against the
    # full SVD; both orders give the same bits.  Two near-equal smallest
    # singular values stall the inverse iteration, and a Gram value that
    # stands clear then gives the answer
    s = np.concatenate([tail, np.linspace(1.0, 3.0, 38)])
    A = _with_singular_values(s)
    want = np.linalg.svd(A, compute_uv=False)
    calls = _counted_linalg(monkeypatch)
    got = []
    for inverse_first, counts in zip((False, True), path):
        calls.update(dict.fromkeys(calls, 0))
        got.append(smallest_singular_value(A, inverse_first))
        assert tuple(calls.values()) == counts
    assert got[0] == got[1]
    assert abs(got[0] - want[-1]) <= max(1e-8 * want[-1], 1e-14 * want[0])


def test_smallest_singular_value_singular_and_wide():
    # an exactly singular matrix has no inverse and a wide one a singular
    # Gram matrix and no inverse: both fall back to the SVD
    A = np.ones((5, 5))
    assert smallest_singular_value(A) == pytest.approx(0.0, abs=1e-14)
    assert smallest_singular_value(np.zeros((3, 3))) == 0.0
    W = np.random.default_rng(1).standard_normal((4, 9))
    assert smallest_singular_value(W) == pytest.approx(
        np.linalg.svd(W, compute_uv=False)[-1], rel=1e-12)


def test_panels_quadrature_and_interpolation():
    pan = Panels.graded(2.0, 48, order=8)
    f = pan.x ** 5 - 2 * pan.x ** 2
    assert pan.w @ f == pytest.approx(2.0 ** 6 / 6 - 2 * 2.0 ** 3 / 3,
                                      rel=1e-14)
    r = np.linspace(0.01, 1.99, 57)
    vals = pan.interp(f, r)
    assert np.max(np.abs(vals - (r ** 5 - 2 * r ** 2))) < 1e-12
    # interpolation is exact at the nodes themselves
    assert np.max(np.abs(pan.interp(f, pan.x) - f)) < 1e-13
    # the per-point kernel keeps the shape of r and matches the dense rows
    rr = np.stack([r, r[::-1]])
    assert np.array_equal(pan.interp(f, rr)[1], vals[::-1])
    assert np.allclose(pan.interp_rows(r) @ f, vals, rtol=0, atol=1e-13)


def test_local_rows_bit_identical_to_reference():
    # without exact hits, with points on nodes and edges, and with the
    # (targets, sub-nodes) broadcast of the potential quadrature
    pan = Panels.graded(3.7, 384, 8)
    r = np.random.default_rng(4).uniform(0.0, 3.7, 4032)
    hits = np.concatenate([r[:50], pan.x, pan.edges])
    p60 = pan.panel_of(r[:60])
    a = pan.edges[p60]
    sub = a[:, None] + (r[:60] - a)[:, None] * np.linspace(0.0, 1.0, 12)
    for p, pts in [(pan.panel_of(r), r), (pan.panel_of(hits), hits),
                   (p60[:, None], sub)]:
        assert np.array_equal(pan.local_rows(p, pts),
                              reference_local_rows(pan, p, pts))


@pytest.mark.parametrize("r", [[1.5], [-1e-3], [0.5, 1.0 + 1e-12], [np.nan]])
def test_panels_interpolation_rejects_points_outside(r):
    pan = Panels.graded(1.0, 128, 8)
    with pytest.raises(ValueError, match="outside"):
        pan.interp_rows(r)
    with pytest.raises(ValueError, match="outside"):
        pan.interp(np.ones(len(pan)), r)


def test_panels_name_their_interval_in_plain_numbers():
    pan = Panels.graded(1.5, 16, 8)
    with pytest.raises(ValueError) as err:
        pan.interp(np.ones(len(pan)), [2.0])
    assert str(err.value) == "interpolation point outside the panels [0.0, 1.5]"


def test_panels_rejects_bad_edges():
    with pytest.raises(ValueError):
        Panels([0.0, 1.0, 0.5], 4)


@pytest.mark.parametrize("n_nodes, order", [(50, 8), (100, 8), (8, 8),
                                            (0, 8), (6, 4)])
def test_graded_panels_refuse_a_count_that_is_not_whole_panels(n_nodes,
                                                              order):
    # the count was rounded to whole panels, at least two: 50 nodes of
    # order 8 gave 48 and 8 gave 16, so a caller ran on a grid it had not
    # asked for
    with pytest.raises(ValueError, match="whole panels"):
        Panels.graded(1.0, n_nodes, order)


def test_graded_panels_callers_get_the_count_they_ask_for(ep_model):
    from rotstar.axisym import Discretization
    from rotstar.linop import assemble_mode
    for n_nodes, order in ((16, 8), (48, 8), (8, 4), (512, 16)):
        pan = Panels.graded(1.0, n_nodes, order)
        assert (len(pan), pan.n_panels) == (n_nodes, n_nodes // order)
    with pytest.raises(ValueError, match="whole panels"):
        Discretization(ep_model.star.R, n_rc=50)
    with pytest.raises(ValueError, match="whole panels"):
        assemble_mode(ep_model, 0, n=100)
