import warnings
from functools import partial

import numpy as np
import pytest

from rotstar import radial
from rotstar.eos import EquationOfState, power_law, power_sum
from rotstar.errors import EOSError, SolverError, UnboundStarError
from rotstar.linop import mass_column
from reference import (dense_radial_jacobian, dense_radial_kernel,
                       gamma_43_identity_check, shoot_profile)
from rotstar.radial import mass_curve, mass_derivative, solve_radial
from rotstar.vlasov import VlasovAnsatz

SQRT_PI_2 = np.sqrt(np.pi / 2.0)

#: the EP power laws and the VP ansatz (mu = 0.25, gamma 1.8) whose stars
#: the profile tests check
STARS = [("ep", 1.22), ("ep", 4.0 / 3.0), ("ep", 1.5), ("ep", 1.9),
         ("vp", 0.25)]
STAR_IDS = [f"{m}-{p}" for m, p in STARS]


def _star(model, param):
    """The a = 1 star and its density law."""
    if model == "ep":
        eos = power_law(param)
        return solve_radial(eos, 1.0), eos.hinv
    ansatz = VlasovAnsatz.matched_to_power_law(param)
    return solve_radial(ansatz, 1.0), ansatz.hinv


def test_gamma2_closed_form(star2):
    # u(r) = a sin(kr)/(kr), k = sqrt(2 pi): R = M = sqrt(pi/2); M = a R
    # with R independent of a, so M'(a) = R
    assert star2.R == pytest.approx(SQRT_PI_2, rel=1e-13)
    assert star2.mass == pytest.approx(SQRT_PI_2, rel=1e-13)
    k = np.sqrt(2.0 * np.pi)
    r = np.linspace(1e-6, star2.R, 400)
    exact = np.sin(k * r) / (k * r)
    assert np.max(np.abs(star2.u0_of(r) - exact)) < 1e-13 * star2.a
    assert mass_derivative(star2)[0] == pytest.approx(SQRT_PI_2, rel=1e-13)


@pytest.mark.parametrize("model, param", STARS, ids=STAR_IDS)
def test_flux_identity(model, param):
    # divergence theorem: R^2 u0'(R) = -M, u0'(R) read from the nodal
    # profile at the edge of its last panel
    star, _ = _star(model, param)
    flux = star.R ** 2 * float(star.u0p_of(star.R))
    assert abs(flux + star.mass) <= 2e-11 * star.mass


@pytest.mark.parametrize("which", ["ep", "vp"])
@pytest.mark.parametrize("method", ["u0_of", "u0p_of", "rho0_of", "rho0p_of",
                                    "mass_column"])
def test_profiles_keep_the_shape_of_r(star15, vp_star, ep_model, vp_model,
                                      which, method):
    # a scalar gives a 0-d array, any array its own shape, and every value
    # is bit-equal to the same point evaluated in a 1-d array; the l = 0
    # mass column is the model's, on the same star
    star, model = (star15, ep_model) if which == "ep" else (vp_star, vp_model)
    if method == "mass_column":
        f = partial(mass_column, model)
    else:
        f = getattr(star, method)
    r = np.array([[0.0, 0.3], [0.7, 1.0]]) * star.R
    flat = f(r.ravel())
    out = f(r)
    assert out.shape == r.shape
    assert np.array_equal(out.ravel(), flat)
    for x, want in zip(r.ravel(), flat):
        got = f(float(x))
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert got == want


def test_profile_monotone_and_positive(star15):
    r = np.linspace(0.0, star15.R, 300)
    u = star15.u0_of(r)
    assert u[0] == pytest.approx(star15.a, rel=1e-12)
    assert np.all(np.diff(u) < 0)
    assert np.all(star15.rho0_of(r[:-1]) > 0)
    assert float(star15.u0_of(star15.R)) < 1e-10


def test_power_law_scaling_identity(star15):
    # u_c(r) = c u_1(beta r), beta = c^((2-gamma)/(2(gamma-1)))
    g = 1.5
    c = 1.7
    starc = solve_radial(power_law(g), c)
    beta = c ** ((2.0 - g) / (2.0 * (g - 1.0)))
    assert starc.R == pytest.approx(star15.R / beta, rel=1e-9)
    r = np.linspace(1e-3, starc.R * (1 - 1e-12), 250)
    assert np.max(np.abs(starc.u0_of(r) - c * star15.u0_of(beta * r))) < 1e-8 * c


def test_mass_derivative_matches_finite_differences(star15):
    mp = mass_derivative(star15)[0]
    d = 1e-4
    Mp = solve_radial(star15.eos, 1.0 + d).mass
    Mm = solve_radial(star15.eos, 1.0 - d).mass
    assert mp == pytest.approx((Mp - Mm) / (2 * d), rel=1e-6)


def test_frozen_regression_values(star15, star_sum):
    # pinned solver outputs guarding against silent drift
    assert star15.R == pytest.approx(3.683769758283542, rel=1e-10)
    assert star15.mass == pytest.approx(2.040430568280043, rel=1e-9)
    assert star_sum.R == pytest.approx(4.511791809214164, rel=1e-9)
    assert star_sum.mass == pytest.approx(2.809226877354782, rel=1e-9)


def test_gamma_43_identity(star43, star15):
    # at 4/3 both sides vanish and the residual is graded against the
    # absolute floor 1e-8 |u0'(R)|, so 1e-3 here means |lhs| < 1e-11 |u0'|
    assert gamma_43_identity_check(star43) < 1e-3
    # away from 4/3 the identity still holds (it is the general scaling law)
    assert gamma_43_identity_check(star15) < 1e-7


def test_gamma_43_identity_requires_power_law(star_sum):
    with pytest.raises(EOSError):
        gamma_43_identity_check(star_sum)


def test_gamma_43_mass_derivative_vanishes(star43):
    mp = mass_derivative(star43)[0]
    assert abs(mp) < 1e-6 * star43.mass / star43.a


def test_unbound_star_raises():
    # gamma <= 6/5 has no finite radius
    with pytest.raises(UnboundStarError):
        solve_radial(power_law(1.15), 1.0, tol=1e-8)


@pytest.mark.parametrize("model, param", [("ep", 1.2), ("vp", -3.5)],
                         ids=["ep-1.2", "vp--3.5"])
def test_unbound_star_raises_at_six_fifths(model, param):
    # gamma = 6/5 (n = 5) is the bound itself: the Lane-Emden profile
    # decays like 1/r and never reaches zero; mu = -3.5 is its VP twin
    with pytest.raises(UnboundStarError):
        _star(model, param)


def test_invalid_central_value():
    with pytest.raises(EOSError):
        solve_radial(power_law(1.5), -1.0)


def test_mass_curve_csv_parses_back(tmp_path, monkeypatch):
    # the cells of the CLI's mass_curve.csv parse back to the samples of
    # the curve it computed
    from rotstar import radial
    from rotstar.cli import main
    curves = []

    def recorded(*args, **kw):
        curves.append(mass_curve(*args, **kw))
        return curves[-1]

    monkeypatch.setattr(radial, "mass_curve", recorded)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eos = power_sum\nterms = 1:1.5,1:1.8\n"
                   "a_min = 0.5\na_max = 2.0\nn_samples = 5\n")
    assert main(["mass-curve", "--config", str(cfg), "--out",
                 str(tmp_path)]) == 0
    [c1] = curves
    lines = (tmp_path / "mass_curve.csv").read_text().strip().splitlines()
    assert len(lines) == 6
    vals = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert vals == c1.tolist()
    eos = power_sum([(1.0, 1.5), (1.0, 1.8)])
    with pytest.raises(EOSError):
        mass_curve(eos, (2.0, 0.5), 5)


@pytest.mark.parametrize("model, param", STARS, ids=STAR_IDS)
def test_stored_profile_matches_shot(model, param):
    # the nodal u0, u0' a star keeps against the dense output of an
    # independent RK45 shot
    star, density = _star(model, param)
    R, M, shot = shoot_profile(density, 1.0)
    assert star.R == pytest.approx(R, rel=1e-12)
    assert star.mass == pytest.approx(M, rel=1e-10)
    r = np.concatenate([np.linspace(shot.t[0], star.R, 2001),
                        star.panels.x[star.panels.x >= shot.t[0]]])
    u, up = shot.sol(r)[:2]
    assert np.max(np.abs(star.u0_of(r) - u)) < 1e-12 * star.a
    assert np.max(np.abs(star.u0p_of(r) - up)) < 1e-9 * np.max(np.abs(up))


@pytest.fixture(scope="module")
def unit_kernel():
    return dense_radial_kernel(radial._UNIT)


def test_panel_kernel_matches_dense_oracle(unit_kernel, star15):
    # K f applied panel by panel against the dense K of the oracle
    K, e = unit_kernel
    assert np.array_equal(e, radial._E)
    rng = np.random.default_rng(7)
    for f in (*rng.standard_normal((3, len(e))), np.ones(len(e)),
              star15.eos.hinv(star15._u0_nodes)):
        want = K @ f
        got = radial._apply_K(f)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("model, param", STARS, ids=STAR_IDS)
def test_bordered_solve_matches_dense_jacobian(model, param, unit_kernel):
    # the panel-by-panel solve of the radial Newton system against
    # np.linalg.solve on its dense Jacobian at the converged star
    star, _ = _star(model, param)
    K, e = unit_kernel
    u = star._u0_nodes
    rho, d = star.eos.hinv(u), star.eos.dhinv(u)
    J = dense_radial_jacobian(K, e, star.R, rho, d)
    rng = np.random.default_rng(5)
    for rhs in rng.standard_normal((4, len(u) + 1)):
        want = np.linalg.solve(J, rhs)
        du, dR = radial._solve_bordered(star.R, rho, K @ rho, d, rhs[:-1],
                                        rhs[-1])
        got = np.append(du, dR)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class _NaNSlopeLaw(EquationOfState):
    """A law whose density slope is NaN at one node."""

    def dhinv(self, u):
        d = super().dhinv(u)
        if np.ndim(d) == 1:
            d[len(d) // 2] = np.nan
        return d


def test_singular_radial_system_is_solver_error():
    # no density: the R column and row vanish, so the Schur complement of
    # R is zero
    zero = np.zeros(len(radial._UNIT))
    with pytest.raises(SolverError, match="Schur complement"):
        radial._solve_bordered(1.0, zero, zero, zero, np.ones(len(zero)), 1.0)
    # a non-finite Newton system ends the solve with SolverError, not a
    # LinAlgError or an inf step
    with pytest.raises(SolverError, match="radial Jacobian"):
        solve_radial(_NaNSlopeLaw([(1.0, 1.5)]), 1.0)


def _virial(star, p):
    """The potential energy W = -int 4 pi r^2 rho0 m/r and the pressure
    integral Pi = int 4 pi r^2 p on star.panels, m(r) the enclosed mass and
    p the pressure at the panel nodes."""
    pan = star.panels
    x, w = pan.x, pan.w
    rho = star.rho0_of(x)
    m = pan.cumulative(4.0 * np.pi * x ** 2 * rho)
    return (-np.sum(w * 4.0 * np.pi * x * rho * m),
            np.sum(w * 4.0 * np.pi * x ** 2 * p))


def _vp_pressure(star, nodes=64):
    """p(u0) = int_0^u0 h^-1 of the kinetic star at the nodes of
    star.panels, by a Gauss-Legendre rule on [0, u0]."""
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    u = star.u0_of(star.panels.x)
    return 0.5 * u * (star.eos.hinv(0.5 * u[:, None] * (xg + 1.0)) @ wg)


@pytest.mark.parametrize("model, param", [("ep", g) for g in
                                           (1.3, 1.5, 1.8, 1.9, 2.0)]
                         + [("vp", -1.5)])
def test_radial_star_meets_lane_emden_virial(model, param):
    # an oracle the solver never uses: the virial theorem 3 Pi + W = 0 and
    # the polytrope's W = -3 M^2/((5 - n) R) (Chandrasekhar 1939); the VP
    # star at mu = -1.5 is the n = 3 polytrope, whose p(u) is a polynomial
    # the 64-node rule integrates exactly
    if model == "vp":
        star = solve_radial(VlasovAnsatz.matched_to_power_law(param), 1.0)
        n, p = 1.5 - param, _vp_pressure(star)
    else:
        with warnings.catch_warnings():     # gamma = 2 is on the boundary
            warnings.simplefilter("ignore", UserWarning)
            star = solve_radial(power_law(param), 1.0)
        n, p = 1.0 / (param - 1.0), star.eos.p(star.rho0_of(star.panels.x))
    W, Pi = _virial(star, p)
    assert abs(3.0 * Pi + W) <= 1e-10 * abs(W)
    W_cf = -3.0 * star.mass ** 2 / ((5.0 - n) * star.R)
    assert abs(W / W_cf - 1.0) <= 1e-10
