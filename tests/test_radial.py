import numpy as np
import pytest

from rotstar.eos import power_law, power_sum
from rotstar.errors import EOSError, UnboundStarError
from rotstar.radial import (_shoot_profile, gamma_43_identity_check,
                            mass_curve, mass_derivative, solve_radial)
from rotstar.vlasov import VlasovAnsatz, solve_vp_radial

SQRT_PI_2 = np.sqrt(np.pi / 2.0)


def test_gamma2_closed_form(star2):
    # u(r) = a sin(kr)/(kr), k = sqrt(2 pi): R = M = sqrt(pi/2)
    assert star2.R == pytest.approx(SQRT_PI_2, abs=1e-10)
    assert star2.mass == pytest.approx(SQRT_PI_2, abs=1e-9)
    k = np.sqrt(2.0 * np.pi)
    r = np.linspace(1e-6, star2.R, 400)
    exact = np.sin(k * r) / (k * r)
    assert np.max(np.abs(star2.u0_of(r) - exact)) < 1e-9


def test_flux_identity(star15):
    # divergence theorem: R^2 u0'(R) = -M
    flux = star15.R ** 2 * float(star15.u0p_of(star15.R)[0])
    assert flux == pytest.approx(-star15.mass, rel=1e-9)


def test_profile_monotone_and_positive(star15):
    r = np.linspace(0.0, star15.R, 300)
    u = star15.u0_of(r)
    assert u[0] == pytest.approx(star15.a, rel=1e-12)
    assert np.all(np.diff(u) < 0)
    assert np.all(star15.rho0_of(r[:-1]) > 0)
    assert float(star15.u0_of(star15.R)[0]) < 1e-10


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
    mp, _ = mass_derivative(star15.eos, star15)
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
    assert gamma_43_identity_check(star43.eos, star43) < 1e-3
    # away from 4/3 the identity still holds (it is the general scaling law)
    assert gamma_43_identity_check(star15.eos, star15) < 1e-7


def test_gamma_43_identity_requires_power_law(star_sum):
    with pytest.raises(EOSError):
        gamma_43_identity_check(star_sum.eos, star_sum)


def test_gamma_43_mass_derivative_vanishes(star43):
    mp, _ = mass_derivative(star43.eos, star43)
    assert abs(mp) < 1e-6 * star43.mass / star43.a


def test_unbound_star_raises():
    # gamma <= 6/5 has no finite radius
    with pytest.raises(UnboundStarError):
        solve_radial(power_law(1.15), 1.0, tol=1e-8)


def test_invalid_central_value():
    with pytest.raises(EOSError):
        solve_radial(power_law(1.5), -1.0)


def test_mass_curve_threads_and_csv(tmp_path):
    eos = power_sum([(1.0, 1.5), (1.0, 1.8)])
    c1 = mass_curve(eos, (0.5, 2.0), 5)
    p = tmp_path / "curve.csv"
    c1.to_csv(p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "a,R,M,Mprime"
    assert len(lines) == 6
    vals = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert vals == [list(row) for row in c1.samples]
    with pytest.raises(EOSError):
        mass_curve(eos, (2.0, 0.5), 5)


@pytest.mark.parametrize("model, param", [("ep", 1.22), ("ep", 4.0 / 3.0),
                                          ("ep", 1.5), ("ep", 1.9),
                                          ("vp", 0.25)])
def test_stored_profile_matches_shot(model, param):
    # the nodal u0, u0' a star keeps against the dense output of a fresh shot
    if model == "ep":
        eos = power_law(param)
        star = solve_radial(eos, 1.0)
        density = eos.hinv
    else:
        ansatz = VlasovAnsatz.matched_to_power_law(param)
        star = solve_vp_radial(ansatz, 1.0)
        density = ansatz.G
    shot = _shoot_profile(lambda v: 4.0 * np.pi * float(density(v)), 1.0)
    assert shot.event_r == star.R
    r = np.concatenate([np.linspace(shot.t[0], star.R, 2001),
                        star.panels.x[star.panels.x >= shot.t[0]]])
    u, up = shot.sol(r)[:2]
    assert np.max(np.abs(star.u0_of(r) - u)) < 1e-12 * star.a
    assert np.max(np.abs(star.u0p_of(r) - up)) < 1e-9 * np.max(np.abs(up))
