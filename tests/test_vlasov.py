import numpy as np
import pytest

from conftest import jacobian_column_error, rand_deformation, shifted
from reference import frechet_apply
from rotstar.axisym import Discretization, Geometry
from rotstar.eos import power_law
from rotstar.errors import EOSError
from rotstar.linop import assemble_mode
from rotstar.radial import solve_radial
from rotstar.rotating import evaluate_F
from rotstar.vlasov import (VlasovAnsatz, kappa_derivative_norm,
                            scaling_response, solve_vp_radial,
                            vp_rotation_response)


@pytest.fixture(scope="module")
def vp_disc(vp_star):
    return Discretization(vp_star.R)


def test_G_matches_quadrature(vp_ansatz):
    for u in (0.1, 0.5, 1.0):
        ref = vp_ansatz.w_quad(0.0, 0.7, u)
        assert abs(float(vp_ansatz.G(u)) - ref) < 1e-10 * ref


def test_w_matches_quadrature_with_rotation(vp_ansatz):
    for kap, r, u in [(0.3, 0.7, 0.5), (0.8, 1.2, 0.9), (0.1, 2.0, 0.2)]:
        ref = vp_ansatz.w_quad(kap, r, u)
        got = float(vp_ansatz.w(kap, r, u))
        assert abs(got - ref) < 1e-10 * abs(ref)


def test_dw_du_matches_finite_differences(vp_ansatz):
    kap, r, u = 0.4, 0.9, 0.6
    h = 1e-6
    fd = (vp_ansatz.w(kap, r, u + h) - vp_ansatz.w(kap, r, u - h)) / (2 * h)
    assert float(vp_ansatz.dw_du(kap, r, u)) == pytest.approx(float(fd),
                                                              rel=1e-8)


def test_d2w_dkappa2_matches_finite_differences(vp_ansatz):
    r, u = 1.1, 0.7
    h = 1e-3
    fd = (vp_ansatz.w(h, r, u) - 2 * vp_ansatz.w(0.0, r, u)
          + vp_ansatz.w(-h, r, u)) / h ** 2
    want = r ** 2 * float(vp_ansatz.d2w_dkappa2_unit(u))
    assert float(fd) == pytest.approx(want, rel=1e-8)


def test_density_is_zero_in_vacuum(vp_ansatz):
    assert float(vp_ansatz.G(-0.3)) == 0.0
    assert float(vp_ansatz.Gp(-0.3)) == 0.0
    assert float(vp_ansatz.w(0.5, 1.0, -0.1)) == 0.0


def test_ansatz_validation():
    with pytest.raises(EOSError):
        VlasovAnsatz(1.0)
    with pytest.raises(EOSError):
        VlasovAnsatz(0.5, psi0=0.0)
    with pytest.raises(EOSError):
        solve_vp_radial(VlasovAnsatz(0.5), -1.0)


def test_radial_flux_identity(vp_star):
    # r^2 u0'(r) = -m(r): evaluated at the boundary against the total mass
    lhs = vp_star.R ** 2 * float(vp_star.u0p_of(vp_star.R)[0])
    assert abs(lhs + vp_star.mass) < 1e-7 * vp_star.mass


def test_scaling_response_identities(vp_star):
    sol = scaling_response(vp_star)
    rs = np.linspace(0.1, 0.95, 12) * vp_star.R
    for r in rs:
        vS = float(sol.sol(r)[0])
        assert abs(r * float(vp_star.u0p_of(r)[0]) - 2 * vS) \
            < 1e-7 * vp_star.a
    vS_R, vSp_R = (float(v) for v in sol.sol(vp_star.R)[:2])
    assert abs(2 * vSp_R + float(vp_star.u0p_of(vp_star.R)[0])) < 1e-7


def test_equivalence_with_power_law(vp_ansatz, vp_star):
    # matched psi0: the radial profile coincides with the gamma = 1.8 polytrope
    gam = vp_ansatz.equivalent_gamma()
    assert gam == pytest.approx(1.8, abs=1e-14)
    ep = solve_radial(power_law(gam), 1.0)
    assert vp_star.R == pytest.approx(ep.R, rel=1e-6)
    assert vp_star.mass == pytest.approx(ep.mass, rel=1e-6)
    r = np.linspace(0.0, 0.99 * vp_star.R, 80)
    assert np.max(np.abs(vp_star.u0_of(r) - ep.u0_of(r))) < 1e-6 * vp_star.a


def test_mode_operators_healthy(vp_star):
    for l in (0, 2):
        op = assemble_mode(vp_star, l, n=192)
        assert op.sigma_min() > 1e-3


def test_kappa_derivative_vanishes(vp_star, vp_ansatz, vp_disc):
    assert kappa_derivative_norm(vp_star, vp_ansatz, disc=vp_disc) == 0.0


def test_residual_floor_at_base_point(vp_star, vp_model, vp_disc):
    F, _ = evaluate_F(None, 0.0, vp_model, disc=vp_disc)
    assert np.max(np.abs(F)) < 1e-7 * vp_star.a


def test_frechet_matches_finite_differences(vp_star, vp_model, vp_disc):
    rng = np.random.default_rng(11)
    zeta = rand_deformation(rng, vp_star.R)
    xi = rand_deformation(rng, vp_star.R)
    kap = 1e-2
    dF = frechet_apply(zeta, kap, xi, vp_model, disc=vp_disc)
    s = 1e-5
    Fp, _ = evaluate_F(shifted(zeta, xi, s), kap, vp_model, disc=vp_disc)
    Fm, _ = evaluate_F(shifted(zeta, xi, -s), kap, vp_model, disc=vp_disc)
    fd = (Fp - Fm) / (2 * s)
    assert np.max(np.abs(dF - fd)) < 1e-4 * np.max(np.abs(fd))


@pytest.mark.parametrize("deformed", [False, True], ids=["zero", "deformed"])
def test_jacobian_columns_match_frechet(vp_star, vp_model, vp_disc, deformed):
    zeta = rand_deformation(np.random.default_rng(41), vp_star.R) \
        if deformed else None
    geo = Geometry(zeta, vp_star, vp_disc)
    assert jacobian_column_error(vp_model, geo, 1e-2) < 1e-12


def test_rotation_response_oblate(vp_star, vp_ansatz):
    kap = 1e-2
    ops, xi = vp_rotation_response(vp_star, vp_ansatz, kap, n=192)
    pan = ops[2].panels
    xi2_R = float(pan.interp(xi[2], np.array([vp_star.R]))[0])
    assert xi2_R < 0  # equatorial bulge


def test_newton_quadratic_in_kappa(vp_solutions):
    s1, s2 = vp_solutions[0], vp_solutions[1]
    n1 = s1.zeta_field().xnorm()
    n2 = s2.zeta_field().xnorm()
    assert n2 / n1 == pytest.approx(4.0, rel=0.1)
    for s in vp_solutions:
        assert s.R_eq > s.R_pole
        assert s.residual_sup < 1e-8
