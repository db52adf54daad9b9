import numpy as np
import pytest
from scipy.special import beta

from conftest import (density_jacobian_error, jacobian_column_error,
                      oblateness_slope, rand_deformation, shifted, xi_at_R,
                      zero_field)
from reference import frechet_apply, reference_vp_law, w_quad
from rotstar.axisym import Discretization, Geometry
from rotstar.eos import power_law
from rotstar.errors import EOSError
from rotstar.linop import assemble_mode
from rotstar.numerics import weighted_sigma_min
from rotstar.radial import solve_radial, variation
from rotstar.rotating import evaluate_F, sphere_response
from rotstar.vlasov import VlasovAnsatz, beta_fn


@pytest.fixture(scope="module")
def vp_disc(vp_star):
    return Discretization(vp_star.R)


@pytest.mark.parametrize("mu", [-3.5, -1.5, 0.0, 0.25, 0.9])
def test_beta_matches_scipy(mu):
    for b in (0.5, 1.5, 2.5):
        assert beta_fn(1.0 - mu, b) == pytest.approx(beta(1.0 - mu, b),
                                                     rel=1e-14, abs=0.0)


def test_hinv_matches_quadrature(vp_ansatz):
    for u in (0.1, 0.5, 1.0):
        ref = w_quad(vp_ansatz, 0.0, 0.7, u)
        assert abs(float(vp_ansatz.hinv(u)) - ref) < 1e-10 * ref


@pytest.mark.parametrize("psi2", [0.0, 0.1, -0.2, 3.0])
def test_hinv_is_the_kappa0_law_bit_for_bit(psi2):
    # hinv and dhinv are the closed forms G and G' of reference_vp_law, bit
    # for bit, and w and dw_du at kappa = 0, whose rotation terms are not
    # formed, are hinv and dhinv, also where u^(5/2 - mu) overflows and G
    # does not
    rng = np.random.default_rng(19)
    special = [-1.0, -1e-300, -0.0, 0.0, 5e-324, 1e-300, 1e-10, 1.0, 1e200]
    u = np.concatenate([special, 10.0 ** rng.uniform(-12.0, 30.0, 4000)])
    n_scalar = len(special) + 200
    for mu in np.linspace(-3.4, 0.9, 7):
        ansatz = VlasovAnsatz(mu, psi0=1.3, psi2=psi2)
        with np.errstate(over="ignore"):    # G(1e200) is inf for mu < 0
            for x in [u] + list(u[:n_scalar]):
                got = (ansatz.hinv(x), ansatz.dhinv(x))
                assert all(type(g) is np.ndarray and g.shape == np.shape(x)
                           for g in got)
                assert all(np.array_equal(g, want) for g, want in
                           zip(got, reference_vp_law(ansatz, x)))
                assert all(np.array_equal(g, want) for g, want in
                           zip((ansatz.w(0.0, 0.7, x),
                                ansatz.dw_du(0.0, 0.7, x)), got))


def test_w_matches_quadrature_with_rotation(vp_ansatz):
    for kap, r, u in [(0.3, 0.7, 0.5), (0.8, 1.2, 0.9), (0.1, 2.0, 0.2)]:
        ref = w_quad(vp_ansatz, kap, r, u)
        got = float(vp_ansatz.w(kap, r, u))
        assert abs(got - ref) < 1e-10 * abs(ref)


def test_dw_du_matches_finite_differences(vp_ansatz):
    kap, r, u = 0.4, 0.9, 0.6
    h = 1e-6
    fd = (vp_ansatz.w(kap, r, u + h) - vp_ansatz.w(kap, r, u - h)) / (2 * h)
    assert float(vp_ansatz.dw_du(kap, r, u)) == pytest.approx(float(fd),
                                                              rel=1e-8)


def test_d2w_dkappa2_matches_finite_differences(vp_ansatz):
    # psi is quadratic in L, so d^2 w/d kappa^2 = 2 (w(1) - w(0)), here by
    # the quadrature of the definition
    r, u = 1.1, 0.7
    h = 1e-3
    fd = (vp_ansatz.w(h, r, u) - 2 * vp_ansatz.w(0.0, r, u)
          + vp_ansatz.w(-h, r, u)) / h ** 2
    want = 2.0 * (w_quad(vp_ansatz, 1.0, r, u) - w_quad(vp_ansatz, 0.0, r, u))
    assert float(fd) == pytest.approx(want, rel=1e-8)


def test_ansatz_scalar_and_array_give_the_same_bits(vp_ansatz):
    # as the laws of test_eos: a scalar runs the array path at one entry
    rng = np.random.default_rng(1)
    r, u = rng.uniform(0.0, 2.0, (2, 2000))
    kap = 0.3
    for name, f in (
            ("w", lambda r, u: vp_ansatz.w(kap, r, u)),
            ("dw_du", lambda r, u: vp_ansatz.dw_du(kap, r, u))):
        scalar = [f(a, b) for a, b in zip(r, u)]
        assert all(type(x) is np.ndarray and x.shape == () for x in scalar)
        assert np.array_equal(np.array(scalar), f(r, u)), name
    assert vp_ansatz.w(kap, r[:3, None], u[None, :4]).shape == (3, 4)


def test_warm_start_keeps_the_accepted_geometry(vp_model, vp_solutions,
                                                 monkeypatch):
    # w is even in kappa, so every state starts at the accepted one, on its
    # Geometry: one build per Newton step plus the base state's
    import rotstar.rotating as rotating
    builds = []

    class Counted(rotating.Geometry):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(rotating, "Geometry", Counted)
    disc = Discretization(vp_model.star.R)
    sols = rotating.newton_continue(vp_model, [0.0, 1e-2, 2e-2], disc=disc)
    assert [s.iters for s in sols] == [0, 1, 1]
    assert len(builds) == 3
    assert np.array_equal(sols[1].coefs, vp_solutions[0].coefs)


def test_density_is_zero_in_vacuum(vp_ansatz):
    assert float(vp_ansatz.hinv(-0.3)) == 0.0
    assert float(vp_ansatz.dhinv(-0.3)) == 0.0
    assert float(vp_ansatz.w(0.5, 1.0, -0.1)) == 0.0


def test_ansatz_validation():
    with pytest.raises(EOSError):
        VlasovAnsatz(1.0)
    with pytest.raises(EOSError):
        VlasovAnsatz(0.5, psi0=0.0)
    with pytest.raises(EOSError):
        solve_radial(VlasovAnsatz(0.5), -1.0)


def test_scaling_response_identities(vp_star):
    # v_S = du0/dp at fixed r when the source is scaled by 1 + p, and
    # m = -R^2 v_S'(R)
    vS_nodes, m = variation(vp_star, 0.0, 1.0)
    vSp_R = -m / vp_star.R ** 2
    rs = np.linspace(0.1, 0.95, 12) * vp_star.R
    for r in rs:
        vS = float(vp_star.panels.interp(vS_nodes, np.array([r]))[0])
        assert abs(r * float(vp_star.u0p_of(r)) - 2 * vS) \
            < 1e-7 * vp_star.a
    assert abs(2 * vSp_R + float(vp_star.u0p_of(vp_star.R))) < 1e-7


def test_equivalence_with_power_law(vp_ansatz, vp_star):
    # matched psi0: the radial profile coincides with the gamma = 1.8 polytrope
    gam = vp_ansatz.equivalent_gamma()
    assert gam == pytest.approx(1.8, abs=1e-14)
    ep = solve_radial(power_law(gam), 1.0)
    assert vp_star.R == pytest.approx(ep.R, rel=1e-6)
    assert vp_star.mass == pytest.approx(ep.mass, rel=1e-6)
    r = np.linspace(0.0, 0.99 * vp_star.R, 80)
    assert np.max(np.abs(vp_star.u0_of(r) - ep.u0_of(r))) < 1e-6 * vp_star.a


def test_mode_operators_healthy(vp_model):
    for l in (0, 2):
        assert weighted_sigma_min(*assemble_mode(vp_model, l, n=192)) > 1e-3


def test_kappa_derivative_vanishes(vp_model, vp_disc):
    # dF/dkappa at (0, 0) from the odd-in-kappa part of the residual, zero
    # for the even ansatz
    k = 1e-2
    F, geo = evaluate_F(zero_field(vp_disc), k, vp_model, disc=vp_disc)
    assert np.max(np.abs(F - vp_model.residual(geo, -k))) / (2.0 * k) == 0.0


def test_residual_floor_at_base_point(vp_star, vp_model, vp_disc):
    F, _ = evaluate_F(zero_field(vp_disc), 0.0, vp_model, disc=vp_disc)
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


def test_density_jacobian_matches_dense_reference(vp_star, vp_model, vp_disc):
    # the deformed field of test_jacobian_columns_match_frechet, whose
    # deformed targets all lie inside the source panels
    zeta = rand_deformation(np.random.default_rng(41), vp_star.R)
    geo = Geometry(zeta, vp_star, vp_disc)
    assert np.all((geo.s_t > 0.0) & (geo.s_t < geo.panels_t.edges[-1]))
    assert density_jacobian_error(vp_model, geo, 1e-2) < 1e-13


@pytest.mark.parametrize("deformed", [False, True], ids=["zero", "deformed"])
def test_jacobian_columns_match_frechet(vp_star, vp_model, vp_disc, deformed):
    zeta = rand_deformation(np.random.default_rng(41), vp_star.R) \
        if deformed else zero_field(vp_disc)
    geo = Geometry(zeta, vp_star, vp_disc)
    assert jacobian_column_error(vp_model, geo, 1e-2) < 1e-12


def test_rotation_response_oblate(vp_model, vp_disc, vp_solutions):
    # the Newton step from the sphere at kappa is the first Newton iterate
    # of the continuation's first state, up to the O(kappa^2) change of
    # the Newton matrix between kappa = 0 and kappa
    kap = 1e-2
    rep = sphere_response(vp_model, kap, vp_disc)
    assert xi_at_R(rep)[2] < 0  # equatorial bulge
    assert oblateness_slope(rep) > 0
    sol = vp_solutions[0]
    assert sol.kappa == kap and sol.iters == 1
    assert np.max(np.abs(rep.coefs - sol.coefs)) \
        < 1e-3 * np.max(np.abs(sol.coefs))


def test_newton_quadratic_in_kappa(vp_solutions):
    s1, s2 = vp_solutions[0], vp_solutions[1]
    n1 = s1.zeta_field().xnorm()
    n2 = s2.zeta_field().xnorm()
    assert n2 / n1 == pytest.approx(4.0, rel=0.1)
    for s in vp_solutions:
        assert s.R_eq > s.R_pole
        assert s.residual_sup < 1e-8
