import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (density_jacobian_error, jacobian_column_error,
                      oblateness_slope, radial_field, rand_deformation,
                      shifted, xi_at_R, zero_field)
from reference import dense_modal_eval, frechet_apply, mode_operator_response
from rotstar import axisym
from rotstar.axisym import Discretization, Geometry, ModalField
from rotstar.eos import constant_rotation, power_law, power_sum
from rotstar.errors import (DegenerateOperatorError, DeformationError,
                            SolverError)
from rotstar.linop import assemble_mode
from rotstar.numerics import Panels, Ytilde, smallest_singular_value
from rotstar.radial import solve_radial
from rotstar.rotating import (DEGENERACY_FLOOR, EPModel, _predictor,
                              evaluate_F, newton_continue, sphere_response,
                              sphere_step)
from rotstar.vlasov import VlasovAnsatz, VPModel


@pytest.fixture(scope="module")
def disc15(star15):
    return Discretization(star15.R)


@pytest.fixture(scope="module")
def geo15(star15, disc15):
    return Geometry(zero_field(disc15), star15, disc15)


def test_modal_field_evaluation_and_derivative(disc15):
    pan = disc15.panels_c
    coefs = np.zeros((len(disc15.ells), len(pan)))
    coefs[1] = pan.x ** 3  # l = 2 profile
    f = ModalField(pan, disc15.ells, coefs)
    r = np.linspace(0.2, pan.edges[-1] * 0.99, 40)
    th = 0.8 * np.ones_like(r)
    want = r ** 3 * Ytilde([2], np.cos(0.8))[0]
    assert np.max(np.abs(f.value(r, th) - want)) < 1e-10
    # the radial and angular derivatives as xnorm takes them
    zr, zt = f._eval(r, th, "d_r", "d_theta")
    assert np.max(np.abs(zr - 3 * r ** 2 * Ytilde([2], np.cos(0.8))[0])) < 1e-8
    h = 1e-6
    fd = (f.value(r, th + h) - f.value(r, th - h)) / (2 * h)
    assert np.max(np.abs(zt - fd)) < 1e-7


@pytest.fixture(scope="module")
def random_field(disc15):
    """A field with every mode of disc15 and random nodal profiles."""
    rng = np.random.default_rng(5)
    pan = disc15.panels_c
    coefs = rng.standard_normal((len(disc15.ells), len(pan))) \
        * (pan.x / pan.edges[-1]) ** 2
    return ModalField(pan, disc15.ells, coefs)


def _points(disc, R):
    """(r, theta) cases: a column grid, a grid of radii against the 1-D
    colatitudes, scattered pairs, and the nodes and panel edges
    themselves."""
    rng = np.random.default_rng(6)
    pan = disc.panels_c
    col = rng.uniform(0.0, R, (40, len(disc.theta)))
    on = np.concatenate([pan.x, pan.edges])
    return {"columns": (col, disc.theta),
            "radii x columns": (pan.x[:, None], disc.theta),
            "scattered": (rng.uniform(0.0, R, 200),
                          rng.uniform(0.0, np.pi, 200)),
            "nodes and edges": (on, rng.uniform(0.0, np.pi, len(on)))}


@pytest.mark.parametrize("case", ["columns", "radii x columns", "scattered",
                                  "nodes and edges"])
def test_modal_eval_matches_dense_oracle(disc15, random_field, case):
    r, theta = _points(disc15, random_field.R_dom)[case]
    parts = ("value", "d_r", "d_theta")
    got = random_field._eval(r, theta, *parts)
    want = dense_modal_eval(random_field, r, theta, *parts)
    for g, w in zip(got, want):
        assert g.shape == np.broadcast_shapes(np.shape(r), np.shape(theta))
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))


def test_modal_eval_refuses_points_past_R_dom(disc15, random_field):
    # the field lives on its panels: a point past R_dom is an error
    f = random_field
    r = f.R_dom * np.array([[1.0 + 1e-12], [1.2], [3.0]])
    msg = re.escape(f"outside the panels [0.0, {f.R_dom}]")
    for part in ("value", "d_r", "d_theta"):
        with pytest.raises(ValueError, match=msg):
            f._eval(r, disc15.theta, part)
    with pytest.raises(ValueError, match=msg):
        f.ratio_and_stretch(r, disc15.theta)


def test_ratio_holds_inside_r_small(disc15, random_field):
    # below r_small the ratio keeps its value at r_small and the stretch is 0
    f = random_field
    r = f.r_small * np.array([[0.0], [1e-3], [0.5], [1.0], [4.0]])
    ratio, stretch = f.ratio_and_stretch(r, disc15.theta)
    rr = np.maximum(r, f.r_small)
    v, d = dense_modal_eval(f, rr, disc15.theta, "value", "d_r")
    want = v / rr ** 2
    assert np.max(np.abs(ratio - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.all(stretch[:3] == 0.0)
    assert np.max(np.abs(stretch[3:] - (d / rr - 2.0 * want)[3:])) \
        <= 1e-13 * np.max(np.abs(d / rr))


def test_stretch_is_radial_derivative_of_ratio(disc15, random_field):
    # r d(ratio)/dr by central differences inside the last two panels
    f = random_field
    e = f.panels.edges
    r = 0.5 * (e[-3:-1] + e[-2:])[:, None]
    h = 1e-6 * f.R_dom
    _, stretch = f.ratio_and_stretch(r, disc15.theta)
    fd = r * (f.ratio(r + h, disc15.theta) - f.ratio(r - h, disc15.theta)) \
        / (2.0 * h)
    assert np.max(np.abs(stretch - fd)) <= 1e-7 * np.max(np.abs(fd))


@pytest.mark.parametrize("which", ["ep", "vp"])
def test_geometry_and_residual_build_no_dense_rows(monkeypatch, star15,
                                                   vp_star, ep_model,
                                                   vp_model, which):
    # the residual path builds no dense interpolation matrix; only the
    # Newton matrix's source rows (Geometry._source_basis) take one
    star, model = (star15, ep_model) if which == "ep" else (vp_star, vp_model)
    disc = Discretization(star.R)

    def refuse(self, r):
        raise AssertionError("Panels.interp_rows called")
    monkeypatch.setattr(Panels, "interp_rows", refuse)
    zeta = rand_deformation(np.random.default_rng(8), star.R)
    zeta.xnorm()
    geo = Geometry(zeta, star, disc)
    assert np.all(np.isfinite(model.residual(geo, 1e-3)))


def test_geometry_undeformed_is_identity(star15, ep_model, geo15):
    # both mass quadratures, the source grid's Mcal and the undeformed
    # grid's mass_integral, give the radial star's mass
    assert np.allclose(geo15.s_t, geo15.rc[:, None])
    assert np.all(geo15.inside)
    assert geo15.model_fields(ep_model, 0.0)["Mcal"] == pytest.approx(
        star15.mass, rel=1e-10)
    assert geo15.mass_integral(ep_model, 0.0) == pytest.approx(star15.mass,
                                                               rel=1e-10)


@pytest.mark.parametrize("law", ["gamma1.3", "gamma1.5", "gamma2",
                                 "power_sum", "vp025", "vp-15"])
def test_every_law_is_zero_at_u_zero(law):
    # Geometry passes u0 = 0 outside the body to the density law unmasked,
    # so every law's w and dw_du must be exactly 0 there, at any kappa
    if law.startswith("vp"):
        mu = 0.25 if law == "vp025" else -1.5
        model = VPModel(SimpleNamespace(
            eos=VlasovAnsatz.matched_to_power_law(mu, psi2=0.1)))
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # gamma = 2
            eos = (power_sum([(1.0, 1.5), (1.0, 1.8)]) if law == "power_sum"
                   else power_law(float(law[5:])))
        model = EPModel(SimpleNamespace(eos=eos), None)
    r_cyl = np.linspace(0.0, 3.0, 7)[:, None]
    for kappa in (0.0, 2e-2):
        for f in (model.w, model.dw_du):
            assert np.all(f(kappa, r_cyl, np.zeros((7, 4))) == 0.0)


def test_geometry_inverts_steep_ray_equation(star15, disc15):
    # zeta = 0.5 x^6/R^4 has radial stretch g1 = 3.5 at R and det Dg > 0;
    # the fixed-point iteration z -> t/(1 + ratio(z)) has slope 4/3 there,
    # Newton on z (1 + ratio(z)) = t converges
    R = star15.R
    zeta = radial_field(disc15, lambda r: 0.5 * r ** 6 / R ** 4)
    geo = Geometry(zeta, star15, disc15)
    z0 = geo.z_src
    gap = z0 * (1.0 + zeta.ratio(z0, disc15.theta)) - geo.tq[:, None]
    assert np.max(np.abs(gap[geo.inside])) < 1e-11 * R


def _overshooting_field(disc, R):
    """zeta = 20 x^6/R^4: on z (1 + 20 z^4/R^4) = t the first Newton step
    from the uniform dilation z = t/21 overshoots past R, to 3.8 R."""
    return radial_field(disc, lambda r: 20.0 * r ** 6 / R ** 4)


def test_geometry_inversion_returns_from_an_overshoot(star15, disc15):
    # each iterate is held at R, from where the Newton step points inward,
    # so the overshooting witness converges (in 10 steps, to 1.2e-14 R)
    R = star15.R
    zeta = _overshooting_field(disc15, R)
    geo = Geometry(zeta, star15, disc15)
    z0 = geo.z_src
    assert np.all(z0 <= R)
    gap = z0 * (1.0 + zeta.ratio(z0, disc15.theta)) - geo.tq[:, None]
    assert np.max(np.abs(gap[geo.inside])) <= 1e-12 * R


def test_geometry_rejects_unconverged_inversion(monkeypatch, star15, disc15):
    # the overshooting witness needs more than one Newton step
    monkeypatch.setattr(axisym, "INVERSION_STEPS", 1)
    with pytest.raises(DeformationError, match="did not converge in 1 "):
        Geometry(_overshooting_field(disc15, star15.R), star15, disc15)


def test_geometry_rejects_non_finite_inversion_step(star15, disc15):
    # a NaN node in the first panel leaves the boundary radius finite, but
    # the rays through that panel meet a NaN ratio: a typed error, not the
    # ValueError of an interpolation point outside the panels
    coefs = np.zeros((1, len(disc15.panels_c)))
    coefs[0, 3] = np.nan
    zeta = ModalField(disc15.panels_c, (0,), coefs)
    with pytest.raises(DeformationError, match="non-finite Newton step"):
        Geometry(zeta, star15, disc15)


def test_residual_vanishes_at_base_point(ep_model, geo15):
    F = ep_model.residual(geo15, 0.0)
    assert np.max(np.abs(F)) < 1e-9


def test_kappa_term_is_exact_centrifugal(ep_model, disc15, geo15):
    kap = 1e-3
    F0 = ep_model.residual(geo15, 0.0)
    Fk = ep_model.residual(geo15, kap)
    r_cyl = geo15.s_t * disc15.sin_theta[None, :]
    assert np.max(np.abs(Fk - F0 - kap * 0.5 * r_cyl ** 2)) < 1e-15


def test_frechet_at_zero_matches_mode_operator(star15, ep_model, disc15,
                                               geo15):
    l = 2
    panels, M = assemble_mode(ep_model, l, n=256)
    coefs = np.zeros((len(disc15.ells), len(disc15.panels_c)))
    i_l = disc15.ells.index(l)
    coefs[i_l] = np.sin(np.pi * disc15.panels_c.x / star15.R) \
        * disc15.panels_c.x ** 2 / star15.R ** 2
    xi = ModalField(disc15.panels_c, disc15.ells, coefs)
    dF = frechet_apply(geo15.zeta, 0.0, xi, ep_model, geo=geo15)
    modes = np.einsum("lj,ij->li", disc15.proj, dF)
    xi_op = np.sin(np.pi * panels.x / star15.R) * panels.x ** 2 / star15.R ** 2
    want = panels.interp(M @ xi_op, disc15.panels_c.x)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(modes[i_l] - want)) < 1e-6 * scale
    leak = max(np.max(np.abs(modes[j])) for j in range(len(disc15.ells))
               if j != i_l)
    assert leak < 1e-10 * scale


def test_centrifugal_rhs_band_limited(ep_model, geo15):
    # constant omega: the kappa forcing J = r^2 sin^2(theta)/2 has only
    # l = 0 and 2 content
    rhs = geo15.project_modes(ep_model.kappa_forcing(geo15))
    r = geo15.rc
    assert np.max(np.abs(rhs[2:])) < 1e-12
    # closed forms: J_0 = sqrt(4 pi) r^2/3, J_2 = -sqrt(4 pi/5) r^2/3
    assert np.allclose(rhs[0], np.sqrt(4 * np.pi) * r ** 2 / 3, rtol=1e-12)
    assert np.allclose(rhs[1], -np.sqrt(4 * np.pi / 5) * r ** 2 / 3,
                       rtol=1e-12)


def test_first_order_shape_oblate(ep_model, disc15):
    rep = sphere_response(ep_model, 1.0, disc15)
    assert xi_at_R(rep)[2] < 0
    assert oblateness_slope(rep) > 0
    assert np.max(np.abs(rep.coefs[2:])) < 1e-8  # no l >= 4 forcing
    # displacement maximal at the equator
    th = np.linspace(0.0, np.pi / 2, 50)
    disp = rep.ratio(np.full(len(th), rep.R_dom), th)
    assert np.argmax(disp) == len(th) - 1


def test_tangent_matches_mode_operators(ep_model, disc15, geo15):
    # the continuation's tangent, from the Newton matrix at zeta = 0 on the
    # default grid, against the dense mode operators of linop on 256 nodes
    tangent = sphere_step(ep_model, geo15, ep_model.kappa_forcing(geo15))
    got = oblateness_slope(ModalField(disc15.panels_c, disc15.ells, tangent))
    want = oblateness_slope(mode_operator_response(ep_model))
    assert abs(got - want) < 1e-9 * abs(want)
    assert np.max(np.abs(tangent[2:])) < 1e-12 * np.max(np.abs(tangent))


def test_sphere_step_refuses_degenerate(star43, rot_profile, ep_model):
    model = EPModel(star43, rot_profile)
    disc = Discretization(star43.R)
    geo = Geometry(zero_field(disc), star43, disc)
    with pytest.raises(DegenerateOperatorError, match="gamma=1.333") as exc:
        sphere_step(model, geo, model.kappa_forcing(geo))
    # the refusal is its message, which carries both margins
    msg = str(exc.value)
    assert float(re.search(r"sigma_min=([^,]+)", msg)[1]) < 1e-8
    assert float(re.search(r"sigma_min R\^2/a=([^,]+)", msg)[1]) \
        < DEGENERACY_FLOOR
    # gamma = 1.22 (R = 488) is healthy: its raw l = 0 sigma_min is 2.6e-9
    # only because sigma_min scales like a/R^2; scaled it is 6e-4.  The
    # blockwise step solves the whole Newton matrix, block diagonal in l
    star122 = solve_radial(power_law(1.22), 1.0)
    for model in (ep_model, EPModel(star122, rot_profile)):
        disc = Discretization(model.star.R)
        geo = Geometry(zero_field(disc), model.star, disc)
        rhs = geo.project_modes(model.kappa_forcing(geo)).ravel()
        xi = sphere_step(model, geo, model.kappa_forcing(geo))
        J = model.jacobian(geo, 0.0)
        assert np.max(np.abs(J @ xi.ravel() + rhs)) \
            < 1e-9 * np.max(np.abs(rhs))
    n = len(disc.panels_c)
    d = np.sqrt(disc.panels_c.w) * disc.panels_c.x
    sig = smallest_singular_value(J[:n, :n] * (d[:, None] / d[None, :]))
    assert sig < 1e-8 < sig * star122.R ** 2 / star122.a


def test_sphere_step_skips_zero_forcing(vp_model, monkeypatch):
    # VP: w is even in kappa, so the tangent is zero and no matrix is built
    disc = Discretization(vp_model.star.R)
    geo = Geometry(zero_field(disc), vp_model.star, disc)

    def refuse(*args):
        raise AssertionError("Newton matrix assembled")
    monkeypatch.setattr(type(vp_model), "jacobian", refuse)
    tangent = sphere_step(vp_model, geo, vp_model.kappa_forcing(geo))
    assert tangent.shape == (len(disc.ells), len(disc.panels_c))
    assert not np.any(tangent)


def test_frechet_matches_finite_differences(star15, ep_model, disc15):
    rng = np.random.default_rng(21)
    zeta = rand_deformation(rng, star15.R)
    xi = rand_deformation(rng, star15.R)
    kap = 2e-3
    dF = frechet_apply(zeta, kap, xi, ep_model, disc=disc15)
    s = 1e-5
    Fp, _ = evaluate_F(shifted(zeta, xi, s), kap, ep_model, disc=disc15)
    Fm, _ = evaluate_F(shifted(zeta, xi, -s), kap, ep_model, disc=disc15)
    fd = (Fp - Fm) / (2 * s)
    assert np.max(np.abs(dF - fd)) < 1e-5 * np.max(np.abs(fd))


def test_density_jacobian_matches_dense_reference(star15, ep_model, disc15):
    # the deformed field of test_jacobian_columns_match_frechet, whose
    # deformed targets all lie inside the source panels
    zeta = rand_deformation(np.random.default_rng(31), star15.R)
    geo = Geometry(zeta, star15, disc15)
    assert np.all((geo.s_t > 0.0) & (geo.s_t < geo.panels_t.edges[-1]))
    assert density_jacobian_error(ep_model, geo, 2e-3) < 1e-13


def test_newton_matrix_traced_peak(ep_model, ep_solutions):
    # the moved-density block applies the potential quadrature to the
    # basis-field sources by their panel sums; expanding the quadrature
    # into per-node blocks (7, 48, 7, 168) took the traced peak to 18 MB
    import tracemalloc
    sol = ep_solutions[-1]
    geo = Geometry(sol.zeta_field(), sol.star, sol.disc)
    ep_model.jacobian(geo, sol.kappa)   # the fields and source rows it caches
    tracemalloc.start()
    try:
        ep_model.jacobian(geo, sol.kappa)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11e6


@pytest.mark.parametrize("deformed", [False, True], ids=["zero", "deformed"])
def test_jacobian_columns_match_frechet(star15, ep_model, disc15, deformed):
    zeta = rand_deformation(np.random.default_rng(31), star15.R) \
        if deformed else zero_field(disc15)
    geo = Geometry(zeta, star15, disc15)
    assert jacobian_column_error(ep_model, geo, 2e-3) < 1e-12


def test_newton_continue_schedule_validation(ep_model, disc15):
    with pytest.raises(SolverError):
        newton_continue(ep_model, [1e-3, 5e-4], disc=disc15)


def test_newton_cap_failure(ep_model, disc15):
    with pytest.raises(DeformationError, match="deformation cap"):
        newton_continue(ep_model, [0.05], disc=disc15)


def test_failure_at_the_accepted_kappa_is_not_retried(monkeypatch):
    # at a = 1e150 the VP Newton matrix overflows at kappa = 0; a zero step
    # cannot be halved, so one Newton matrix is built, not seven
    import rotstar.rotating as rotating
    model = VPModel(solve_radial(
        VlasovAnsatz.matched_to_power_law(0.25, psi2=0.1), 1e150))
    jacobian, matrices = rotating.Model.jacobian, []

    def counted(self, geo, kappa):
        matrices.append(kappa)
        return jacobian(self, geo, kappa)

    monkeypatch.setattr(rotating.Model, "jacobian", counted)
    # a library caller sees numpy's warnings where an input overflows
    with pytest.raises(SolverError, match="Newton matrix is not finite"), \
            pytest.warns(RuntimeWarning):
        newton_continue(model, [0.0, 1e-2])
    assert matrices == [0.0]


def test_step_halving_reaches_the_target(ep_model, monkeypatch):
    # a Newton failure at the target halves the step: the state is reached
    # through the midpoint and matches the unforced run; a solve that fails
    # every time raises after the first try and _HALVINGS halvings
    import rotstar.rotating as rotating
    disc = Discretization(ep_model.star.R)
    plain = newton_continue(ep_model, [0.0, 1e-3], disc=disc)[-1]
    newton_at, tried = rotating._newton_at, []

    def fail_once_at_target(model, kappa, *args, **kwargs):
        tried.append(kappa)
        if tried.count(1e-3) == 1 and kappa == 1e-3:
            raise SolverError("forced failure")
        return newton_at(model, kappa, *args, **kwargs)

    monkeypatch.setattr(rotating, "_newton_at", fail_once_at_target)
    forced = newton_continue(ep_model, [0.0, 1e-3], disc=disc)[-1]
    assert tried == [0.0, 1e-3, 5e-4, 1e-3]
    assert forced.kappa == plain.kappa
    # the two states match to tol in the X-norm of deformations
    assert ModalField(disc.panels_c, disc.ells,
                      forced.coefs - plain.coefs).xnorm() <= 1e-8
    for a, b in ((forced.R_eq, plain.R_eq), (forced.R_pole, plain.R_pole),
                 (forced.mass_value, plain.mass_value)):
        assert abs(a - b) <= 1e-8

    def always_fail(model, kappa, *args, **kwargs):
        tried.append(kappa)
        raise SolverError("forced failure")

    tried.clear()
    monkeypatch.setattr(rotating, "_newton_at", always_fail)
    with pytest.raises(SolverError, match="forced failure"):
        newton_continue(ep_model, [1e-3], disc=disc)
    assert tried == [1e-3 * 0.5 ** i for i in range(rotating._HALVINGS + 1)]


@pytest.mark.parametrize("halve", [False, True], ids=["direct", "halved"])
def test_each_state_is_solved_at_its_requested_kappa(ep_model, monkeypatch,
                                                     halve):
    # 4.8e-5 + (4.03e-4 - 4.8e-5) rounds to 4.0299999999999993e-4; the try
    # that reaches a requested kappa is that kappa, also after a Newton
    # failure at the target halves the step
    import rotstar.rotating as rotating
    kappas = [0.0, 4.8e-5, 4.03e-4]
    newton_at, tried = rotating._newton_at, []

    def fail_once_at_target(model, kappa, *args, **kwargs):
        tried.append(kappa)
        if halve and kappa == kappas[-1] and tried.count(kappa) == 1:
            raise SolverError("forced failure")
        return newton_at(model, kappa, *args, **kwargs)

    monkeypatch.setattr(rotating, "_newton_at", fail_once_at_target)
    sols = newton_continue(ep_model, kappas)
    assert [sol.kappa for sol in sols] == kappas
    assert len(tried) == (5 if halve else 3)


def test_predictor_follows_a_quadratic_branch():
    # on z(k) = t k + c k^2 the step from z(k_cur) lands on z(k_try)
    rng = np.random.default_rng(2)
    t, c = rng.standard_normal((2, 7, 48))

    def z(k):
        return t * k + c * k ** 2

    for k_cur, k_try in ((5e-4, 1e-3), (1e-3, 2.5e-3), (2e-3, 2e-3)):
        got = z(k_cur) + _predictor(t, z(k_cur), k_cur, k_try)
        assert np.max(np.abs(got - z(k_try))) <= 1e-12 * np.max(np.abs(
            z(k_try)))
    # from the sphere, whose curvature is unknown, the tangent alone
    assert np.array_equal(_predictor(t, np.zeros_like(t), 0.0, 5e-4),
                          5e-4 * t)
    zero = _predictor(np.zeros_like(t), z(1e-2), 1e-2, 2e-2)
    assert zero.shape == t.shape and not np.any(zero)


def _counted_continue(monkeypatch, model, kappas):
    """(newton_iters per state, Geometry builds, Newton matrices) of
    newton_continue on model's default Discretization."""
    import rotstar.rotating as rotating
    builds, matrices = [], []

    class Counted(rotating.Geometry):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    jacobian = rotating.Model.jacobian

    def counted(self, geo, kappa):
        matrices.append(kappa)
        return jacobian(self, geo, kappa)

    monkeypatch.setattr(rotating, "Geometry", Counted)
    monkeypatch.setattr(rotating.Model, "jacobian", counted)
    sols = newton_continue(model, kappas,
                           disc=Discretization(model.star.R))
    monkeypatch.undo()
    return [s.iters for s in sols], len(builds), len(matrices)


def test_second_order_predictor_saves_newton_matrices(ep_model,
                                                      monkeypatch):
    # the quadratic through the sphere and the accepted state: one
    # iteration per state after the first step, where the tangent alone
    # needed two from kappa = 1e-3 on
    assert _counted_continue(monkeypatch, ep_model, [0.0, 5e-4, 1e-3]) \
        == ([0, 2, 1], 6, 4)
    iters, _, matrices = _counted_continue(
        monkeypatch, ep_model, [2.5e-4 * i for i in range(7)])
    assert iters == [0, 1, 1, 1, 1, 1, 1] and matrices == 7


#: (model, gamma or mu, schedule, newton_iters with the tangent predictor
#: alone); VP mu = 0.25 on 0, 1e-2, 2e-2 is
#: test_warm_start_keeps_the_accepted_geometry
_NO_RISE = [("ep", 1.3, [0.0, 4e-6, 8.3e-6], [0, 1, 1]),
            ("ep", 1.9, [0.0, 5e-3, 1e-2], [0, 1, 2]),
            ("ep", 1.5, [0.0, 1e-6, 1e-3], [0, 0, 2]),
            ("ep", 1.5, [0.0, 1e-5, 1e-3], [0, 1, 2]),
            ("ep", 1.5, [0.0, 5e-4, 5e-4, 1e-3], [0, 2, 0, 2]),
            ("vp", -1.5, [0.0, 1e-2, 2e-2], [0, 2, 2])]


@pytest.mark.parametrize("kind, param, kappas, before", _NO_RISE)
def test_predictor_raises_no_newton_iters(kind, param, kappas, before):
    if kind == "ep":
        model = EPModel(solve_radial(power_law(param), 1.0),
                        constant_rotation())
    else:
        model = VPModel(solve_radial(
            VlasovAnsatz.matched_to_power_law(param, psi2=0.1), 1.0))
    sols = newton_continue(model, kappas, disc=Discretization(model.star.R))
    assert len(sols) == len(before)
    assert all(s.iters <= b for s, b in zip(sols, before))


def test_solution_dump(tmp_path, ep_solutions):
    # the per-kappa files of the CLI's continue hold the solutions of
    # newton_continue on the same star, schedule and discretization
    import json
    from rotstar.cli import main, solution_stem
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 1.5\nkappas = 0,5e-4,1e-3\n")
    assert main(["continue", "--config", str(cfg), "--out",
                 str(tmp_path)]) == 0
    sol = ep_solutions[0]
    stem = solution_stem(sol.kappa)
    meta = json.loads((tmp_path / f"{stem}.json").read_text())
    assert list(meta) == ["kappa", "R_eq", "R_pole", "mass", "mass_factor",
                          "residual_sup", "iters", "ells"]
    assert meta["kappa"] == sol.kappa
    assert meta["R_eq"] == sol.R_eq and meta["R_pole"] == sol.R_pole
    assert meta["R_eq"] > meta["R_pole"]
    rows = (tmp_path / f"{stem}.csv").read_text().strip().splitlines()
    assert rows[0] == "l,r,zeta_l"
    vals = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    assert vals.shape == (sol.coefs.size, 3)
    assert np.array_equal(vals[:, 2], sol.coefs.ravel())
