import numpy as np
import pytest

from conftest import jacobian_column_error, rand_deformation, shifted
from reference import frechet_apply
from rotstar.axisym import Discretization, Geometry, ModalField
from rotstar.errors import DeformationError, SolverError
from rotstar.linop import assemble_mode
from rotstar.numerics import Ytilde
from rotstar.rotating import (centrifugal_rhs, evaluate_F, first_order_shape,
                              newton_continue)


@pytest.fixture(scope="module")
def disc15(star15):
    return Discretization(star15.R)


@pytest.fixture(scope="module")
def geo15(star15, disc15):
    return Geometry(None, star15, disc15)


def test_modal_field_evaluation_and_derivative(disc15):
    pan = disc15.panels_c
    coefs = np.zeros((len(disc15.ells), len(pan)))
    coefs[1] = pan.x ** 3  # l = 2 profile
    f = ModalField(pan, disc15.ells, coefs)
    r = np.linspace(0.2, pan.edges[-1] * 0.99, 40)
    th = 0.8 * np.ones_like(r)
    want = r ** 3 * Ytilde(2, np.cos(0.8))
    assert np.max(np.abs(f.value(r, th) - want)) < 1e-10
    assert np.max(np.abs(f.d_r(r, th) - 3 * r ** 2 * Ytilde(2, np.cos(0.8)))) < 1e-8
    h = 1e-6
    fd = (f.value(r, th + h) - f.value(r, th - h)) / (2 * h)
    assert np.max(np.abs(f.d_theta(r, th) - fd)) < 1e-7


def test_geometry_undeformed_is_identity(star15, geo15):
    assert np.allclose(geo15.s_t, geo15.RC)
    assert np.all(geo15.inside)
    assert geo15.vol_rho_det == pytest.approx(star15.mass, rel=1e-10)


def test_geometry_rejects_unconverged_inversion(star15, disc15):
    # the fixed-point map z -> t / (1 + zeta(z)/z^2) has slope 4/3 at z = R,
    # so the ray inversion cannot converge near the boundary
    R = star15.R
    pan = disc15.panels_c
    zeta = ModalField(pan, (0,), [0.5 * pan.x ** 6 / R ** 4 / Ytilde(0, 1.0)])
    with pytest.raises(DeformationError, match="inversion"):
        Geometry(zeta, star15, disc15)


def test_residual_vanishes_at_base_point(ep_model, disc15, geo15):
    F, _ = evaluate_F(None, 0.0, ep_model, disc=disc15, geo=geo15)
    assert np.max(np.abs(F)) < 1e-9


def test_kappa_term_is_exact_centrifugal(ep_model, disc15, geo15):
    kap = 1e-3
    F0, _ = evaluate_F(None, 0.0, ep_model, disc=disc15, geo=geo15)
    Fk, _ = evaluate_F(None, kap, ep_model, disc=disc15, geo=geo15)
    r_cyl = geo15.s_t * disc15.sin_theta[None, :]
    assert np.max(np.abs(Fk - F0 - kap * 0.5 * r_cyl ** 2)) < 1e-15


def test_frechet_at_zero_matches_mode_operator(star15, ep_model, disc15,
                                               geo15):
    l = 2
    op = assemble_mode(star15, l, n=256)
    coefs = np.zeros((len(disc15.ells), len(disc15.panels_c)))
    i_l = disc15.ells.index(l)
    coefs[i_l] = np.sin(np.pi * disc15.panels_c.x / star15.R) \
        * disc15.panels_c.x ** 2 / star15.R ** 2
    xi = ModalField(disc15.panels_c, disc15.ells, coefs)
    dF = frechet_apply(None, 0.0, xi, ep_model, disc=disc15, geo=geo15)
    modes = np.einsum("lj,ij->li", disc15.proj, dF)
    xi_op = np.sin(np.pi * op.nodes / star15.R) * op.nodes ** 2 / star15.R ** 2
    want = op.panels.interp(op.matrix @ xi_op, disc15.panels_c.x)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(modes[i_l] - want)) < 1e-6 * scale
    leak = max(np.max(np.abs(modes[j])) for j in range(len(disc15.ells))
               if j != i_l)
    assert leak < 1e-10 * scale


def test_centrifugal_rhs_band_limited(star15, rot_profile):
    # constant omega: J = r^2 sin^2(theta)/2 has only l = 0 and 2 content
    nodes, rhs = centrifugal_rhs(rot_profile, star15, ells=(0, 2, 4, 6))
    assert np.max(np.abs(rhs[2])) < 1e-12
    assert np.max(np.abs(rhs[3])) < 1e-12
    assert np.max(np.abs(rhs[0])) > 0
    # closed forms: J_0 = sqrt(4 pi) r^2/3, J_2 = -sqrt(4 pi/5) r^2/3
    assert np.allclose(rhs[0], np.sqrt(4 * np.pi) * nodes ** 2 / 3, rtol=1e-12)
    assert np.allclose(rhs[1], -np.sqrt(4 * np.pi / 5) * nodes ** 2 / 3,
                       rtol=1e-12)


def test_first_order_shape_oblate(star15, rot_profile):
    rep = first_order_shape(star15, rot_profile, ells=(0, 2, 4))
    assert rep.xi_R[2] < 0
    assert rep.oblateness_slope() > 0
    assert np.max(np.abs(rep.xi[4])) < 1e-8  # no l=4 forcing at first order
    # displacement maximal at the equator
    th = np.linspace(0.0, np.pi / 2, 50)
    disp = rep.boundary_shift(th)
    assert np.argmax(disp) == len(th) - 1


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


@pytest.mark.parametrize("deformed", [False, True], ids=["zero", "deformed"])
def test_jacobian_columns_match_frechet(star15, ep_model, disc15, deformed):
    zeta = rand_deformation(np.random.default_rng(31), star15.R) \
        if deformed else None
    geo = Geometry(zeta, star15, disc15)
    assert jacobian_column_error(ep_model, geo, 2e-3) < 1e-12


def test_newton_continue_schedule_validation(ep_model, disc15):
    with pytest.raises(SolverError):
        newton_continue(ep_model, [1e-3, 5e-4], disc=disc15)


def test_newton_cap_failure(ep_model, disc15):
    with pytest.raises(DeformationError, match="deformation cap"):
        newton_continue(ep_model, [0.05], disc=disc15)


def test_solution_dump(tmp_path, star15, rot_profile, disc15, ep_solutions):
    sol = ep_solutions[0]
    jp, cp = tmp_path / "s.json", tmp_path / "s.csv"
    sol.dump(jp, cp)
    import json
    meta = json.loads(jp.read_text())
    assert meta["kappa"] == sol.kappa
    assert meta["R_eq"] > meta["R_pole"]
    rows = cp.read_text().strip().splitlines()
    assert rows[0] == "l,r,zeta_l"
    vals = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    assert vals.shape == (sol.coefs.size, 3)
    assert np.array_equal(vals[:, 2], sol.coefs.ravel())
