import numpy as np
import pytest

from conftest import zero_field
from reference import weighted_norm
from rotstar.axisym import Discretization, Geometry
from rotstar.eos import constant_rotation, power_law
from rotstar.errors import DegenerateOperatorError
from rotstar.linop import (LADDER_ORDER, LADDER_SUB, assemble_mode,
                           kernel_margin_ladder)
from rotstar.radial import mass_derivative, solve_radial
from rotstar.rotating import EPModel, sphere_step
from rotstar.vlasov import VlasovAnsatz, solve_vp_radial


def test_sigma_min_healthy_modes(star15):
    # l >= 2 margins are uniform and well away from zero; frozen regression
    sigs = {l: assemble_mode(star15, l, n=256).sigma_min() for l in (2, 3, 4)}
    for l in (2, 3, 4):
        assert sigs[l] > 0.03
    assert sigs[2] == pytest.approx(0.0408, rel=0.02)
    assert assemble_mode(star15, 0, n=256).sigma_min() == \
        pytest.approx(9.683e-3, rel=1e-3)


def test_l1_translation_null_vector(star15):
    # xi(r) = r is the translation direction: the density perturbation
    # rho0'(r) (xi/r) Y_1 is a rigid shift of the star, so the mode-1 block
    # has a genuine kernel
    op = assemble_mode(star15, 1, n=256)
    sig = op.sigma_min()
    assert sig < 1e-10
    ratio = weighted_norm(op, op.matrix @ op.nodes) \
        / weighted_norm(op, op.nodes)
    assert ratio < 1e-12
    # and the computed null vector is exactly that direction
    d = np.sqrt(op.panels.w) * op.nodes
    B = op.matrix * (d[:, None] / d[None, :])
    xi = np.linalg.svd(B)[2][-1] / d
    w2 = d * d
    cos = abs(np.dot(xi * w2, op.nodes)) \
        / np.sqrt(np.dot(xi * w2, xi) * np.dot(op.nodes * w2, op.nodes))
    assert cos > 1.0 - 1e-8


def test_apply_matches_ode_identity(star15):
    # acting on xi = r/u0' * (u0 - a) the operator reduces to closed-form
    # pieces: L xi = (u0 - a) - (Phi - Phi(0)) + rank-one, where the potential
    # of rho0' xi / r = rho0' (u0-a)/u0' is checked through the monopole path
    op = assemble_mode(star15, 0, n=384)
    x = op.nodes
    xi = np.atleast_1d(star15.u0_of(x)) - star15.a
    xi = x * xi / np.atleast_1d(star15.u0p_of(x))
    out = op.matrix @ xi
    assert np.all(np.isfinite(out))
    with pytest.raises(ValueError):
        op.matrix @ xi[:-1]


def test_gamma43_kernel_witness(star43):
    # converse construction: alpha = v_a - u0/a gives an exact kernel vector
    va_nodes = mass_derivative(star43)[1]
    op = assemble_mode(star43, 0, n=512)
    x = op.nodes
    va = star43.panels.interp(va_nodes, np.minimum(x, star43.R))
    alpha = va - np.atleast_1d(star43.u0_of(x)) / star43.a
    xi = x * alpha / np.atleast_1d(star43.u0p_of(x))
    ratio = weighted_norm(op, op.matrix @ xi) / weighted_norm(op, xi)
    assert ratio < 1e-6


def test_kernel_margin_ladder_contrast(star15, star43):
    rows43 = dict(((l, n), s) for l, n, s in
                  kernel_margin_ladder(star43, ells=(0,), ns=(128, 256, 512)))
    rows15 = dict(((l, n), s) for l, n, s in
                  kernel_margin_ladder(star15, ells=(0,), ns=(128, 256, 512)))
    # degenerate case: sigma_min tracks the discretization error downward
    assert rows43[(0, 256)] < 0.5 * rows43[(0, 128)]
    assert rows43[(0, 512)] < 0.5 * rows43[(0, 256)]
    # healthy case: stable under refinement
    assert abs(rows15[(0, 512)] / rows15[(0, 128)] - 1.0) < 0.1


def test_negative_mode_rejected(star15):
    with pytest.raises(ValueError):
        assemble_mode(star15, -1)


@pytest.fixture(scope="module")
def sweep_stars(star43, star15, vp_star):
    stars = {"ep 4/3": star43, "ep 1.5": star15, "vp 0.25": vp_star}
    for gamma in (1.22, 1.3, 1.9):
        stars[f"ep {gamma}"] = solve_radial(power_law(gamma), 1.0)
    stars["vp -1.5"] = solve_vp_radial(
        VlasovAnsatz.matched_to_power_law(-1.5, psi2=0.1), 1.0)
    return stars


@pytest.mark.parametrize("n, order, n_sub", [
    (128, LADDER_ORDER, LADDER_SUB), (256, LADDER_ORDER, LADDER_SUB),
    (256, 8, 12)])
def test_sigma_min_matches_svd(sweep_stars, n, order, n_sub):
    # the weighted mode matrices of ModeOperator.sigma_min, healthy,
    # degenerate (gamma = 4/3, l = 0) and translation (l = 1) blocks alike:
    # relative accuracy where the SVD has it, eps-level against sigma_max
    # below that
    for name, star in sweep_stars.items():
        for l in range(5):
            op = assemble_mode(star, l, n=n, order=order, n_sub=n_sub)
            d = np.sqrt(op.panels.w) * op.nodes
            s = np.linalg.svd(op.matrix * (d[:, None] / d[None, :]),
                              compute_uv=False)
            err = abs(op.sigma_min() - s[-1])
            assert err <= max(1e-8 * s[-1], 1e-14 * s[0]), (name, l)


def test_kernel_margin_and_gate_take_no_svd(monkeypatch, star43, star15):
    # sigma_min of the ladder's modes and of sphere_step's degeneracy gate
    # comes from the Gram eigenvalues or a converged inverse iteration: the
    # healthy gamma = 1.5 block passes, the degenerate gamma = 4/3 one is
    # refused
    def refuse(*args, **kw):
        raise AssertionError("np.linalg.svd called")
    monkeypatch.setattr(np.linalg, "svd", refuse)
    rows = kernel_margin_ladder(star43)
    assert len(rows) == 15 and all(sig > 0.0 for _, _, sig in rows)
    for star in (star15, star43):
        model = EPModel(star, constant_rotation())
        disc = Discretization(star.R)
        geo = Geometry(zero_field(disc), star, disc)
        if star is star43:
            with pytest.raises(DegenerateOperatorError):
                sphere_step(model, geo, model.kappa_forcing(geo))
        else:
            assert np.any(sphere_step(model, geo, model.kappa_forcing(geo)))
