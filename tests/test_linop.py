import numpy as np
import pytest

from reference import weighted_norm
from rotstar.eos import power_law
from rotstar.errors import DegenerateOperatorError
from rotstar.linop import (DEGENERACY_FLOOR, assemble_mode,
                           kernel_margin_ladder, solve)
from rotstar.radial import mass_derivative, solve_radial


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


def test_solve_refuses_degenerate(star43, star15):
    op43 = assemble_mode(star43, 0, n=256)
    with pytest.raises(DegenerateOperatorError) as exc:
        solve(op43, np.ones(len(op43.nodes)))
    assert exc.value.sigma_min < 1e-8
    assert exc.value.diagnostics["sigma_min_scaled"] < DEGENERACY_FLOOR
    # gamma = 1.22 (R = 488) is healthy: its raw l = 0 sigma_min is 2.6e-9
    # only because sigma_min scales like a/R^2; scaled it is 6e-4
    star122 = solve_radial(power_law(1.22), 1.0)
    for star in (star15, star122):
        op = assemble_mode(star, 0, n=256)
        rhs = np.atleast_1d(star.u0_of(op.nodes)) - star.a
        xi = solve(op, rhs)
        assert np.max(np.abs(op.matrix @ xi - rhs)) < 1e-9 * np.max(np.abs(rhs))
    assert op.sigma_min() < 1e-8


def test_negative_mode_rejected(star15):
    with pytest.raises(ValueError):
        assemble_mode(star15, -1)
