import numpy as np
import pytest

from conftest import TURNING_TERMS, zero_field
from reference import weighted_norm
from rotstar.axisym import Discretization, Geometry
from rotstar.eos import constant_rotation, power_law, power_sum
from rotstar.errors import DegenerateOperatorError
from rotstar.linop import (LADDER_ORDER, LADDER_SUB, assemble_mode,
                           kernel_margin_ladder)
from rotstar import numerics
from rotstar.numerics import smallest_singular_value, weighted_sigma_min
from rotstar.radial import mass_derivative, solve_radial
from rotstar.rotating import EPModel, Model, sphere_step
from rotstar.vlasov import VlasovAnsatz, VPModel


def test_sigma_min_healthy_modes(ep_model):
    # l >= 2 margins are uniform and well away from zero; frozen regression
    sigs = {l: weighted_sigma_min(*assemble_mode(ep_model, l, n=256))
            for l in (0, 2, 3, 4)}
    for l in (2, 3, 4):
        assert sigs[l] > 0.03
    assert sigs[2] == pytest.approx(0.0408, rel=0.02)
    assert sigs[0] == pytest.approx(9.683e-3, rel=1e-3)


def test_l1_translation_null_vector(ep_model):
    # xi(r) = r is the translation direction: the density perturbation
    # rho0'(r) (xi/r) Y_1 is a rigid shift of the star, so the mode-1 block
    # has a genuine kernel
    panels, M = assemble_mode(ep_model, 1, n=256)
    x = panels.x
    assert weighted_sigma_min(panels, M) < 1e-10
    ratio = weighted_norm(panels, M @ x) / weighted_norm(panels, x)
    assert ratio < 1e-12
    # and the computed null vector is exactly that direction
    d = np.sqrt(panels.w) * x
    B = M * (d[:, None] / d[None, :])
    xi = np.linalg.svd(B)[2][-1] / d
    w2 = d * d
    cos = abs(np.dot(xi * w2, x)) \
        / np.sqrt(np.dot(xi * w2, xi) * np.dot(x * w2, x))
    assert cos > 1.0 - 1e-8


def test_apply_matches_ode_identity(star15, ep_model):
    # acting on xi = r/u0' * (u0 - a) the operator reduces to closed-form
    # pieces: L xi = (u0 - a) - (Phi - Phi(0)) + rank-one, where the potential
    # of rho0' xi / r = rho0' (u0-a)/u0' is checked through the monopole path
    panels, M = assemble_mode(ep_model, 0, n=384)
    x = panels.x
    xi = star15.u0_of(x) - star15.a
    xi = x * xi / star15.u0p_of(x)
    out = M @ xi
    assert np.all(np.isfinite(out))
    with pytest.raises(ValueError):
        M @ xi[:-1]


def test_gamma43_kernel_witness(star43, ep43_model):
    # converse construction: alpha = v_a - u0/a gives an exact kernel vector
    va_nodes = mass_derivative(star43)[1]
    panels, M = assemble_mode(ep43_model, 0, n=512)
    x = panels.x
    va = star43.panels.interp(va_nodes, np.minimum(x, star43.R))
    alpha = va - star43.u0_of(x) / star43.a
    xi = x * alpha / star43.u0p_of(x)
    ratio = weighted_norm(panels, M @ xi) / weighted_norm(panels, xi)
    assert ratio < 1e-6


class _NoMassTerm(Model):
    """A model on star whose l = 0 mass column is zero: its mfac-derivative
    cancels u0 - a."""

    def __init__(self, star):
        self.star = star

    def dlocal_dmfac(self, r, mfac):
        return self.star.a - self.star.u0_of(r)


def test_model_owns_the_l0_mass_term(star43, ep43_model):
    # the gamma = 4/3 polytrope and the matched mu = -1.5 ansatz are one
    # radial star; only the model's l = 0 mass column tells the fluid's
    # kernel from the kinetic margin
    vp43 = solve_radial(VlasovAnsatz.matched_to_power_law(-1.5, psi2=0.1),
                        1.0)
    assert abs(vp43.R - star43.R) <= 1e-13 * star43.R
    r = np.linspace(0.0, 1.0, 201) * star43.R
    assert np.max(np.abs(vp43.u0_of(r) - star43.u0_of(r))) <= 1e-13 * star43.a
    vp43_model = VPModel(vp43)
    scaled = {}
    columns = {}
    for name, model in (("ep", ep43_model), ("vp", vp43_model)):
        star = model.star
        panels, M = assemble_mode(model, 0, n=256)
        scaled[name] = weighted_sigma_min(panels, M) * star.R ** 2 / star.a
        # the mass term is rank one, column times this row: read the
        # column off the difference to the same block without it
        x = panels.x
        row = 4.0 * np.pi * panels.w * x * star.rho0p_of(x)
        base = assemble_mode(_NoMassTerm(star), 0, n=256)[1]
        columns[name] = (M - base) @ row / (row @ row)
    assert scaled["ep"] <= 1e-10
    assert scaled["vp"] >= 1e-5
    # EP: (k(rho0(r)) - k(rho0(0)))/M with k = h - p'
    eos, M = star43.eos, star43.mass
    rho0 = star43.rho0_of(x)
    rho_c = eos.hinv(star43.a)
    want = (eos.h(rho0) - eos.dp(rho0) - eos.h(rho_c) + eos.dp(rho_c)) / M
    assert np.max(np.abs(columns["ep"] - want)) <= 1e-12 * np.max(np.abs(want))
    # VP: (u0 - a)/M, from a zero mfac-derivative
    assert vp43_model.dlocal_dmfac(x, 1.0) == 0.0
    want = (vp43.u0_of(x) - vp43.a) / vp43.mass
    assert np.max(np.abs(columns["vp"] - want)) <= 1e-12 * np.max(np.abs(want))
    # the EP derivative is pointwise: a node alone gives its bits in an array
    d = ep43_model.dlocal_dmfac(x, 1.0)
    assert d.shape == x.shape
    assert all(ep43_model.dlocal_dmfac(x[i:i + 1], 1.0)[0] == d[i]
               for i in range(0, len(x), 17))


def test_turning_point_ladder(turning_a, rot_profile):
    # at the computed minimum a* of the power-sum mass curve the l = 0
    # margin is discretization error, falling by at least 8x per doubling
    # (5e-10, 3e-11, 2e-12), while l = 2 stays put; 1% above it the l = 0
    # margin (3.74e-6) stays put as well
    def ladder(a):
        model = EPModel(solve_radial(power_sum(TURNING_TERMS), a),
                        rot_profile)
        rows = kernel_margin_ladder(model, ells=(0, 2), ns=(128, 256, 512))
        return {l: np.array([s for l2, _, s in rows if l2 == l])
                for l in (0, 2)}

    at, near = ladder(turning_a), ladder(1.01 * turning_a)
    assert np.all(at[0][1:] <= at[0][:-1] / 8.0)
    for sig in (at[2], near[0]):
        assert np.ptp(sig) <= 0.01 * np.min(sig)


def test_turning_point_margin_is_proportional_to_mass_slope(turning_a,
                                                           rot_profile):
    # the l = 0 block is invertible exactly when M'(a) != 0, and near the
    # minimum a* its scale-free margin sigma_min R^2/a goes as the
    # scale-free slope |M'| a/M: the ratio stays within 10% over
    # a* (1 +- 1e-6 .. 1e-2), while |M'| spans four decades (measured
    # 0.02370 .. 0.02445 at n = 256 and order 8)
    def ratio(a):
        star = solve_radial(power_sum(TURNING_TERMS), a)
        sig = weighted_sigma_min(*assemble_mode(EPModel(star, rot_profile),
                                                0, n=256))
        slope = abs(mass_derivative(star)[0]) * a / star.mass
        return (sig * star.R ** 2 / a) / slope

    ref = ratio(turning_a * (1.0 + 1e-6))
    for e in (-1e-6, 1e-4, -1e-4, 1e-2, -1e-2):
        assert abs(ratio(turning_a * (1.0 + e)) / ref - 1.0) <= 0.1, e


def test_kernel_margin_ladder_contrast(ep_model, ep43_model):
    rows43 = dict(((l, n), s) for l, n, s in kernel_margin_ladder(
        ep43_model, ells=(0,), ns=(128, 256, 512)))
    rows15 = dict(((l, n), s) for l, n, s in kernel_margin_ladder(
        ep_model, ells=(0,), ns=(128, 256, 512)))
    # degenerate case: sigma_min tracks the discretization error downward
    assert rows43[(0, 256)] < 0.5 * rows43[(0, 128)]
    assert rows43[(0, 512)] < 0.5 * rows43[(0, 256)]
    # healthy case: stable under refinement
    assert abs(rows15[(0, 512)] / rows15[(0, 128)] - 1.0) < 0.1


def test_negative_mode_rejected(ep_model):
    with pytest.raises(ValueError):
        assemble_mode(ep_model, -1)


@pytest.fixture(scope="module")
def sweep_models(ep43_model, ep_model, vp_model, rot_profile):
    models = {"ep 4/3": ep43_model, "ep 1.5": ep_model, "vp 0.25": vp_model}
    for gamma in (1.22, 1.3, 1.9):
        models[f"ep {gamma}"] = EPModel(solve_radial(power_law(gamma), 1.0),
                                        rot_profile)
    models["vp -1.5"] = VPModel(solve_radial(
        VlasovAnsatz.matched_to_power_law(-1.5, psi2=0.1), 1.0))
    return models


@pytest.mark.parametrize("n, order, n_sub", [
    (128, LADDER_ORDER, LADDER_SUB), (256, LADDER_ORDER, LADDER_SUB),
    (256, 8, 12)])
def test_sigma_min_matches_svd(sweep_models, n, order, n_sub):
    # the weighted mode matrices of numerics.weighted_sigma_min, healthy,
    # degenerate (gamma = 4/3, l = 0) and translation (l = 1) blocks alike:
    # relative accuracy where the SVD has it, eps-level against sigma_max
    # below that
    for name, model in sweep_models.items():
        for l in range(5):
            panels, M = assemble_mode(model, l, n=n, order=order, n_sub=n_sub)
            d = np.sqrt(panels.w) * panels.x
            assert _matches_svd(weighted_sigma_min(panels, M),
                                M * (d[:, None] / d[None, :])), (name, l)


def _matches_svd(sig, A):
    """sig is sigma_min of A to 1e-8 relative, or to 1e-14 of sigma_max."""
    s = np.linalg.svd(A, compute_uv=False)
    return abs(sig - s[-1]) <= max(1e-8 * s[-1], 1e-14 * s[0])


def test_ladder_sigma_min_matches_svd(monkeypatch, sweep_models):
    # test_sigma_min_matches_svd's bound on every row of the ladder, whose
    # finer rows take the inverse iteration first after a lost Gram value,
    # as gamma 1.22's l = 0 does at 256 nodes
    blocks = []

    def recorded(A, inverse_first=False):
        blocks.append((A, inverse_first))
        return smallest_singular_value(A, inverse_first)
    monkeypatch.setattr(numerics, "smallest_singular_value", recorded)
    for name, model in sweep_models.items():
        blocks.clear()
        rows = kernel_margin_ladder(model, ells=range(5), ns=(128, 256))
        assert len(blocks) == len(rows) == 10
        for (l, n, sig), (A, _) in zip(rows, blocks):
            assert len(A) == n and _matches_svd(sig, A), (name, l, n)
        if name == "ep 1.22":
            assert blocks[1][1]     # l = 0 at 256 nodes, inverse first


def test_kernel_margin_and_gate_take_no_svd(monkeypatch, star43, star15,
                                            ep43_model):
    # sigma_min of the ladder's modes and of sphere_step's degeneracy gate
    # comes from the Gram eigenvalues or a converged inverse iteration: the
    # healthy gamma = 1.5 block passes, the degenerate gamma = 4/3 one is
    # refused.  The ladder's degenerate l = 0 and translation l = 1 modes
    # pay one Gram eigensolve each, at 128 nodes: 15 - 4 in all
    def refuse(*args, **kw):
        raise AssertionError("np.linalg.svd called")
    monkeypatch.setattr(np.linalg, "svd", refuse)
    calls = {"eigvalsh": 0, "inverse": 0}

    def counted(f, key):
        def wrapped(*args, **kw):
            calls[key] += 1
            return f(*args, **kw)
        return wrapped
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        counted(np.linalg.eigvalsh, "eigvalsh"))
    monkeypatch.setattr(numerics, "_inverse_iteration",
                        counted(numerics._inverse_iteration, "inverse"))
    rows = kernel_margin_ladder(ep43_model)
    assert len(rows) == 15 and all(sig > 0.0 for _, _, sig in rows)
    assert calls == {"eigvalsh": 11, "inverse": 6}
    for star in (star15, star43):
        model = EPModel(star, constant_rotation())
        disc = Discretization(star.R)
        geo = Geometry(zero_field(disc), star, disc)
        if star is star43:
            with pytest.raises(DegenerateOperatorError):
                sphere_step(model, geo, model.kappa_forcing(geo))
        else:
            assert np.any(sphere_step(model, geo, model.kappa_forcing(geo)))
