"""End-to-end acceptance checks.

Each test is one externally stated requirement, verified against closed
forms, independent finite differences, or brute-force oracles.  Expensive
shared artifacts (radial stars, continuation runs) come from session
fixtures in conftest.
"""

import numpy as np
import pytest

from conftest import rand_deformation, shifted
from reference import frechet_apply
from rotstar.axisym import Discretization, Geometry
from rotstar.eos import (check_mass_condition_b, constant_rotation,
                         power_law, power_sum)
from rotstar.linop import apply as linop_apply
from rotstar.linop import assemble_mode, kernel_margin_ladder
from rotstar.radial import mass_curve, mass_derivative, solve_radial
from rotstar.rotating import (EPModel, evaluate_F, first_order_shape,
                              newton_continue)
from rotstar.vlasov import kappa_derivative_norm, scaling_response


def test_01_closed_form_gamma2(star2):
    root = np.sqrt(np.pi / 2.0)
    assert abs(star2.R - root) < 1e-7
    assert abs(star2.mass - root) < 1e-7
    k = np.sqrt(2.0 * np.pi)
    r = np.linspace(1e-8, star2.R, 600)
    exact = np.sin(k * r) / (k * r)
    assert np.max(np.abs(star2.u0_of(r) - exact)) < 1e-7


@pytest.mark.parametrize("gamma", [1.3, 1.5, 1.7])
def test_02_power_law_scaling_identity(gamma):
    c = 1.5
    star1 = solve_radial(power_law(gamma), 1.0)
    starc = solve_radial(power_law(gamma), c)
    beta = c ** ((2.0 - gamma) / (2.0 * (gamma - 1.0)))
    assert abs(starc.R - star1.R / beta) < 1e-8 * star1.R
    r = np.linspace(1e-3, starc.R * (1 - 1e-12), 300)
    err = np.max(np.abs(starc.u0_of(r) - c * star1.u0_of(beta * r)))
    assert err < 1e-8 * c


@pytest.mark.parametrize("eos", [power_law(1.5), power_law(1.7),
                                 power_sum([(1.0, 1.5), (1.0, 1.8)])],
                         ids=["gamma15", "gamma17", "power_sum"])
def test_03_mass_derivative_consistency(eos):
    star = solve_radial(eos, 1.0)
    mp, _ = mass_derivative(eos, star)
    d = 1e-4
    fd = (solve_radial(eos, 1.0 + d).mass
          - solve_radial(eos, 1.0 - d).mass) / (2 * d)
    assert abs(mp - fd) < 1e-5 * abs(fd)


def test_04_gamma43_degeneracy(star43, star15):
    mp, _ = mass_derivative(star43.eos, star43)
    assert abs(mp) < 1e-6 * star43.mass / star43.a
    rows43 = dict(((l, n), s) for l, n, s in
                  kernel_margin_ladder(star43, ells=(0,), ns=(128, 256, 512)))
    assert rows43[(0, 256)] <= 0.5 * rows43[(0, 128)]
    assert rows43[(0, 512)] <= 0.5 * rows43[(0, 256)]
    rows15 = dict(((l, n), s) for l, n, s in
                  kernel_margin_ladder(star15, ells=(0,), ns=(128, 256, 512)))
    vals = [rows15[(0, n)] for n in (128, 256, 512)]
    assert (max(vals) - min(vals)) / max(vals) < 0.10


def test_05_gamma43_kernel_witness(star43):
    _, sol = mass_derivative(star43.eos, star43)
    op = assemble_mode(star43, 0, n=512)
    x = op.nodes
    va = np.array([sol.sol(min(r, star43.R))[0] for r in x])
    alpha = va - np.atleast_1d(star43.u0_of(x)) / star43.a
    xi = x * alpha / np.atleast_1d(star43.u0p_of(x))
    ratio = op.weighted_norm(linop_apply(op, xi)) / op.weighted_norm(xi)
    assert ratio < 1e-4


def test_06_condition_b_regime():
    eos = power_sum([(1.0, 1.5), (1.0, 1.8)])
    rep = check_mass_condition_b(eos)
    assert rep.passed
    curve = mass_curve(eos, (0.5, 2.0), 7)
    a, _, M, mp = curve.arrays()
    assert np.min(np.abs(mp) * a / M) > 1e-3


def test_07_oblateness(ep_shape, ep_solutions):
    assert ep_shape.xi_R[2] < 0
    sol = ep_solutions[-1]
    assert sol.kappa == 1e-3
    assert sol.R_eq > sol.R_pole
    slope = (sol.R_eq - sol.R_pole) / sol.kappa
    pred = ep_shape.oblateness_slope()
    assert abs(slope - pred) < 0.05 * abs(pred)


def test_07b_oblateness_closed_form_gamma2(star2):
    # n = 1 polytrope (Chandrasekhar 1933): the linearised problem is
    # Helmholtz with k^2 = 2 pi, the l = 2 response B j_2(kr) is fixed by the
    # C^1 match to the exterior q/r^3
    want = 15.0 / (4.0 * np.sqrt(2.0 * np.pi))
    got = first_order_shape(star2, constant_rotation()).oblateness_slope()
    assert abs(got - want) < 1e-10 * want


def test_07c_oblateness_richardson(ep_shape, ep_solutions):
    # the secant slope s(kappa) = s0 + c kappa + O(kappa^2): the Richardson
    # value 2 s(kappa/2) - s(kappa) removes the O(kappa) curvature that
    # test_07's 5% bound has to absorb
    s1, s2 = ((sol.R_eq - sol.R_pole) / sol.kappa for sol in ep_solutions)
    assert [sol.kappa for sol in ep_solutions] == [5e-4, 1e-3]
    pred = ep_shape.oblateness_slope()
    assert abs(2 * s1 - s2 - pred) < 0.01 * abs(pred)


def test_07d_nonlinear_oblateness_closed_form_gamma2(star2):
    # Newton at gamma = 2, Richardson-extrapolated to kappa -> 0, against
    # the closed-form slope of test_07b
    want = 15.0 / (4.0 * np.sqrt(2.0 * np.pi))
    model = EPModel(star2, constant_rotation())
    sols = newton_continue(model, [5e-4, 1e-3], disc=Discretization(star2.R))
    s1, s2 = ((sol.R_eq - sol.R_pole) / sol.kappa for sol in sols)
    assert abs(2 * s1 - s2 - want) < 1e-4 * want


def _frechet_vs_fd(evalF, frechet, R, kap_scale, n_trials, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        zeta = rand_deformation(rng, R, cap=0.05)
        xi = rand_deformation(rng, R, cap=0.05)
        kap = kap_scale * rng.uniform(0.0, 1.0)
        dF = frechet(zeta, kap, xi)
        s = 1e-5
        Fp, _ = evalF(shifted(zeta, xi, s), kap)
        Fm, _ = evalF(shifted(zeta, xi, -s), kap)
        fd = (Fp - Fm) / (2 * s)
        worst = max(worst, np.max(np.abs(dF - fd)) / np.max(np.abs(fd)))
    return worst


def test_08a_frechet_fidelity_ep(star15, ep_model):
    disc = Discretization(star15.R)
    worst = _frechet_vs_fd(
        lambda z, k: evaluate_F(z, k, ep_model, disc=disc),
        lambda z, k, x: frechet_apply(z, k, x, ep_model, disc=disc),
        star15.R, 5e-3, 20, seed=101)
    assert worst < 1e-4


def test_08b_frechet_fidelity_vp(vp_star, vp_model):
    disc = Discretization(vp_star.R)
    worst = _frechet_vs_fd(
        lambda z, k: evaluate_F(z, k, vp_model, disc=disc),
        lambda z, k, x: frechet_apply(z, k, x, vp_model, disc=disc),
        vp_star.R, 2e-2, 20, seed=202)
    assert worst < 1e-4


def test_09a_mass_invariance_ep(star15, ep_model, ep_solutions):
    # independent recomputation of the rotating-state mass on a finer grid
    disc_f = Discretization(star15.R, n_rt=144, n_mu=32)
    for sol in ep_solutions:
        geo = Geometry(sol.zeta_field(), star15, disc_f)
        f = geo.model_fields(ep_model, sol.kappa)
        mass = sol.mass_factor * geo.volume_integral_src(f["dens"])
        assert abs(mass - star15.mass) < 1e-6 * star15.mass
        assert abs(sol.mass_value - star15.mass) < 1e-6 * star15.mass


def test_09b_mass_invariance_vp(vp_star, vp_model, vp_solutions):
    disc_f = Discretization(vp_star.R, n_rt=144, n_mu=32)
    for sol in vp_solutions:
        geo = Geometry(sol.zeta_field(), vp_star, disc_f)
        f = geo.model_fields(vp_model, sol.kappa)
        mass = sol.mass_factor * f["Mcal"]
        assert abs(mass - vp_star.mass) < 1e-6 * vp_star.mass
        assert abs(sol.mass_value - vp_star.mass) < 1e-6 * vp_star.mass


def test_10_vp_identities(vp_star, vp_ansatz):
    sol = scaling_response(vp_star)
    for r in np.linspace(0.1, 1.0, 10) * vp_star.R * 0.999:
        resid = abs(r * float(vp_star.u0p_of(r)[0]) - 2 * float(sol.sol(r)[0]))
        assert resid < 1e-7
    vSp_R = float(sol.sol(vp_star.R)[1])
    assert abs(2 * vSp_R + float(vp_star.u0p_of(vp_star.R)[0])) < 1e-7
    for u in (0.05, 0.3, 0.9):
        ref = vp_ansatz.w_quad(0.0, 1.0, u)
        assert abs(float(vp_ansatz.G(u)) - ref) < 1e-10 * max(1.0, ref)
    gam = vp_ansatz.equivalent_gamma()
    ep = solve_radial(power_law(gam), vp_star.a)
    assert abs(vp_star.R - ep.R) < 1e-6 * ep.R
    r = np.linspace(0.0, 0.999 * vp_star.R, 120)
    assert np.max(np.abs(vp_star.rho0_of(r) - ep.rho0_of(r))) \
        < 1e-6 * float(ep.rho0_of(0.0)[0])


def test_11_vp_first_order_vanishing(vp_star, vp_ansatz, vp_solutions):
    assert kappa_derivative_norm(vp_star, vp_ansatz) < 1e-10
    n1 = vp_solutions[0].zeta_field().xnorm()
    n2 = vp_solutions[1].zeta_field().xnorm()
    assert abs(n2 / n1 - 4.0) < 0.4  # quadratic response: 4 +- 10%


def test_12_determinism(tmp_path):
    from rotstar.cli import main
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 1.5\na_min = 0.8\na_max = 1.2\nn_samples = 3\n")
    outs = []
    for name in ("r1", "r2"):
        d = tmp_path / name
        assert main(["mass-curve", "--config", str(cfg),
                     "--out", str(d)]) == 0
        outs.append((d / "mass_curve.csv").read_bytes())
    assert outs[0] == outs[1]
