"""End-to-end acceptance checks.

Each test is one externally stated requirement, verified against closed
forms, independent finite differences, or brute-force oracles.  Expensive
shared artifacts (radial stars, continuation runs) come from session
fixtures in conftest.
"""

import numpy as np
import pytest

from conftest import (TURNING_TERMS, oblateness_slope, rand_deformation,
                      shifted, xi_at_R, zero_field)
from reference import energy_integrals, frechet_apply, w_quad, weighted_norm
from rotstar.axisym import Discretization, Geometry
from rotstar.eos import (RotationProfile, check_mass_condition_b,
                         constant_rotation, power_law, power_sum)
from rotstar.linop import assemble_mode, kernel_margin_ladder
from rotstar.radial import (mass_curve, mass_derivative, solve_radial,
                            variation)
from rotstar.rotating import (EPModel, evaluate_F, newton_continue,
                              sphere_response)
from rotstar.vlasov import VlasovAnsatz, VPModel


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
    mp = mass_derivative(star)[0]
    d = 1e-4
    fd = (solve_radial(eos, 1.0 + d).mass
          - solve_radial(eos, 1.0 - d).mass) / (2 * d)
    assert abs(mp - fd) < 1e-5 * abs(fd)


def test_04_gamma43_degeneracy(star43, ep43_model, ep_model):
    mp = mass_derivative(star43)[0]
    assert abs(mp) < 1e-6 * star43.mass / star43.a
    rows43 = dict(((l, n), s) for l, n, s in kernel_margin_ladder(
        ep43_model, ells=(0,), ns=(128, 256, 512)))
    assert rows43[(0, 256)] <= 0.5 * rows43[(0, 128)]
    assert rows43[(0, 512)] <= 0.5 * rows43[(0, 256)]
    rows15 = dict(((l, n), s) for l, n, s in kernel_margin_ladder(
        ep_model, ells=(0,), ns=(128, 256, 512)))
    vals = [rows15[(0, n)] for n in (128, 256, 512)]
    assert (max(vals) - min(vals)) / max(vals) < 0.10


def test_05_gamma43_kernel_witness(star43, ep43_model):
    va_nodes = mass_derivative(star43)[1]
    panels, M = assemble_mode(ep43_model, 0, n=512)
    x = panels.x
    va = star43.panels.interp(va_nodes, np.minimum(x, star43.R))
    alpha = va - np.atleast_1d(star43.u0_of(x)) / star43.a
    xi = x * alpha / np.atleast_1d(star43.u0p_of(x))
    ratio = weighted_norm(panels, M @ xi) / weighted_norm(panels, xi)
    assert ratio < 1e-4


def test_06_condition_b_regime():
    eos = power_sum([(1.0, 1.5), (1.0, 1.8)])
    assert check_mass_condition_b(eos)["passed"]
    curve = mass_curve(eos, (0.5, 2.0), 7)
    a, _, M, mp = curve.T
    assert np.min(np.abs(mp) * a / M) > 1e-3


def test_07_oblateness(ep_shape, ep_solutions):
    assert xi_at_R(ep_shape)[2] < 0
    sol = ep_solutions[-1]
    assert sol.kappa == 1e-3
    assert sol.R_eq > sol.R_pole
    slope = (sol.R_eq - sol.R_pole) / sol.kappa
    pred = oblateness_slope(ep_shape)
    assert abs(slope - pred) < 0.05 * abs(pred)


def test_07b_oblateness_closed_form_gamma2(star2):
    # n = 1 polytrope (Chandrasekhar 1933): the linearised problem is
    # Helmholtz with k^2 = 2 pi, the l = 2 response B j_2(kr) is fixed by the
    # C^1 match to the exterior q/r^3; perturb's response on 256 nodes
    want = 15.0 / (4.0 * np.sqrt(2.0 * np.pi))
    xi = sphere_response(EPModel(star2, constant_rotation()), 1.0,
                         Discretization(star2.R, n_rc=256))
    assert abs(oblateness_slope(xi) - want) < 1e-10 * want


def test_07c_oblateness_richardson(ep_shape, ep_solutions):
    # the secant slope s(kappa) = s0 + c kappa + O(kappa^2): the Richardson
    # value 2 s(kappa/2) - s(kappa) removes the O(kappa) curvature that
    # test_07's 5% bound has to absorb
    s1, s2 = ((sol.R_eq - sol.R_pole) / sol.kappa for sol in ep_solutions)
    assert [sol.kappa for sol in ep_solutions] == [5e-4, 1e-3]
    pred = oblateness_slope(ep_shape)
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


def _mass_invariance(star, model, sols):
    # the solution's mass factor times the source-grid integral on a finer
    # grid, and the reported mass_value, which integrates on the undeformed
    # grid, a quadrature independent of the solver's
    disc_f = Discretization(star.R, n_rt=144, n_mu=32)
    for sol in sols:
        geo = Geometry(sol.zeta_field(), star, disc_f)
        mass = sol.mass_factor * geo.model_fields(model, sol.kappa)["Mcal"]
        assert abs(mass - star.mass) < 1e-6 * star.mass
        assert abs(sol.mass_value - star.mass) < 1e-6 * star.mass


def test_09a_mass_invariance_ep(star15, ep_model, ep_solutions):
    _mass_invariance(star15, ep_model, ep_solutions)


def test_09b_mass_invariance_vp(vp_star, vp_model, vp_solutions):
    _mass_invariance(vp_star, vp_model, vp_solutions)


def test_10_vp_identities(vp_star, vp_ansatz):
    # the scaling response v_S and v_S'(R) = -m/R^2
    vS, m = variation(vp_star, 0.0, 1.0)
    vSp_R = -m / vp_star.R ** 2
    for r in np.linspace(0.1, 1.0, 10) * vp_star.R * 0.999:
        vS_r = float(vp_star.panels.interp(vS, np.array([r]))[0])
        resid = abs(r * float(vp_star.u0p_of(r)) - 2 * vS_r)
        assert resid < 1e-7
    assert abs(2 * vSp_R + float(vp_star.u0p_of(vp_star.R))) < 1e-7
    for u in (0.05, 0.3, 0.9):
        ref = w_quad(vp_ansatz, 0.0, 1.0, u)
        assert abs(float(vp_ansatz.hinv(u)) - ref) < 1e-10 * max(1.0, ref)
    gam = vp_ansatz.equivalent_gamma()
    ep = solve_radial(power_law(gam), vp_star.a)
    assert abs(vp_star.R - ep.R) < 1e-6 * ep.R
    r = np.linspace(0.0, 0.999 * vp_star.R, 120)
    assert np.max(np.abs(vp_star.rho0_of(r) - ep.rho0_of(r))) \
        < 1e-6 * float(ep.rho0_of(0.0))


def test_11_vp_first_order_vanishing(vp_star, vp_solutions):
    # dF/dkappa at (0, 0) from the odd-in-kappa part of the residual
    k, model, disc = 1e-2, VPModel(vp_star), Discretization(vp_star.R)
    Fp, geo = evaluate_F(zero_field(disc), k, model, disc)
    assert np.max(np.abs(Fp - model.residual(geo, -k))) / (2.0 * k) < 1e-10
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


def test_13_vp_through_four_thirds(star43, ep43_model):
    # the abstract: the kinetic curve exists on all of (6/5, 2), gamma = 4/3
    # included.  mu = -3/2 gives the VP star of the gamma = 4/3 polytrope;
    # its l = 0 margin holds under refinement while the fluid's collapses
    vp43 = solve_radial(VlasovAnsatz.matched_to_power_law(-1.5), 1.0)
    assert abs(vp43.R - star43.R) < 1e-12 * star43.R
    vp = [s for _, _, s in kernel_margin_ladder(VPModel(vp43), ells=(0,))]
    ep = [s for _, _, s in kernel_margin_ladder(ep43_model, ells=(0,))]
    assert max(abs(s / vp[0] - 1.0) for s in vp) < 0.01
    assert ep[1] <= 0.5 * ep[0] and ep[2] <= 0.5 * ep[1]


def _first_law_defect(model, kappa_scaled, hs=(0.05, 0.025)):
    """dE/dJ / Omega - 1 at kappa = kappa_scaled M/R^3 on the fixed-mass
    curve of model: central differences over kappa (1 +- h) of
    E = T + W + U_int and J = Omega I (reference.energy_integrals, Omega^2
    = kappa) for each h of hs, then Richardson-extrapolated, as the
    difference is second order in h."""
    star = model.star
    kappa = kappa_scaled * star.mass / star.R ** 3
    ks = sorted(kappa * (1.0 + s * h) for h in hs for s in (-1.0, 1.0))
    E, J = {}, {}
    for sol in newton_continue(model, ks, disc=Discretization(star.R)):
        e = energy_integrals(model, sol)
        E[sol.kappa] = e["T"] + e["W"] + e["U_int"]
        J[sol.kappa] = np.sqrt(sol.kappa) * e["I"]
    d = [(E[kp] - E[km]) / (J[kp] - J[km]) / np.sqrt(kappa) - 1.0
         for kp, km in ((kappa * (1.0 + h), kappa * (1.0 - h)) for h in hs)]
    return (4.0 * d[1] - d[0]) / 3.0


@pytest.mark.parametrize("gamma", [1.3, 1.5, 1.8])
@pytest.mark.parametrize("kappa_scaled", [0.01, 0.02])
def test_14_first_law_along_the_fixed_mass_curve(ep_model, rot_profile,
                                                 kappa_scaled, gamma):
    # the states of the fixed-mass curve obey dE = Omega dJ, the Newtonian
    # form of Hartle & Sharp (1967) for rigid rotation of a barotropic
    # fluid; each difference alone is off by 3e-4 (h = 0.05), Richardson
    # leaves 6e-8 to 7e-8 at each gamma
    model = ep_model if gamma == 1.5 else EPModel(
        solve_radial(power_law(gamma), 1.0), rot_profile)
    assert abs(_first_law_defect(model, kappa_scaled)) <= 1e-6


def test_14b_first_law_sees_a_wrong_centrifugal_term(star15):
    # the solver's centrifugal term scaled by 1.01 (J and its derivative),
    # against the energies at Omega^2 = kappa: about 1.75e-4
    model = EPModel(star15, RotationProfile(lambda r: 1.01 * np.ones_like(r)))
    assert abs(_first_law_defect(model, 0.02)) > 1e-5


def _virial_defect(model, sol):
    """Hachisu's VC = |2T + W + 3 Pi|/|W| of the state sol of model, from
    reference.energy_integrals on its own Geometry."""
    e = energy_integrals(model, sol)
    return abs(2.0 * e["T"] + e["W"] + 3.0 * e["Pi"]) / abs(e["W"])


def test_15_virial_identity_of_rotating_states(ep_model):
    # every steady state obeys 2T + W + 3 Pi = 0, an identity the solver
    # never uses; VC follows the accepted state's residual, so the Newton
    # tolerance is 1e-10 (at the default 1e-8 this schedule's 0.005 state
    # reads 1.3e-10, and a 0.01 state reached from the sphere in one step
    # 2.2e-9); measured 2.8e-13, 7.1e-13 and 1.7e-11
    star = ep_model.star
    ks = [k * star.mass / star.R ** 3 for k in (0.005, 0.01, 0.02)]
    sols = newton_continue(ep_model, ks, disc=Discretization(star.R),
                           tol=1e-10)
    assert [s.kappa for s in sols] == ks
    for sol in sols:
        assert _virial_defect(ep_model, sol) <= 1e-10


def test_15b_virial_sees_a_wrong_centrifugal_term(star15):
    # the solver's centrifugal term scaled by 1.01, against the energies at
    # Omega^2 = kappa: about 3.2e-5 at kappa R^3/M = 0.02
    model = EPModel(star15, RotationProfile(lambda r: 1.01 * np.ones_like(r)))
    kappa = 0.02 * star15.mass / star15.R ** 3
    sol = newton_continue(model, [kappa], disc=Discretization(star15.R),
                          tol=1e-10)[-1]
    assert _virial_defect(model, sol) > 1e-5


def test_16_two_stars_of_one_mass(turning_a, rot_profile):
    # above the minimum M(a*) of the TURNING_TERMS mass curve each mass is
    # taken twice, at a = 2.42769 (M' = -0.885, R = 24.74) and at
    # a = 5.29846 (M' = +0.453, R = 7.126) for 1.05 M(a*); each branch
    # rotates at fixed mass on its own curve
    law = power_sum(TURNING_TERMS)
    target = 1.05 * solve_radial(law, turning_a).mass

    def mass_above(a):
        return solve_radial(law, a).mass > target

    stars = []
    for lo, hi in ((2.0, turning_a), (turning_a, 6.0)):
        side = mass_above(lo)
        assert side != mass_above(hi)
        while hi - lo > 1e-9 * hi:
            mid = 0.5 * (lo + hi)
            if mass_above(mid) == side:
                lo = mid
            else:
                hi = mid
        stars.append(solve_radial(law, 0.5 * (lo + hi)))
    slopes = [mass_derivative(star)[0] for star in stars]
    assert slopes[0] < 0.0 < slopes[1]
    for star in stars:
        assert abs(star.mass - target) <= 1e-8 * target
        model = EPModel(star, rot_profile)
        ks = [k * star.mass / star.R ** 3 for k in (0.01, 0.02)]
        sols = newton_continue(model, ks)
        assert [s.kappa for s in sols] == ks
        assert max(s.iters for s in sols) <= 2
        _mass_invariance(star, model, sols)
