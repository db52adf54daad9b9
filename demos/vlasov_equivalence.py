"""Kinetic steady states and the polytropic correspondence.

A phase-space ansatz f = (-E)^{-mu} psi(L) with psi even produces the same
radial density profile as the polytropic pressure law with
gamma = 1 + 1/(3/2 - mu) when the amplitude is matched.  Rotation enters
only at second order in kappa for such an ansatz, so the nonlinear response
scales as kappa^2.
"""

import numpy as np

from rotstar.axisym import Discretization, ModalField
from rotstar.eos import power_law
from rotstar.radial import solve_radial, variation
from rotstar.rotating import evaluate_F, newton_continue
from rotstar.vlasov import VPModel, VlasovAnsatz

if __name__ == "__main__":
    mu = 0.25
    ans = VlasovAnsatz.matched_to_power_law(mu, psi2=0.1)
    star = solve_radial(ans, 1.0)
    gam = ans.equivalent_gamma()
    ep = solve_radial(power_law(gam), 1.0)
    print(f"mu = {mu}: equivalent gamma = {gam}")
    print(f"kinetic profile:   R = {star.R:.8f}  M = {star.mass:.8f}")
    print(f"polytrope profile: R = {ep.R:.8f}  M = {ep.mass:.8f}")

    # the scaling response: du0/dp at fixed r when the source is scaled
    # by 1 + p
    vS = variation(star, 0.0, 1.0)[0]
    r = 0.5 * star.R
    vS_r = float(star.panels.interp(vS, np.array([r]))[0])
    resid = abs(r * float(star.u0p_of(r)) - 2 * vS_r)
    print(f"scaling identity r u' = 2 v_S residual at R/2: {resid:.2e}")

    # dF/dkappa at (0, 0) from the odd-in-kappa part of the residual
    model, disc, k = VPModel(star), Discretization(star.R), 1e-2
    zero = ModalField(disc.panels_c, disc.ells,
                      np.zeros((len(disc.ells), len(disc.panels_c))))
    F, geo = evaluate_F(zero, k, model, disc)
    dF = np.max(np.abs(F - model.residual(geo, -k))) / (2.0 * k)
    print(f"\n|dF/dkappa(0,0)| = {dF:.1e} (even ansatz)")
    sols = newton_continue(model, [1e-2, 2e-2], disc=disc)
    n1 = sols[0].zeta_field().xnorm()
    n2 = sols[1].zeta_field().xnorm()
    print(" kappa     ||zeta||_X    R_eq - R_pole")
    for s in sols:
        print(f" {s.kappa:.0e}     {s.zeta_field().xnorm():.3e}     "
              f"{s.R_eq - s.R_pole:.3e}")
    print(f"doubling kappa scales the response by {n2 / n1:.4f} "
          f"(quadratic: 4)")
