"""Kinetic steady states and the polytropic correspondence.

A phase-space ansatz f = (-E)^{-mu} psi(L) with psi even produces the same
radial density profile as the polytropic pressure law with
gamma = 1 + 1/(3/2 - mu) when the amplitude is matched.  Rotation enters
only at second order in kappa for such an ansatz, so the nonlinear response
scales as kappa^2.
"""

import numpy as np

from rotstar.axisym import Discretization
from rotstar.eos import power_law
from rotstar.radial import solve_radial
from rotstar.rotating import newton_continue
from rotstar.vlasov import (VPModel, VlasovAnsatz, kappa_derivative_norm,
                            scaling_response, solve_vp_radial)

if __name__ == "__main__":
    mu = 0.25
    ans = VlasovAnsatz.matched_to_power_law(mu, psi2=0.1)
    star = solve_vp_radial(ans, 1.0)
    gam = ans.equivalent_gamma()
    ep = solve_radial(power_law(gam), 1.0)
    print(f"mu = {mu}: equivalent gamma = {gam}")
    print(f"kinetic profile:   R = {star.R:.8f}  M = {star.mass:.8f}")
    print(f"polytrope profile: R = {ep.R:.8f}  M = {ep.mass:.8f}")

    sol = scaling_response(star)
    r = 0.5 * star.R
    resid = abs(r * float(star.u0p_of(r)[0]) - 2 * float(sol.sol(r)[0]))
    print(f"scaling identity r u' = 2 v_S residual at R/2: {resid:.2e}")

    print(f"\n|dF/dkappa(0,0)| = "
          f"{kappa_derivative_norm(star, ans):.1e} (even ansatz)")
    disc = Discretization(star.R)
    sols = newton_continue(VPModel(star, ans), [1e-2, 2e-2], disc=disc)
    n1 = sols[0].zeta_field().xnorm()
    n2 = sols[1].zeta_field().xnorm()
    print(" kappa     ||zeta||_X    R_eq - R_pole")
    for s in sols:
        print(f" {s.kappa:.0e}     {s.zeta_field().xnorm():.3e}     "
              f"{s.R_eq - s.R_pole:.3e}")
    print(f"doubling kappa scales the response by {n2 / n1:.4f} "
          f"(quadratic: 4)")
