"""Slow rotation: first-order oblateness and nonlinear continuation.

Computes the linear shape response for a constant rotation profile (the
Newton step from the sphere, whose matrix at zeta = 0 is the linearized
operator), then follows the full nonlinear problem in the rotation
intensity kappa with the total mass held exactly fixed, and compares the
measured equatorial bulge against the first-order prediction.
"""

import numpy as np

from rotstar.axisym import Discretization
from rotstar.eos import constant_rotation, power_law
from rotstar.radial import solve_radial
from rotstar.rotating import EPModel, newton_continue, sphere_response

if __name__ == "__main__":
    star = solve_radial(power_law(1.5), 1.0)
    model = EPModel(star, constant_rotation())
    R = star.R

    # per unit kappa: F(0, kappa) is affine in kappa for the fluid
    shape = sphere_response(model, 1.0, Discretization(R, n_rc=256))
    xi_2 = float(shape.panels.interp(shape.coefs[shape.ells.index(2)], R))
    print(f"linear response: xi_2(R) = {xi_2:+.4f} (< 0: oblate)")
    eq, pole = R * shape.ratio(np.full(2, R), np.array([np.pi / 2, 0.0]))
    slope = float(eq - pole)
    print(f"predicted d(R_eq - R_pole)/dkappa = {slope:.4f}")

    sols = newton_continue(model, [5e-4, 1e-3], disc=Discretization(R))
    print("\n kappa      R_eq       R_pole     mass rel err   iters")
    for s in sols:
        merr = abs(s.mass_value - star.mass) / star.mass
        print(f" {s.kappa:.1e}   {s.R_eq:.6f}   {s.R_pole:.6f}   "
              f"{merr:.2e}       {s.iters}")
    s = sols[-1]
    measured = (s.R_eq - s.R_pole) / s.kappa
    print(f"\nmeasured bulge slope at kappa={s.kappa:g}: {measured:.4f} "
          f"({100 * abs(measured / slope - 1):.1f}% from first order)")
