"""Radial steady states and the mass condition.

Solves the spherical hydrostatic profile for a few pressure laws, sweeps the
central enthalpy, and shows where the mass derivative M'(a) degenerates.
The gamma = 4/3 power law is the classical marginal case: M is independent
of the central value, so M'(a) = 0 identically and the linearized problem
develops a kernel.
"""

import numpy as np

from rotstar.eos import check_mass_condition_b, power_law, power_sum
from rotstar.radial import mass_curve, mass_derivative, solve_radial

if __name__ == "__main__":
    # a closed-form sanity anchor first: gamma = 2 gives sin(kr)/(kr)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        star2 = solve_radial(power_law(2.0), 1.0)
    print(f"gamma=2 closed form: R = {star2.R:.8f}  "
          f"(exact sqrt(pi/2) = {np.sqrt(np.pi / 2):.8f})")

    for label, eos in [("gamma=1.5", power_law(1.5)),
                       ("gamma=4/3", power_law(4.0 / 3.0)),
                       ("s^1.5 + s^1.8", power_sum([(1.0, 1.5), (1.0, 1.8)]))]:
        star = solve_radial(eos, 1.0)
        mp = mass_derivative(star)[0]
        print(f"{label:>14}: R = {star.R:.6f}  M = {star.mass:.6f}  "
              f"M'(1) = {mp:+.6e}")

    # sweep the central value for the two-term law and report the margin
    eos = power_sum([(1.0, 1.5), (1.0, 1.8)])
    curve = mass_curve(eos, (0.5, 2.0), 9)
    a, R, M, mp = curve.T
    print("\n a        R         M         M'")
    for row in curve:
        print(" {:.4f}   {:.5f}   {:.5f}   {:+.5f}".format(*row))
    print(f"\nmin |M'| a / M over the sweep: "
          f"{np.min(np.abs(mp) * a / M):.4f}")
    rep = check_mass_condition_b(eos)
    print(f"structural mass condition: {'pass' if rep['passed'] else 'FAIL'}")
