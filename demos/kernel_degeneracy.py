"""Kernel detection in the linearized operator.

For a healthy exponent the smallest singular value of each harmonic block is
stable under grid refinement; at gamma = 4/3 the continuum operator has a
kernel and the discrete sigma_min falls with the discretization error.  The
second half builds the analytic kernel vector from the variational mass
response and verifies it is annihilated.
"""

import numpy as np

from rotstar.eos import power_law
from rotstar.linop import apply, assemble_mode, kernel_margin_ladder
from rotstar.radial import mass_derivative, solve_radial

if __name__ == "__main__":
    star15 = solve_radial(power_law(1.5), 1.0)
    star43 = solve_radial(power_law(4.0 / 3.0), 1.0)

    print("sigma_min of the l=0 block under grid doubling")
    print(" n      gamma=1.5     gamma=4/3")
    lad15 = dict(((l, n), s) for l, n, s in
                 kernel_margin_ladder(star15, ells=(0,), ns=(128, 256, 512)))
    lad43 = dict(((l, n), s) for l, n, s in
                 kernel_margin_ladder(star43, ells=(0,), ns=(128, 256, 512)))
    for n in (128, 256, 512):
        print(f" {n:<6} {lad15[(0, n)]:.6e}  {lad43[(0, n)]:.6e}")

    # the converse construction: alpha = v_a - u0/a generates the kernel
    _, sol = mass_derivative(star43.eos, star43)
    op = assemble_mode(star43, 0, n=512)
    x = op.nodes
    va = np.array([sol.sol(min(r, star43.R))[0] for r in x])
    alpha = va - np.atleast_1d(star43.u0_of(x)) / star43.a
    xi = x * alpha / np.atleast_1d(star43.u0p_of(x))
    ratio = op.weighted_norm(apply(op, xi)) / op.weighted_norm(xi)
    print(f"\nkernel witness at gamma=4/3: ||L xi|| / ||xi|| = {ratio:.3e}")

    # mode l=1 always has the translation kernel xi(r) = r
    op1 = assemble_mode(star15, 1, n=256)
    r1 = op1.weighted_norm(apply(op1, op1.nodes)) / op1.weighted_norm(op1.nodes)
    print(f"translation direction at l=1 (any gamma): ||L r|| / ||r|| = {r1:.3e}")
