"""Kernel detection in the linearized operator.

For a healthy exponent the smallest singular value of each harmonic block is
stable under grid refinement; at gamma = 4/3 the continuum operator has a
kernel and the discrete sigma_min falls with the discretization error.  The
second half builds the analytic kernel vector from the variational mass
response and verifies it is annihilated.
"""

import numpy as np

from rotstar.eos import constant_rotation, power_law
from rotstar.linop import assemble_mode, kernel_margin_ladder
from rotstar.radial import mass_derivative, solve_radial
from rotstar.rotating import EPModel


def weighted_norm(panels, f):
    """L2(B_R) norm of a mode profile f given at the nodes panels.x."""
    return np.sqrt(np.dot(panels.w * panels.x ** 2, f ** 2))


if __name__ == "__main__":
    star15 = solve_radial(power_law(1.5), 1.0)
    star43 = solve_radial(power_law(4.0 / 3.0), 1.0)
    # the fluid model on each star owns the l = 0 mass term
    ep15 = EPModel(star15, constant_rotation())
    ep43 = EPModel(star43, constant_rotation())

    print("sigma_min of the l=0 block under grid doubling")
    print(" n      gamma=1.5     gamma=4/3")
    lad15 = dict(((l, n), s) for l, n, s in
                 kernel_margin_ladder(ep15, ells=(0,), ns=(128, 256, 512)))
    lad43 = dict(((l, n), s) for l, n, s in
                 kernel_margin_ladder(ep43, ells=(0,), ns=(128, 256, 512)))
    for n in (128, 256, 512):
        print(f" {n:<6} {lad15[(0, n)]:.6e}  {lad43[(0, n)]:.6e}")

    # the converse construction: alpha = v_a - u0/a generates the kernel
    va_nodes = mass_derivative(star43)[1]
    panels, M = assemble_mode(ep43, 0, n=512)
    x = panels.x
    va = star43.panels.interp(va_nodes, np.minimum(x, star43.R))
    alpha = va - star43.u0_of(x) / star43.a
    xi = x * alpha / star43.u0p_of(x)
    ratio = weighted_norm(panels, M @ xi) / weighted_norm(panels, xi)
    print(f"\nkernel witness at gamma=4/3: ||L xi|| / ||xi|| = {ratio:.3e}")

    # mode l=1 always has the translation kernel xi(r) = r
    panels1, M1 = assemble_mode(ep15, 1, n=256)
    r1 = weighted_norm(panels1, M1 @ panels1.x) \
        / weighted_norm(panels1, panels1.x)
    print(f"translation direction at l=1 (any gamma): ||L r|| / ||r|| = {r1:.3e}")
