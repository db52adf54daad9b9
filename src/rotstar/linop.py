"""The linearized operator L = dF/dzeta of a model at its radial star, one
spherical-harmonic mode at a time, for the kernel-margin diagnosis.

For xi(x) = xi_l(r) Y_{l0}(theta),

    (L xi)_l(r) = (u0'/r) xi_l(r) - [Phi_l(r) - delta_{l0} Phi_0(0)]
                  + delta_{l0} rank-one mass term,

where Phi_l is the potential mode of the source
sigma_l(t) = rho0'(t) xi_l(t)/t, applied as the dense matrix of
potentials.PotentialQuadrature.  The rank-one term is c(r) int rho0' xi/|y| dy with the column
c = (u0 - a + d local/d mfac)/M, the mfac-derivative of the model's local
term at mfac = 1 (Model.dlocal_dmfac; mass_column): zero for Vlasov-Poisson, and
dh(rho0) rho0 at 0 minus the same at r for Euler-Poisson, which makes c
(k(rho0) - k(rho0(0)))/M with k = h - p'.  So the model, not the star,
decides the mass term.  Any l is assembled, odd ones included, which the
even-mode Newton matrix at zeta = 0 (rotating.sphere_step, the rotation
responses) does not carry.
"""

import numpy as np

from .errors import SolverError
from .numerics import Panels, pointwise, weighted_sigma_min_ladder
from .potentials import PotentialQuadrature, origin_row

#: panel order and split-panel nodes of kernel_margin_ladder
LADDER_ORDER, LADDER_SUB = 2, 4


@pointwise
def mass_column(model, r):
    """The column c(r) = (u0 - a + model.dlocal_dmfac(r, 1))/M of the l = 0
    mass term at radii r, in the shape of r (a scalar gives a 0-d array)."""
    star = model.star
    return (star.u0_of(r) - star.a + model.dlocal_dmfac(r, 1.0)) / star.mass


def assemble_mode(model, l, n=256, order=8, n_sub=12):
    """The mode-l block of L at model.star on the n nodes of the graded
    panels of [0, R]: (panels, matrix), the matrix acting on the nodal
    values of xi_l at panels.x; numerics.weighted_sigma_min reads its
    margin.  A matrix that is not finite (r^l overflows at a large l)
    raises SolverError."""
    if l < 0:
        raise ValueError("harmonic index must be nonnegative")
    star = model.star
    panels = Panels.graded(star.R, n, order=order)
    x = panels.x
    u0p = star.u0p_of(x)
    rho0p = star.rho0p_of(x)
    [A] = PotentialQuadrature(panels, (l,), x, n_sub=n_sub).dense()
    if l == 0:
        A = A - origin_row(panels)[None, :]  # the -1/|y| monopole correction
    D = rho0p / x
    M = np.diag(u0p / x) - A * D[None, :]
    if l == 0:
        M = M + np.outer(mass_column(model, x),
                         4.0 * np.pi * panels.w * x * rho0p)
    if not np.all(np.isfinite(M)):
        raise SolverError(f"mode {l} operator is not finite")
    return panels, M


def kernel_margin_ladder(model, ells=(0, 1, 2, 3, 4), ns=(128, 256, 512)):
    """Refinement study of sigma_min per mode.

    Uses a fixed low-order composite rule so the discretization error
    shrinks at a visible algebraic rate: at a degenerate point (power law
    gamma=4/3, l=0) sigma_min tracks that error downward under refinement,
    while healthy margins stay put.  Each mode's sizes run in the order of
    ns through numerics.weighted_sigma_min_ladder, so a mode whose Gram
    value was lost at one size tries the inverse iteration first at the
    next.  Returns rows (l, n, sigma_min).
    """
    rows = []
    for l in ells:
        blocks = (assemble_mode(model, l, n=n, order=LADDER_ORDER,
                                n_sub=LADDER_SUB) for n in ns)
        rows += [(l, n, sig)
                 for n, sig in zip(ns, weighted_sigma_min_ladder(blocks))]
    return rows
