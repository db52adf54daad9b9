"""The linearized operator L = dF/dzeta at the radial solution, one
spherical-harmonic mode at a time.

For xi(x) = xi_l(r) Y_{l0}(theta),

    (L xi)_l(r) = (u0'/r) xi_l(r) - [Phi_l(r) - delta_{l0} Phi_0(0)]
                  + delta_{l0} rank-one mass term,

where Phi_l is the potential mode of the source sigma_l(t) = rho0'(t) xi_l(t)/t.
The rank-one term is (k(rho0)(r)-k(rho0)(0))/M * int rho0' xi/|y| dy for the
Euler-Poisson model and (u0(r)-u0(0))/M * (same integral) for Vlasov-Poisson.
"""

import csv
import json

import numpy as np

from .errors import DegenerateOperatorError
from .numerics import Panels, smallest_singular_value
from .potentials import mode_potential_matrices


class ModeOperator:
    """Dense discretization of L restricted to one harmonic index l.

    Acts on nodal values of xi_l at the composite Gauss-Legendre nodes
    panels.x; sigma_min is measured in the quadrature-weighted l2 norm
    (the L2(B_R) proxy for the paper's X-norm space)."""

    def __init__(self, l, star, panels, matrix):
        self.l = int(l)
        self.star = star
        self.panels = panels
        self.matrix = matrix
        self.nodes = panels.x
        self._sig = None

    def sigma_min(self):
        if self._sig is None:
            d = np.sqrt(self.panels.w) * self.nodes
            B = self.matrix * (d[:, None] / d[None, :])
            self._sig = smallest_singular_value(B)
        return self._sig

    def weighted_norm(self, f):
        """L2(B_R) norm of a mode profile given at the nodes."""
        return float(np.sqrt(np.dot(self.panels.w * self.nodes ** 2,
                                    np.asarray(f) ** 2)))

    def dump(self, json_path, csv_path):
        with open(json_path, "w") as f:
            json.dump({"l": self.l, "n": len(self.nodes), "R": self.star.R,
                       "sigma_min": self.sigma_min()}, f, indent=1)
        with open(csv_path, "w", newline="") as f:
            w = csv.writer(f)
            for row in self.matrix:
                w.writerow([repr(float(x)) for x in row])


def assemble_mode(star, l, n=256, order=8, n_sub=12):
    """Assemble the mode-l block of L on n graded quadrature nodes.

    The l=0 mass term takes its column from star.mass_column, so the star's
    model (Euler-Poisson or Vlasov-Poisson) decides it.
    """
    if l < 0:
        raise ValueError("harmonic index must be nonnegative")
    panels = Panels.graded(star.R, n, order=order)
    x = panels.x
    u0p = star.u0p_of(x)
    rho0p = star.rho0p_of(x)
    [(A, _)] = mode_potential_matrices(panels, (l,), x, n_sub=n_sub)
    if l == 0:
        [(A0_zero, _)] = mode_potential_matrices(panels, (0,), [0.0], n_sub=n_sub)
        A = A - A0_zero  # the -1/|y| monopole correction
    D = rho0p / x
    M = np.diag(u0p / x) - A * D[None, :]
    if l == 0:
        row = 4.0 * np.pi * panels.w * x * rho0p
        M = M + np.outer(star.mass_column(x), row)
    return ModeOperator(l, star, panels, M)


def kernel_margin_ladder(star, ells=(0, 1, 2, 3, 4), ns=(128, 256, 512),
                         order=2):
    """Refinement study of sigma_min per mode.

    Uses a fixed low-order composite rule so the discretization error
    shrinks at a visible algebraic rate: at a degenerate point (power law
    gamma=4/3, l=0) sigma_min tracks that error downward under refinement,
    while healthy margins stay put.  Returns rows (l, n, sigma_min).
    """
    rows = []
    for l in ells:
        for n in ns:
            op = assemble_mode(star, l, n=n, order=order,
                               n_sub=max(4, order + 2))
            rows.append((l, n, op.sigma_min()))
    return rows


def apply(op, xi):
    """L restricted to mode l applied to nodal values xi."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != op.nodes.shape:
        raise ValueError("profile/grid mismatch")
    return op.matrix @ xi


def solve(op, rhs, floor=1e-8):
    """Solve (L_l) xi = rhs; refuses near-degenerate operators."""
    sig = op.sigma_min()
    if sig <= floor:
        gamma = getattr(op.star.eos, "gamma", None) if hasattr(op.star, "eos") else None
        raise DegenerateOperatorError(
            f"degenerate operator (mass condition violated?): sigma_min={sig:.3e}"
            + (f", gamma={gamma}" if gamma is not None else ""),
            sigma_min=sig, diagnostics={"l": op.l, "gamma": gamma})
    xi = np.linalg.solve(op.matrix, np.asarray(rhs, dtype=float))
    return xi
