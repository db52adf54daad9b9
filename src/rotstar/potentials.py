"""Newtonian potentials of axisymmetric densities, per spherical-harmonic
mode.

For a density rho(y) = sum_l rho_l(t) Y_l0(theta), the potential
V(x) = int rho(y)/|x-y| dy has modes

    Phi_l(s) = 4 pi/(2l+1) [ s^-(l+1) I_in(s) + s^l I_out(s) ],
    I_in(s)  = int_0^s rho_l(t) t^{l+2} dt,
    I_out(s) = int_s^b rho_l(t) t^{1-l} dt.

Densities live as nodal values on composite Gauss-Legendre panels; the
min/max kink at t = s is handled exactly by splitting the containing panel
at s and integrating the panel interpolant on each side.  The split-panel
quadrature does not depend on l, so one call builds it once for a whole
set of modes.
"""

import numpy as np

from .numerics import gl_nodes


def _split_panels(panels, p, s, n_sub):
    """Quadrature of [a_p, s] and [s, b_p] for each target s[i] inside panel
    p[i]: per half, the sub-node abscissae t and weights w, shape
    (len(s), n_sub), and the rows (len(s), n_sub, order) interpolating the
    panel's nodal values to t."""
    a, b = panels.edges[p], panels.edges[p + 1]
    xg, wg = gl_nodes(n_sub)
    halves = []
    for lo, hi in ((a, s), (s, b)):
        half = 0.5 * (hi - lo)
        t = half[:, None] * (xg[None, :] + 1.0) + lo[:, None]
        w = half[:, None] * wg[None, :]
        halves.append((t, w, panels.local_rows(p[:, None], t)))
    return halves


def mode_potential_matrices(panels, ells, s_targets, n_sub=12):
    """Matrices (A, Ap) with A @ sigma = Phi_l(s) and Ap @ sigma = Phi_l'(s)
    for sigma given at panels.x, one pair per mode l in ells."""
    s = np.asarray(s_targets, dtype=float)
    b = panels.edges[-1]
    m = panels.order
    tiny = 1e-12 * b
    pidx = panels.panel_of(np.clip(s, panels.edges[0], b))
    # panel p lies wholly inside [0, s] (below) or [s, b] (above)
    below = panels.edges[None, 1:] <= (s + tiny)[:, None]
    above = panels.edges[None, :-1] >= (s - tiny)[:, None]
    at = np.arange(len(s))
    idx = (~below[at, pidx] & ~above[at, pidx]).nonzero()[0]
    below = np.repeat(below, m, axis=1)
    above = np.repeat(above, m, axis=1)
    # targets inside a panel split it; their rows fill that panel's columns
    cols = pidx[idx, None] * m + np.arange(m)
    halves = _split_panels(panels, pidx[idx], s[idx], n_sub)
    small = s < tiny
    ss = np.where(small, 1.0, s)
    out = []
    for l in ells:
        win = panels.w * panels.x ** (l + 2)
        wout = panels.w * panels.x ** (1 - l)
        Iin = np.where(below, win, 0.0)
        Iout = np.where(above, wout, 0.0)
        for I, (t, w, T), power in zip((Iin, Iout), halves, (l + 2, 1 - l)):
            I[idx[:, None], cols] += np.einsum("sq,sqm->sm", w * t ** power, T)
        pref = 4.0 * np.pi / (2 * l + 1)
        A = pref * (ss[:, None] ** -(l + 1) * Iin + ss[:, None] ** l * Iout)
        Ap = pref * (-(l + 1) * ss[:, None] ** -(l + 2) * Iin
                     + l * ss[:, None] ** (l - 1) * Iout)
        if np.any(small):
            # limit s -> 0: only the l=0 outer integral survives in Phi; Phi'(0)=0
            A[small] = 0.0
            Ap[small] = 0.0
            if l == 0:
                A[small] = pref * wout[None, :]
        out.append((A, Ap))
    return out
