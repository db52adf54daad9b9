"""Newtonian potentials of axisymmetric densities, per spherical-harmonic
mode.

For a density rho(y) = sum_l rho_l(t) Y_{l0}(theta), the potential
V(x) = int rho(y)/|x-y| dy has modes

    Phi_l(s) = 4 pi/(2l+1) [ s^-(l+1) I_in(s) + s^l I_out(s) ],
    I_in(s)  = int_0^s rho_l(t) t^{l+2} dt,
    I_out(s) = int_s^b rho_l(t) t^{1-l} dt.

Densities live as nodal values on composite Gauss-Legendre panels of
[0, b]; the min/max kink at t = s is handled exactly by splitting the
panel that holds s at s and integrating the panel interpolant on each
side.  Every target s lies in (0, b] and splits the panel that holds it,
one on an edge included: that is the panel above the edge (the last panel
at b), one half is empty, and Phi_l there is the limit of its values
inside that panel.  The origin, where only Phi_0 survives, is origin_row.

PotentialQuadrature keeps this quadrature factored for one set of targets:
per target, the panel p that holds it; per mode, the weights of panel p's
nodes on either side of the target; and the row scalings s^-(l+1), s^l and
their derivatives.  Applied to one source it sums the panels below and
above p by prefix and suffix sums and gives Phi_l and Phi_l' (apply).
Applied to a batch of sources and contracted with weights over a target
axis (apply_contracted), it takes the same prefix sums I_in and suffix
sums I_out over whole panels, groups the targets by row and panel,
contracts each group's weights over the target axis, and applies all
groups of one panel q in one product against I_in[q], I_out[q + 1] and the
sources' values on panel q, with no per-node block and no matrix over all
panels.  dense expands the quadrature into one matrix A of Phi_l per mode,
over all targets, which linop.assemble_mode reads.  The split-panel
quadrature does not depend on l, so it is built once for all modes.
"""

import numpy as np

from .numerics import gl_nodes


def origin_row(panels):
    """The row of Phi_0(0) = 4 pi int_0^b rho_0(t) t dt, the only mode
    that survives at the origin."""
    return 4.0 * np.pi * (panels.w * panels.x)


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


class PotentialQuadrature:
    """The split-panel quadrature of Phi_l and Phi_l' at the targets
    s_targets (any shape, each in (edges[0], b]) for every mode l in ells,
    acting on sources given at panels.x, kept in factored form.  p holds
    the panel of each flattened target.  Per mode i (l = ells[i]):
    pref[i] = 4 pi/(2l+1); the nodal weights win[i] = w t^(l+2) and
    wout[i] = w t^(1-l) of the whole panels; the weights win_split[i] and
    wout_split[i] (n_s, order) of panel p's nodes below and above each
    target; and the row scalings scale[i] (4, n_s) of I_in and I_out in
    Phi_l (rows 0, 1) and Phi_l' (rows 2, 3), without pref.  A target
    outside (edges[0], b] raises ValueError."""

    def __init__(self, panels, ells, s_targets, n_sub=12):
        s = np.asarray(s_targets, dtype=float)
        lo, hi = (float(e) for e in panels.edges[[0, -1]])
        if not np.all((s > lo) & (s <= hi)):
            raise ValueError(f"potential target outside ({lo}, {hi}]")
        self.panels = panels
        self.ells = tuple(ells)
        self.shape = s.shape
        s = s.ravel()
        # the panel p that holds each target: the panels below p lie in
        # [0, s], those above it in [s, b], and the target splits p itself
        self.p = panels.panel_of(s)
        (t_in, w_in, T_in), (t_out, w_out, T_out) = _split_panels(
            panels, self.p, s, n_sub)
        n_l = len(self.ells)
        self.pref = np.empty(n_l)
        self.win, self.wout = np.empty((2, n_l, len(panels.x)))
        self.win_split, self.wout_split = np.empty(
            (2, n_l, len(s), panels.order))
        self.scale = np.empty((n_l, 4, len(s)))
        for i, l in enumerate(self.ells):
            self.pref[i] = 4.0 * np.pi / (2 * l + 1)
            self.win[i] = panels.w * panels.x ** (l + 2)
            self.wout[i] = panels.w * panels.x ** (1 - l)
            self.win_split[i] = np.einsum("sq,sqm->sm",
                                          w_in * t_in ** (l + 2), T_in)
            self.wout_split[i] = np.einsum("sq,sqm->sm",
                                           w_out * t_out ** (1 - l), T_out)
            self.scale[i] = [s ** -(l + 1), s ** l,
                             -(l + 1) * s ** -(l + 2), l * s ** (l - 1)]

    def apply(self, sigma):
        """Phi_l and Phi_l' at the targets of the mode sources sigma
        (n_l, n_nodes), as one array of shape (2, n_l) + the targets'
        shape: sums over the panels below (I_in) and above (I_out) each
        target's panel by prefix and suffix sums, plus that panel's split
        quadrature."""
        P, m = self.panels.n_panels, self.panels.order
        f = np.asarray(sigma, dtype=float).reshape(len(self.ells), P, m)
        pin = np.einsum("lpm,lpm->lp", self.win.reshape(f.shape), f)
        pout = np.einsum("lpm,lpm->lp", self.wout.reshape(f.shape), f)
        zero = np.zeros((len(self.ells), 1))
        Iin = np.hstack([zero, np.cumsum(pin, axis=1)])[:, self.p]
        Iout = np.hstack([np.cumsum(pout[:, ::-1], axis=1)[:, ::-1],
                          zero])[:, self.p + 1]
        fs = f[:, self.p]
        Iin += np.einsum("lsm,lsm->ls", self.win_split, fs)
        Iout += np.einsum("lsm,lsm->ls", self.wout_split, fs)
        sc = self.pref[:, None, None] * self.scale
        phi = np.array([sc[:, 0] * Iin + sc[:, 1] * Iout,
                        sc[:, 2] * Iin + sc[:, 3] * Iout])
        return phi.reshape((2, len(self.ells)) + self.shape)

    def apply_contracted(self, w, sigma):
        """sum_i sum_j w[o, i, j] (A_i sigma[i])[(r, j), b], shape
        (n_o, n_r, n_b), for the Phi matrices A_i (l = ells[i]) at targets
        of shape (n_r, n_j), weights w (n_o, n_l, n_j) and a batch of
        sources sigma (n_l, n_nodes, n_b)."""
        P, m = self.panels.n_panels, self.panels.order
        n_r, n_j = self.shape
        n_o, n_l = w.shape[:2]
        f = sigma.reshape(n_l, P, m, -1)
        n_b = f.shape[-1]
        # the sources' I_in over the panels below each edge, I_out over the
        # panels above it (n_l, P + 1, n_b)
        below = np.tri(P + 1, P, -1)
        Iin = below @ (self.win.reshape(n_l, P, 1, m) @ f).reshape(n_l, P, n_b)
        Iout = (1.0 - below) \
            @ (self.wout.reshape(n_l, P, 1, m) @ f).reshape(n_l, P, n_b)
        # target (r, j) in panel q takes I_in[q], I_out[q + 1] and the
        # split quadrature's weights on the nodes of panel q
        sc = self.pref[:, None, None] * self.scale[:, :2]
        r_t, j_t = np.divmod(np.arange(n_r * n_j), n_j)
        # the groups (q, r), ordered by panel, without np.unique (whose
        # first call imports numpy.ma)
        key = self.p * n_r + r_t
        used = np.zeros(P * n_r, dtype=bool)
        used[key] = True
        groups = used.nonzero()[0]
        g = (np.cumsum(used) - 1)[key]
        q_g, r_g = np.divmod(groups, n_r)
        e = np.zeros((n_l, n_j, len(groups), m + 2))
        e[:, j_t, g, :2] = sc.transpose(0, 2, 1)
        e[:, j_t, g, 2:] = sc[:, 0, :, None] * self.win_split \
            + sc[:, 1, :, None] * self.wout_split
        # contract each group's weights over its colatitudes, then apply
        # the groups of one panel q in one product against
        # [I_in[q]; I_out[q + 1]; f[:, q]]
        e = np.ascontiguousarray(
            (w.transpose(1, 0, 2) @ e.reshape(n_l, n_j, -1)).reshape(
                n_l, n_o, -1, m + 2).transpose(2, 1, 0, 3))
        out = np.zeros((n_o, n_r, n_b))
        bounds = np.searchsorted(q_g, np.arange(P + 1))
        x = np.empty((n_l, m + 2, n_b))
        for q in range(P):
            lo, hi = bounds[q], bounds[q + 1]
            if lo == hi:
                continue
            x[:, 0], x[:, 1], x[:, 2:] = Iin[:, q], Iout[:, q + 1], f[:, q]
            blk = e[lo:hi].reshape(-1, n_l * (m + 2)) \
                @ x.reshape(n_l * (m + 2), n_b)
            out[:, r_g[lo:hi]] += blk.reshape(hi - lo, n_o, n_b).transpose(
                1, 0, 2)
        return out

    def dense(self):
        """The matrices A with A @ sigma = Phi_l(s) at the flattened
        targets, one per mode in ells."""
        m = self.panels.order
        col_panel = np.repeat(np.arange(self.panels.n_panels), m)
        below = col_panel[None, :] < self.p[:, None]
        above = col_panel[None, :] > self.p[:, None]
        cols = self.p[:, None] * m + np.arange(m)
        rows = np.arange(len(self.p))[:, None]
        out = []
        for i in range(len(self.ells)):
            Iin = np.where(below, self.win[i], 0.0)
            Iout = np.where(above, self.wout[i], 0.0)
            Iin[rows, cols] += self.win_split[i]
            Iout[rows, cols] += self.wout_split[i]
            sc = self.scale[i][:, :, None]
            Iin *= sc[0]
            Iout *= sc[1]
            Iin += Iout
            Iin *= self.pref[i]
            out.append(Iin)
        return out
