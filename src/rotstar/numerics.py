"""Shared numerical kernels.

Composite Gauss-Legendre quadrature on graded panels, whose nodal values
double as a piecewise-polynomial representation (interpolation, and
differentiation and cumulative integration panel by panel from one pair of
reference matrices per order), axisymmetric spherical harmonics, and small
dense linear algebra helpers.
"""

import functools

import numpy as np

_GL_CACHE = {}


def gl_nodes(n):
    """Gauss-Legendre nodes/weights on [-1, 1], cached."""
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def legendre_table(lmax, mu):
    """P_0 .. P_lmax at mu, shape (lmax + 1,) + mu.shape, by the three-term
    recurrence (l + 1) P_{l+1} = (2l + 1) mu P_l - l P_{l-1}."""
    mu = np.asarray(mu, dtype=float)
    P = np.empty((lmax + 1,) + mu.shape)
    P[0] = 1.0
    if lmax > 0:
        P[1] = mu
    for l in range(1, lmax):
        P[l + 1] = ((2 * l + 1) * mu * P[l] - l * P[l - 1]) / (l + 1)
    return P


def Ytilde(ells, mu):
    """Rows Y_{l0}(mu), mu = cos(theta), for each l in ells: shape
    (len(ells),) + mu.shape, from one Legendre table."""
    mu = np.asarray(mu, dtype=float)
    ells = list(ells)
    norm = np.sqrt((2 * np.array(ells) + 1) / (4.0 * np.pi))
    return norm.reshape((-1,) + (1,) * mu.ndim) \
        * legendre_table(max(ells), mu)[ells]


def dY_dtheta(ells, theta):
    """Rows d/dtheta of Y_{l0}(theta) for each l in ells, shaped like Ytilde;
    zero at the poles by symmetry."""
    theta = np.asarray(theta, dtype=float)
    mu = np.cos(theta)
    s = np.sin(theta)
    out = np.zeros((len(ells),) + mu.shape)
    reg = np.abs(s) > 1e-12
    m = mu[reg]
    P = legendre_table(max(ells), m)
    for i, l in enumerate(ells):
        if l > 0:
            # (mu^2-1) P_l' = l (mu P_l - P_{l-1})
            dP = l * (m * P[l] - P[l - 1]) / (m * m - 1.0)
            out[i][reg] = -s[reg] * dP * np.sqrt((2 * l + 1) / (4.0 * np.pi))
    return out


def smallest_singular_value(A):
    """Smallest singular value of A."""
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return float(np.linalg.svd(A, compute_uv=False)[-1])


def _bary_weights(x):
    """Barycentric interpolation weights for nodes x."""
    m = len(x)
    w = np.ones(m)
    for j in range(m):
        d = x[j] - np.delete(x, j)
        w[j] = 1.0 / np.prod(d)
    return w


@functools.cache
def reference_matrices(order):
    """(D, I) on the order Gauss-Legendre nodes of [-1, 1]: D @ f is the
    nodal derivative and I @ f the nodal integral from -1 of the
    interpolant of the nodal values f; shared, so read-only."""
    xg, wg = gl_nodes(order)
    bw = _bary_weights(xg)
    gap = xg[:, None] - xg
    np.fill_diagonal(gap, 1.0)
    D = (bw / bw[:, None]) / gap
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    # Legendre coefficients of the Lagrange basis, by exact Gauss
    # quadrature: c[k, j] = (2k + 1)/2 w_j P_k(x_j)
    coef = (np.polynomial.legendre.legvander(xg, order - 1).T
            * wg * (np.arange(order) + 0.5)[:, None])
    anti = np.polynomial.legendre.legint(coef, lbnd=-1.0)
    I = np.polynomial.legendre.legval(xg, anti).T
    for M in (D, I):
        M.setflags(write=False)
    return D, I


class Panels:
    """Composite Gauss-Legendre quadrature on [a, b] with arbitrary panel edges.

    Doubles as a piecewise-polynomial representation: values at the panel
    nodes determine a degree-(order-1) interpolant per panel.
    """

    def __init__(self, edges, order):
        edges = np.asarray(edges, dtype=float)
        if np.any(np.diff(edges) <= 0):
            raise ValueError("panel edges must increase")
        self.edges = edges
        self.order = int(order)
        xg, wg = gl_nodes(self.order)
        a = edges[:-1][:, None]
        b = edges[1:][:, None]
        self.x = (0.5 * (b - a) * xg + 0.5 * (b + a)).ravel()
        self.w = (0.5 * (b - a) * wg * np.ones_like(xg)).ravel()
        self.n_panels = len(edges) - 1
        self._ref_bw = _bary_weights(xg)
        self._xg = xg
        # per panel a + b and b - a of the map to the reference [-1, 1]
        self._sum = edges[:-1] + edges[1:]
        self._width = edges[1:] - edges[:-1]

    @classmethod
    def graded(cls, b, n_nodes, order=8):
        """Panels on [0, b] with cosine-graded edges (clustered at both ends)."""
        npan = max(2, int(round(n_nodes / order)))
        u = np.linspace(0.0, 1.0, npan + 1)
        edges = b * 0.5 * (1.0 - np.cos(np.pi * u))
        return cls(edges, order)

    def __len__(self):
        return len(self.x)

    def panel_of(self, r):
        """Panel index containing each r (clamped to the boundary panels)."""
        idx = np.searchsorted(self.edges, r, side="right") - 1
        return np.clip(idx, 0, self.n_panels - 1)

    def local_rows(self, p, r):
        """Rows (..., order) interpolating the nodal values of panel p to
        the points r (p and r broadcast together)."""
        xr = (2.0 * r - self._sum[p]) / self._width[p]
        diff = xr[..., None] - self._xg
        exact = np.abs(diff) < 1e-14
        hit = exact.any()
        if hit:
            diff[exact] = 1.0
        rows = np.divide(self._ref_bw, diff, out=diff)
        rows /= rows.sum(axis=-1, keepdims=True)
        if hit:
            # a point on a node takes that node's value
            on_node = exact.any(axis=-1)
            rows[on_node] = exact[on_node]
        return rows

    def _rows_at(self, r):
        """Panel index and local interpolation rows of each point r; raises
        ValueError for points outside [edges[0], edges[-1]]."""
        if not np.all((r >= self.edges[0]) & (r <= self.edges[-1])):
            raise ValueError("interpolation point outside the panels "
                             f"[{self.edges[0]!r}, {self.edges[-1]!r}]")
        p = self.panel_of(r)
        return p, self.local_rows(p, r)

    def interp_rows(self, r):
        """Matrix T with (T @ fvals)[i] = interpolant of f at r[i]."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        p, rows = self._rows_at(r)
        T = np.zeros((len(r), len(self.x)))
        T[np.arange(len(r))[:, None],
          p[:, None] * self.order + np.arange(self.order)] = rows
        return T

    def _by_panel(self, f):
        """f as (..., n_panels, order) and the half widths of the panels."""
        f = np.asarray(f, dtype=float)
        return (f.reshape(f.shape[:-1] + (self.n_panels, self.order)),
                0.5 * np.diff(self.edges)[:, None])

    def derivative(self, f):
        """Nodal values of the derivative of the piecewise interpolant of
        the nodal values f, along the last axis, panel by panel."""
        fp, half = self._by_panel(f)
        D = reference_matrices(self.order)[0]
        return ((fp @ D.T) / half).reshape(np.shape(f))

    def cumulative(self, f):
        """Nodal values of the integral from edges[0] of the piecewise
        interpolant of the nodal values f, along the last axis: the integral
        over the node's own panel up to the node plus the quadrature of the
        earlier panels."""
        fp, half = self._by_panel(f)
        I = reference_matrices(self.order)[1]
        whole = np.einsum("...pk,pk->...p", fp,
                          self.w.reshape(fp.shape[-2:]))
        before = np.zeros(whole.shape)
        np.cumsum(whole[..., :-1], axis=-1, out=before[..., 1:])
        return (half * (fp @ I.T) + before[..., None]).reshape(np.shape(f))

    def interp(self, fvals, r):
        """Interpolant of the nodal values fvals at the points r (any
        shape), from the order nodal values of each point's own panel."""
        r = np.asarray(r, dtype=float)
        p, rows = self._rows_at(r)
        f = np.asarray(fvals, dtype=float).reshape(self.n_panels, self.order)
        return np.einsum("...k,...k->...", rows, f[p])
