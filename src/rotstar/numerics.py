"""Shared numerical kernels.

Adaptive ODE integration with event location, composite Gauss-Legendre
quadrature on graded panels, axisymmetric spherical harmonics, and small
dense linear algebra helpers.
"""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import eval_legendre

from .errors import NoEventError, StiffnessError

_GL_CACHE = {}


def gl_nodes(n):
    """Gauss-Legendre nodes/weights on [-1, 1], cached."""
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def Ytilde(l, mu):
    """Y_{l0} as a function of mu = cos(theta)."""
    return np.sqrt((2 * l + 1) / (4.0 * np.pi)) * eval_legendre(l, mu)


def dY_dtheta(l, theta):
    """d/dtheta of Y_{l0}(theta); zero at the poles by symmetry."""
    theta = np.asarray(theta, dtype=float)
    mu = np.cos(theta)
    s = np.sin(theta)
    out = np.zeros_like(mu)
    reg = np.abs(s) > 1e-12
    if l > 0:
        m = mu[reg]
        # (mu^2-1) P_l' = l (mu P_l - P_{l-1})
        dP = l * (m * eval_legendre(l, m) - eval_legendre(l - 1, m)) / (m * m - 1.0)
        out[reg] = -s[reg] * dP * np.sqrt((2 * l + 1) / (4.0 * np.pi))
    return out


def integrate_ivp(rhs, y0, r0, stop=None, tol=1e-12, r_max=None, args=(),
                  require_event=False, method="RK45"):
    """Integrate y' = rhs(r, y) from r0 with dense output.

    Returns scipy's solve_ivp result (sampled .t and .y, dense output
    .sol) with one more attribute, event_r.  stop is an optional scalar
    event function of (r, y); integration terminates at its first
    decreasing zero, whose abscissa event_r is polished on the dense output
    to within tol (None without stop).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if r_max is None:
        r_max = r0 + 1.0
    events = None
    if stop is not None:
        def ev(r, y, *a):
            return stop(r, y)
        ev.terminal = True
        ev.direction = -1
        events = [ev]
    sol = solve_ivp(rhs, (r0, r_max), np.asarray(y0, dtype=float),
                    method=method, rtol=tol, atol=tol * 1e-2,
                    dense_output=True, events=events, args=args or None)
    if sol.status == -1:
        raise StiffnessError(f"integration failed: {sol.message}")
    event_r = None
    if stop is not None:
        if sol.status == 1 and len(sol.t_events[0]) > 0:
            event_r = float(sol.t_events[0][0])
            # polish by bisection on the dense output
            w = max(tol * max(abs(event_r), 1.0), 1e3 * np.finfo(float).eps * abs(event_r))
            lo, hi = event_r - w, min(event_r + w, sol.t[-1])
            flo = stop(lo, sol.sol(lo))
            fhi = stop(hi, sol.sol(hi))
            if flo * fhi < 0:
                event_r = brentq(lambda r: stop(r, sol.sol(r)), lo, hi,
                                 xtol=tol * max(abs(event_r), 1.0))
        elif require_event:
            raise NoEventError(f"event did not trigger before r_max={r_max}")
    sol.event_r = event_r
    return sol


def smallest_singular_value(A):
    """Smallest singular value of A."""
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return float(np.linalg.svd(A, compute_uv=False)[-1])


def _bary_diff_matrix(x, bw):
    """Differentiation matrix on polynomial nodes x with barycentric weights bw."""
    m = len(x)
    D = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                D[i, j] = (bw[j] / bw[i]) / (x[i] - x[j])
        D[i, i] = -np.sum(D[i])
    return D


def _bary_weights(x):
    """Barycentric interpolation weights for nodes x."""
    m = len(x)
    w = np.ones(m)
    for j in range(m):
        d = x[j] - np.delete(x, j)
        w[j] = 1.0 / np.prod(d)
    return w


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
        self._diff = None

    @classmethod
    def graded(cls, b, n_nodes, order=8, a=0.0):
        """Panels on [a, b] with cosine-graded edges (clustered at both ends)."""
        npan = max(2, int(round(n_nodes / order)))
        u = np.linspace(0.0, 1.0, npan + 1)
        edges = a + (b - a) * 0.5 * (1.0 - np.cos(np.pi * u))
        return cls(edges, order)

    def __len__(self):
        return len(self.x)

    def integrate(self, fvals):
        return float(np.dot(self.w, fvals))

    def panel_of(self, r):
        """Panel index containing each r (clamped to the boundary panels)."""
        idx = np.searchsorted(self.edges, r, side="right") - 1
        return np.clip(idx, 0, self.n_panels - 1)

    def local_rows(self, p, r):
        """Rows (..., order) interpolating the nodal values of panel p to
        the points r (p and r broadcast together)."""
        a, b = self.edges[p], self.edges[p + 1]
        # map to reference [-1, 1]
        xr = (2.0 * r - (a + b)) / (b - a)
        diff = xr[..., None] - self._xg
        exact = np.abs(diff) < 1e-14
        diff = np.where(exact, 1.0, diff)
        terms = self._ref_bw / diff
        rows = terms / terms.sum(axis=-1, keepdims=True)
        hit = exact.any(axis=-1)
        rows[hit] = exact[hit]
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

    def diff_matrix(self):
        """Block-diagonal matrix D with D @ fvals = nodal values of the
        derivative of the piecewise interpolant (built once per Panels)."""
        if self._diff is None:
            Dref = _bary_diff_matrix(self._xg, self._ref_bw)
            m = self.order
            D = np.zeros((len(self.x), len(self.x)))
            for p in range(self.n_panels):
                scale = 2.0 / (self.edges[p + 1] - self.edges[p])
                D[p * m:(p + 1) * m, p * m:(p + 1) * m] = scale * Dref
            self._diff = D
        return self._diff

    def interp(self, fvals, r):
        """Interpolant of the nodal values fvals at the points r (any
        shape), from the order nodal values of each point's own panel."""
        r = np.asarray(r, dtype=float)
        p, rows = self._rows_at(r)
        f = np.asarray(fvals, dtype=float).reshape(self.n_panels, self.order)
        return np.einsum("...k,...k->...", rows, f[p])
