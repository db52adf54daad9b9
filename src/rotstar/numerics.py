"""Shared numerical kernels.

Composite Gauss-Legendre quadrature on graded panels, whose nodal values
double as a piecewise-polynomial representation (interpolation, and
differentiation and cumulative integration panel by panel from one pair of
reference matrices per order), axisymmetric spherical harmonics, and the
smallest singular value of a dense matrix, also in the L2(B_R) norm of the
nodal profiles of an operator block on its Panels (weighted_sigma_min).

pointwise is the one rule for scalar versus array values, for the EOS and
VP laws, the radial profiles and the columns built from them: a scalar
gives a 0-d array with the bits of the same entry in an array, since it is
computed as a 1-d array (numpy's 0-d arithmetic can round unlike its array
loops).

smallest_singular_value reads the smallest eigenvalue of the Gram matrix
A^T A when it stands clear of the eigenvalue rounding error (lam[0] >=
1e-10 lam[-1]); below that, where the Gram value is lost, it power-iterates
on inv(A)^T inv(A) until the eigen-residual test passes, which takes 2-4
steps on the degenerate and translation mode blocks; only an iteration that
has not converged falls back to the full SVD.  Asked to try the inverse
iteration first, it runs the same three methods in the order inverse,
Gram, SVD.  weighted_sigma_min_ladder asks for that order on the blocks of
a refinement ladder whose previous block had its Gram value lost (sigma_min
below sqrt(1e-10) times its largest entry, a lower bound on sigma_max), so
a degenerate mode pays no Gram eigensolve after its first size; a block on
its own keeps the Gram-first order.
"""

import functools

import numpy as np


def pointwise(method):
    """Decorate method(obj, *args): run it at the raveled 1-d points of the
    broadcast args and return an array of their shape, 0-d for scalars.
    One argument skips np.broadcast_arrays, which costs about 2.4 us a call
    more: 286 calls, 4% of a two-sample power-sum mass-curve, most of them
    h and dp in the loop of EquationOfState._hinv_root."""
    @functools.wraps(method)
    def wrapped(obj, *args):
        if len(args) == 1:
            x = np.asarray(args[0], dtype=float)
            return method(obj, x.ravel()).reshape(x.shape)
        args = np.broadcast_arrays(*[np.asarray(a, float) for a in args])
        return method(obj, *[a.ravel() for a in args]).reshape(args[0].shape)
    return wrapped


@functools.cache
def gl_nodes(n):
    """Gauss-Legendre nodes/weights on [-1, 1], cached."""
    return np.polynomial.legendre.leggauss(n)


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


#: smallest_singular_value trusts the Gram spectrum when lam[0] >= _GRAM_TAU
#: lam[-1].  The computed eigenvalues of the rounded A^T A are off by about
#: n eps lam[-1] in the worst case (Weyl's bound for a backward-stable
#: eigvalsh, Golub & Van Loan 8.1), eps lam[-1] typically, so a lam[0] above
#: this floor keeps a relative error of at most n eps/TAU (1e-3 at n = 512)
#: and typically eps/TAU = 2e-6.  The mode matrices, whose small singular
#: values sit on their dominant diagonal, do far better: below 1e-10 against
#: the SVD (test_sigma_min_matches_svd).  Below the floor the Gram value is
#: lost: on the l = 1 translation blocks, with lam[0] < eps lam[-1], it is
#: off by orders of magnitude.
_GRAM_TAU = 1e-10
#: inverse-iteration steps before the SVD fallback, and the relative
#: eigen-residual that ends the iteration
_INVERSE_STEPS, _INVERSE_RTOL = 8, 1e-7


def _inverse_iteration(A):
    """1/sqrt of the largest eigenvalue of C = inv(A)^T inv(A) by power
    iteration from a fixed start, or None if it has not converged.

    The Rayleigh quotient nu = x^T C x of a unit x lies within ||C x - nu x||
    of an eigenvalue, and within ||C x - nu x||^2/gap of it once x has
    found that eigenvalue's vector; the test ||C x - nu x|| <= _INVERSE_RTOL
    nu therefore leaves nu about _INVERSE_RTOL^2 nu off when sigma_2 is a
    few times sigma_min.  Each step divides the residual by about
    (sigma_2/sigma_min)^2."""
    try:
        Ai = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(Ai)):
        return None
    x = np.random.default_rng(0).standard_normal(len(A))
    x /= np.linalg.norm(x)
    for _ in range(_INVERSE_STEPS):
        y = Ai @ x
        z = Ai.T @ y
        nu = y @ y
        if not 0.0 < nu < np.inf:
            return None
        if np.linalg.norm(z - nu * x) <= _INVERSE_RTOL * nu:
            return float(1.0 / np.sqrt(nu))
        x = z / np.linalg.norm(z)
    return None


def _gram(A):
    """sqrt(lam[0]) of the Gram eigenvalues lam = eigvalsh(A^T A), or None
    where lam[0] < _GRAM_TAU lam[-1] and that value is lost."""
    lam = np.linalg.eigvalsh(A.T @ A)
    if lam[0] >= _GRAM_TAU * lam[-1]:
        return float(np.sqrt(lam[0]))
    return None


def smallest_singular_value(A, inverse_first=False):
    """Smallest singular value of A, without a full SVD where it can.

    From the Gram eigenvalues lam = eigvalsh(A^T A) when lam[0] >=
    _GRAM_TAU lam[-1]; otherwise by inverse iteration on inv(A)^T inv(A),
    which converges in a few steps when sigma_min sits well apart from
    sigma_2 (the degenerate and translation mode blocks); and by the full
    SVD when that iteration has not converged (or A is not square).  With
    inverse_first the inverse iteration runs first, then the Gram
    eigenvalues, then the SVD; either order gives the same bits wherever
    both end in the same method, such as the iteration on a block whose
    Gram value is lost (weighted_sigma_min_ladder asks for this order)."""
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    methods = ((_inverse_iteration, _gram) if inverse_first
               else (_gram, _inverse_iteration))
    for method in methods:
        sig = method(A)
        if sig is not None:
            return sig
    return float(np.linalg.svd(A, compute_uv=False)[-1])


def _weighted(panels, block):
    """D block D^-1 with D = diag(sqrt(w) r): block in the L2(B_R) norm
    ||f||^2 = sum w r^2 f^2 of the nodal profiles at panels.x."""
    d = np.sqrt(panels.w) * panels.x
    return block * (d[:, None] / d[None, :])


def weighted_sigma_min(panels, block):
    """sigma_min of a nodal block acting on radial profiles at panels.x,
    measured in the L2(B_R) norm of the profiles (the proxy for the
    paper's X-norm): the smallest singular value of _weighted(panels,
    block)."""
    return smallest_singular_value(_weighted(panels, block))


def weighted_sigma_min_ladder(blocks):
    """weighted_sigma_min of each (panels, block) of one mode's refinement
    ladder, in order, as a generator.  Each block after a block whose Gram
    value was lost tries the inverse iteration first: that block's
    sigma_min lay below sqrt(_GRAM_TAU) times its largest entry, and the
    largest entry is at most sigma_max, so lam[0] < _GRAM_TAU lam[-1]."""
    inverse_first = False
    for panels, block in blocks:
        A = _weighted(panels, block)
        sig = smallest_singular_value(A, inverse_first)
        inverse_first = sig < np.sqrt(_GRAM_TAU) * np.max(np.abs(A))
        del block, A    # not held while the caller builds the next block
        yield sig


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
        """Panels on [0, b] with cosine-graded edges (clustered at both
        ends); n_nodes must fill at least two whole panels of the order."""
        if n_nodes % order or n_nodes < 2 * order:
            raise ValueError(f"{n_nodes} nodes do not fill two or more "
                             f"whole panels of order {order}")
        u = np.linspace(0.0, 1.0, n_nodes // order + 1)
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
                             f"{[float(e) for e in self.edges[[0, -1]]]}")
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
