"""Radial (non-rotating) equilibria.

The star with central value a solves Delta u + 4 pi rho(u) = 0, u(0) = a,
with rho = h^-1 of the star's density law: the EOS (Euler-Poisson) or the
ansatz's w(0, r, u) (Vlasov-Poisson), so solve_radial(ansatz, a) is the
kinetic star; its radius R is the first zero of u.  The star is the same
for both models: what tells them apart (the l = 0 mass term of the
linearized operator among it) is the rotating.Model's.  In x = r/R this is
the integral equation

    u(x) = a - 4 pi R^2 int_0^x t (1 - t/x) rho(u(t)) dt,    u(1) = 0,

solved by Newton for the nodal u on graded panels of [0, 1] and for R at
once.  The integral operator K is applied by two panel-wise cumulative
integrals and never formed.  It is zero above its diagonal panel blocks
and rank two below them, so each Newton system is solved panel by panel
with R eliminated by its Schur complement (_solve_bordered); no n x n
matrix is formed.  One more such solve differentiates the star along a:
M'(a) and du0/da (mass_derivative); mass_curve sweeps a for either law.

A star exposes its profiles as functions of r and samples no output grid:
the CLI picks the points of star.json.  The profiles of r and the density
law are numerics.pointwise: any shape, 0-d for a scalar, computed at 1-d
points.
"""

import numpy as np

from .errors import EOSError, SolverError, UnboundStarError
from .numerics import Panels, pointwise, reference_matrices

#: nodes and order of the panels on [0, R] that carry the stored profile
PROFILE_NODES, PROFILE_ORDER = 512, 16
#: the same panels on [0, 1], in x = r/R, where the radial system is solved
_UNIT = Panels.graded(1.0, PROFILE_NODES, PROFILE_ORDER)
#: step cap of the radial Newton and halvings per step of its line search
_NEWTON_ITERS, _HALVINGS = 50, 40
#: e with e @ f = 4 pi int_0^1 t (1 - t) f(t) dt, the R row of the system
_E = 4.0 * np.pi * _UNIT.w * _UNIT.x * (1.0 - _UNIT.x)
#: the 16 x 16 diagonal panel blocks of K, K_ij = x_j (1 - x_j/x_i)
#: int_{a_p}^{x_i} L_j for the Lagrange basis L_j of panel p
_XP = _UNIT.x.reshape(_UNIT.n_panels, 1, PROFILE_ORDER)
_K_BLOCKS = 0.5 * np.diff(_UNIT.edges)[:, None, None] \
    * reference_matrices(PROFILE_ORDER)[1] \
    * _XP * (1.0 - _XP / _XP.swapaxes(1, 2))
#: K below those blocks is K_ij = w_j x_j (1 - x_j/x_i): rank two, from
#: the sums of w x f and w x^2 f over the earlier panels
_W_BELOW = _UNIT.w * np.stack([_UNIT.x, _UNIT.x ** 2])


def _apply_K(f):
    """(K f)_i = int_0^x_i t (1 - t/x_i) f(t) dt on _UNIT, panel by panel."""
    x = _UNIT.x
    c = _UNIT.cumulative(np.stack([x * f, x * x * f]))
    return c[0] - c[1] / x


def _flux(R, q):
    """Nodal d/dr of c - 4 pi R^2 K q: -4 pi int_0^r s^2 q ds / r^2."""
    x2 = _UNIT.x ** 2
    return -4.0 * np.pi * R * _UNIT.cumulative(x2 * q) / x2


def _enclosed(R, q):
    """4 pi int_0^R r^2 q dr for nodal q on _UNIT."""
    return 4.0 * np.pi * R ** 3 * float(_UNIT.w @ (_UNIT.x ** 2 * q))


def _residual(a, u, R, rho_u):
    """(u - a + 4 pi R^2 K rho(u), a - R^2 e @ rho(u)) and K rho(u),
    rho_u = rho(u)."""
    k_rho = _apply_K(rho_u)
    return (np.append(u - a + 4.0 * np.pi * R * R * k_rho,
                      a - R * R * float(_E @ rho_u)), k_rho)


def _solve_bordered(R, rho_u, k_rho, d, rhs_u, rhs_R):
    """(du, dR) solving J [du; dR] = [rhs_u; rhs_R] for the Jacobian J of
    _residual in (u, R), d = rho'(u), k_rho = K rho(u), without forming J:

        J = [[I + 4 pi R^2 K diag(d),  8 pi R K rho_u],
             [-R^2 (e d)^T,            -2 R e @ rho_u]].

    K is zero above its diagonal panel blocks and rank two below them, so
    the u-block is solved by block forward substitution, one panel at a
    time, for rhs_u and the R column together, with the earlier panels
    entering by two running sums; dR then follows from its scalar Schur
    complement.  A singular diagonal block, a zero or non-finite Schur
    complement or a non-finite step raises SolverError."""
    m, x = _UNIT.order, _UNIT.x
    s = 4.0 * np.pi * R * R
    try:
        inv = np.linalg.inv(s * _K_BLOCKS * d.reshape(-1, 1, m) + np.eye(m))
    except np.linalg.LinAlgError as err:
        raise SolverError(f"radial Jacobian: singular panel block ({err})") \
            from err
    Y = np.column_stack([rhs_u, 8.0 * np.pi * R * k_rho])
    dY = np.empty_like(Y)
    sums = np.zeros((2, 2))   # (sum w x dY, sum w x^2 dY) of earlier panels
    for p in range(_UNIT.n_panels):
        sl = slice(p * m, (p + 1) * m)
        below = sums[0] - sums[1] / x[sl, None]
        Y[sl] = inv[p] @ (Y[sl] - s * below)
        dY[sl] = d[sl, None] * Y[sl]
        sums += _W_BELOW[:, sl] @ dY[sl]
    # du = y - z dR with (y, z) the columns of Y; the last row gives dR
    ey = R * R * (_E @ dY)
    schur = ey[1] - 2.0 * R * float(_E @ rho_u)
    if not (np.isfinite(schur) and schur != 0.0):
        raise SolverError(f"radial Jacobian: Schur complement of R is {schur}")
    dR = (rhs_R + ey[0]) / schur
    du = Y[:, 0] - Y[:, 1] * dR
    if not (np.isfinite(dR) and np.all(np.isfinite(du))):
        raise SolverError("radial Jacobian: the Newton step is not finite")
    return du, dR


def _solve_profile(eos, a, tol):
    """Nodal u and rho(u) on _UNIT and R for central value a, rho = eos.hinv:
    Newton with backtracking on _residual from u = a sinc(x),
    R = pi sqrt(a / (4 pi rho(a))), exact for a linear rho (gamma = 2),
    until |residual|_inf <= tol a.  Raises UnboundStarError when the source
    4 pi rho(a) is not positive and finite, when R leaves
    (0, 1e3 sqrt(6 a / (4 pi rho(a)))), a thousand curvature scales, or
    after _NEWTON_ITERS steps, and SolverError when no halving lowers |F|
    or a Newton system is not finite.
    """
    if not a > 0:
        raise EOSError("central value a must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    s_a = 4.0 * np.pi * float(eos.hinv(a))
    if not 0.0 < s_a < np.inf:
        raise UnboundStarError(f"source({a}) = {s_a} is not positive and "
                               "finite")
    r_max = 1e3 * np.sqrt(6.0 * a / s_a)
    n = len(_UNIT)
    u, R = a * np.sinc(_UNIT.x), np.pi * np.sqrt(a / s_a)
    rho_u = eos.hinv(u)
    F, k_rho = _residual(a, u, R, rho_u)
    for _ in range(_NEWTON_ITERS):
        norm = np.max(np.abs(F))
        if norm <= tol * a:
            return u, rho_u, R
        du, dR = _solve_bordered(R, rho_u, k_rho, eos.dhinv(u), -F[:n],
                                 -F[n])
        lam = 1.0
        for _ in range(_HALVINGS):
            R_t = R + lam * dR
            if R_t > 0:
                u_t = u + lam * du
                rho_t = eos.hinv(u_t)
                F_t, k_t = _residual(a, u_t, R_t, rho_t)
                if np.max(np.abs(F_t)) < norm:
                    break
            lam *= 0.5
        else:
            raise SolverError(f"radial Newton stalls at |F| = {norm:.3e} "
                              f"(tolerance {tol * a:.3e})")
        u, R, rho_u, F, k_rho = u_t, R_t, rho_t, F_t, k_t
        if not R < r_max:
            raise UnboundStarError(f"radius {R:.6g} left (0, {r_max:.6g}): "
                                   "no zero of u within reach")
    raise UnboundStarError(f"radial Newton did not converge in "
                           f"{_NEWTON_ITERS} steps (R = {R:.6g})")


class RadialStar:
    """A radial equilibrium: u0 and u0' as nodal values on graded panels of
    [0, R], their interpolants, and the profiles derived from them.  eos is
    the density law: h^-1 = eos.hinv, (h^-1)' = eos.dhinv, an
    EquationOfState or a vlasov.VlasovAnsatz."""

    def __init__(self, eos, a, tol=1e-12):
        self.eos = eos
        self.a = float(a)
        u, rho, self.R = _solve_profile(eos, self.a, tol)
        self.mass = _enclosed(self.R, rho)
        self.panels = Panels.graded(self.R, PROFILE_NODES, PROFILE_ORDER)
        self._u0_nodes, self._u0p_nodes = u, _flux(self.R, rho)

    # profile evaluation, r clamped to [0, R] --------------------------------

    @pointwise
    def u0_of(self, r):
        return np.maximum(
            self.panels.interp(self._u0_nodes, np.clip(r, 0.0, self.R)), 0.0)

    @pointwise
    def u0p_of(self, r):
        return self.panels.interp(self._u0p_nodes, np.clip(r, 0.0, self.R))

    def rho0_of(self, r):
        return self.eos.hinv(self.u0_of(r))

    @pointwise
    def rho0p_of(self, r):
        """rho0'(r) = (h^-1)'(u0) u0'."""
        return self.eos.dhinv(self.u0_of(r)) * self.u0p_of(r)


def solve_radial(eos, a, tol=1e-12):
    """The radial equilibrium of the density law eos (an EquationOfState
    or a vlasov.VlasovAnsatz) with central value a; tol bounds the
    sup-norm residual of the radial system relative to a."""
    return RadialStar(eos, a, tol=tol)


def variation(star, c, sigma):
    """d/dp at p = 0 along the stars of
    u(r) = a + c p - 4 pi (1 + sigma p) int_0^r t (1 - t/r) rho(u) dt
    (c = 1, sigma = 0: along a; c = 0, sigma = 1: a scaled source).

    One solve of the radial Newton system (_solve_bordered) gives nodal
    w = du/dp at fixed x = r/R and R_p = dR/dp.  w vanishes at the
    surface, where rho'(u0) may be singular, so rho'(u0) w integrates
    smoothly.  Returns v = du/dp at fixed r, v = w - r u0' R_p/R, as nodal
    values on star.panels, and m = dM/dp + sigma M = -R^2 v'(R).  A system
    that is not finite raises SolverError."""
    R, u, up = star.R, star._u0_nodes, star._u0p_nodes
    x = _UNIT.x
    rho, d = star.eos.hinv(u), star.eos.dhinv(u)
    k_rho = _apply_K(rho)
    w, R_p = _solve_bordered(R, rho, k_rho, d,
                             c - 4.0 * np.pi * sigma * R * R * k_rho,
                             sigma * R * R * float(_E @ rho) - c)
    v = w - x * up * R_p
    m = (3.0 * R_p / R + sigma) * star.mass + _enclosed(R, d * w)
    return v, m


def mass_derivative(star):
    """(M'(a), v_a) with v_a = du0/da at fixed r (v_a(0) = 1) as nodal
    values on star.panels (see variation)."""
    v, mp = variation(star, 1.0, 0.0)
    return mp, v


def mass_curve(eos, a_range, n, tol=1e-12):
    """n log-spaced samples over a_range = (a_lo, a_hi) of the stars of the
    density law eos (as in solve_radial): an (n, 4) array with rows
    (a, R, M, M')."""
    a_lo, a_hi = a_range
    if not (0 < a_lo < a_hi) or n < 2:
        raise EOSError("need 0 < a_lo < a_hi and n >= 2")
    avals = np.logspace(np.log10(a_lo), np.log10(a_hi), n)

    samples = []
    for a in avals:
        star = solve_radial(eos, a, tol=tol)
        mp = mass_derivative(star)[0]
        samples.append((a, star.R, star.mass, mp))
    return np.array(samples)
