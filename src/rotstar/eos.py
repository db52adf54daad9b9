"""Equations of state: pressure laws, enthalpy, inverse enthalpy, and the
mass-condition diagnostics.

The specific enthalpy is h(rho) = int_0^rho p'(s)/s ds, so h'(s) = p'(s)/s
and k(s) = h(s) - s h'(s) = h(s) - p'(s).
"""

import warnings

import numpy as np
from scipy.integrate import quad

from .errors import EOSError, NonIntegrableEnthalpyError

_HINV_ITERS = 100  # step cap of the generic inverse-enthalpy Newton


class EquationOfState:
    """Barotropic pressure law with derived enthalpy machinery.

    Subclasses provide p, dp and h, and may override hinv/dhinv with closed
    forms; otherwise hinv is a log-space Newton on h that meets
    |h(s) - u| <= 1e-13 u or raises EOSError.  Every method returns an
    ndarray of the input's shape, 0-d for a scalar.
    """

    gamma = None        # small-s exponent of assum 3
    gamma_star = None   # large-s exponent of assum 4

    def p(self, s):
        raise NotImplementedError

    def dp(self, s):
        raise NotImplementedError

    def h(self, rho):
        raise NotImplementedError

    def dh(self, s):
        """h'(s) = p'(s)/s."""
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        pos = s > 0
        out[pos] = self.dp(s[pos]) / s[pos]
        return out

    def k(self, s):
        """k(s) = h(s) - s h'(s) = h(s) - p'(s)."""
        return np.asarray(self.h(s) - self.dp(s))

    def hinv(self, u):
        """Inverse enthalpy h^-1(u), zero at u <= 0, for every entry at once.

        Newton on log h(e^y) = log u from s = 1: s <- s (h/u)^(-h/p'), exact
        in one step for a power law.  A step that leaves the bracket [lo, hi]
        (from [0, inf]) or is not finite bisects instead: it doubles s while
        hi = inf, else takes sqrt(lo) sqrt(hi), or hi/2 while lo = 0.  Stops
        at |h(s) - u| <= 1e-13 u or when no double lies inside the bracket;
        raises EOSError after _HINV_ITERS steps, e.g. when h stays below u
        or h^-1(u) underflows.
        """
        return self._hinv_root(u)[0]

    def dhinv(self, u):
        """(h^-1)'(u) = s/p'(s) at s = h^-1(u); zero at u <= 0."""
        return self._hinv_root(u)[1]

    def _hinv_root(self, u):
        u = np.asarray(u, dtype=float)
        pos = u > 0
        t = np.where(pos, u, 1.0)
        x, lo, hi = np.ones_like(t), np.zeros_like(t), np.full_like(t, np.inf)
        with np.errstate(all="ignore"):
            for _ in range(_HINV_ITERS):
                hx, dpx = self.h(x), self.dp(x)
                r = hx / t
                lo = np.where(r < 1.0, x, lo)
                hi = np.where(r > 1.0, x, hi)
                done = ~pos | (np.abs(r - 1.0) <= 1e-13) | (hi <= np.nextafter(lo, hi))
                if done.all():
                    return np.where(pos, x, 0.0), np.where(pos, x / dpx, 0.0)
                xn = x * r ** (-hx / dpx)
                bad = ~((xn > lo) & (xn < hi))
                if bad.any():
                    mid = np.where(lo > 0, np.sqrt(lo) * np.sqrt(hi), 0.5 * hi)
                    xn = np.where(bad, np.where(np.isinf(hi), 2.0 * x, mid), xn)
                x = np.where(done, x, xn)
        i = np.argmin(done)  # first unconverged entry
        why = "h stays below u" if np.isinf(hi.flat[i]) else "no convergence"
        raise EOSError(f"h^-1({t.flat[i]:.6g}): {why} after {_HINV_ITERS} steps")


class PowerLawEOS(EquationOfState):
    """p(s) = s^gamma with closed-form enthalpy."""

    def __init__(self, gamma):
        if gamma <= 1.0:
            raise EOSError(f"power law needs gamma > 1, got {gamma}")
        if gamma > 2.0:
            raise EOSError(f"power law needs gamma <= 2, got {gamma}")
        if gamma == 2.0:
            warnings.warn("gamma=2 is on the boundary of the admissible range; "
                          "accepted for oracle testing", stacklevel=2)
        self.gamma = float(gamma)
        self.gamma_star = float(gamma)
        self._c = gamma / (gamma - 1.0)

    def p(self, s):
        return np.asarray(np.asarray(s, dtype=float) ** self.gamma)

    def dp(self, s):
        return np.asarray(self.gamma
                          * np.asarray(s, dtype=float) ** (self.gamma - 1.0))

    def h(self, rho):
        return np.asarray(self._c
                          * np.asarray(rho, dtype=float) ** (self.gamma - 1.0))

    def hinv(self, u):
        u = np.asarray(u, dtype=float)
        g = self.gamma
        return np.where(u > 0, (np.maximum(u, 0.0) / self._c) ** (1.0 / (g - 1.0)), 0.0)

    def dhinv(self, u):
        u = np.asarray(u, dtype=float)
        g = self.gamma
        c = (1.0 / self._c) ** (1.0 / (g - 1.0)) / (g - 1.0)
        with np.errstate(invalid="ignore"):
            out = np.where(u > 0, c * np.maximum(u, 1e-300) ** ((2.0 - g) / (g - 1.0)), 0.0)
        return out


class PowerSumEOS(EquationOfState):
    """p(s) = sum_i c_i s^{gamma_i}, c_i > 0, 1 < gamma_i <= 2."""

    def __init__(self, terms):
        terms = [(float(c), float(g)) for c, g in terms]
        if not terms:
            raise EOSError("need at least one term")
        for c, g in terms:
            if c <= 0:
                raise EOSError("coefficients must be positive")
            if g <= 1.0 or g > 2.0:
                raise EOSError(f"exponent {g} outside (1, 2]")
        self.terms = terms
        self.gamma = min(g for _, g in terms)
        self.gamma_star = max(g for _, g in terms)

    def p(self, s):
        s = np.asarray(s, dtype=float)
        return np.asarray(sum(c * s ** g for c, g in self.terms))

    def dp(self, s):
        s = np.asarray(s, dtype=float)
        return np.asarray(sum(c * g * s ** (g - 1.0) for c, g in self.terms))

    def h(self, rho):
        rho = np.asarray(rho, dtype=float)
        return np.asarray(sum(c * g / (g - 1.0) * rho ** (g - 1.0)
                              for c, g in self.terms))


class CallableEOS(EquationOfState):
    """Arbitrary pressure law given as callables p, p'.

    The enthalpy is adaptive quadrature of p'(s)/s on [eps, rho] plus a
    small-s power-law tail with the measured exponent.
    """

    def __init__(self, p, dp, gamma=None, gamma_star=None, eps=1e-8):
        self._p = p
        self._dp = dp
        self.gamma = gamma
        self.gamma_star = gamma_star
        self._eps = eps
        e = _log_slope(dp, eps, 10 * eps)
        if e < 1e-6:
            raise NonIntegrableEnthalpyError(
                f"p'(s)/s not integrable at 0 (measured exponent {e:.3g})")
        self._tail_exp = e
        self._h_eps = float(dp(eps)) / e  # int_0^eps C s^{e-1} ds = p'(eps)/e

    def p(self, s):
        return np.asarray(self._p(np.asarray(s, dtype=float)))

    def dp(self, s):
        return np.asarray(self._dp(np.asarray(s, dtype=float)))

    def h(self, rho):
        rho = np.asarray(rho, dtype=float)
        out = np.zeros_like(rho)
        for i, r in np.ndenumerate(rho):
            if r <= self._eps:
                out[i] = self._h_eps * (r / self._eps) ** self._tail_exp
            else:
                val, _ = quad(lambda s: self._dp(s) / s, self._eps, r,
                              epsabs=1e-13, epsrel=1e-12, limit=200)
                out[i] = self._h_eps + val
        return out


def power_law(gamma):
    """EquationOfState for p(s) = s^gamma."""
    return PowerLawEOS(gamma)


def power_sum(terms):
    """EquationOfState for p(s) = sum c_i s^{gamma_i}."""
    return PowerSumEOS(terms)


def _log_slope(f, s0, s1):
    return float(np.log(f(s1) / f(s0)) / np.log(s1 / s0))


class RotationProfile:
    """Angular velocity squared omega^2(r) and its cumulative J(r) = int_0^r w^2 s ds."""

    def __init__(self, omega_sq, n_quad=64):
        self.omega_sq = omega_sq
        self._n = n_quad

    def J(self, r):
        from .numerics import gl_nodes
        r = np.asarray(r, dtype=float)
        flat = r.ravel()
        x, w = gl_nodes(self._n)
        # map [-1,1] -> [0, r] per entry
        t = 0.5 * flat[:, None] * (x[None, :] + 1.0)
        vals = self.omega_sq(t) * t
        out = 0.5 * flat * np.einsum("ij,j->i", vals, w)
        return out.reshape(r.shape)


def constant_rotation(omega=1.0):
    w2 = float(omega) ** 2
    return RotationProfile(lambda r: w2 * np.ones_like(np.asarray(r, dtype=float)))


class AssumptionReport:
    """Outcome of validate_assumptions: measured exponents and pass flags."""

    def __init__(self, monotone, small_exp, large_exp, gamma, gamma_star):
        self.monotone = monotone
        self.small_exp = small_exp
        self.large_exp = large_exp
        self.gamma_measured = 1.0 + small_exp
        self.gamma_star_measured = 1.0 + large_exp
        self.pass_positivity = monotone
        # assum 3: gamma in (1, 2)  <=>  small-s exponent of p' in (0, 1)
        self.pass_small = 0.0 < small_exp < 1.0
        # assum 4: gamma* in (6/5, 2)
        self.pass_large = 0.2 < large_exp < 1.0
        self.drift_small = abs(small_exp - (gamma - 1.0)) if gamma else None
        self.drift_large = abs(large_exp - (gamma_star - 1.0)) if gamma_star else None
        self.passed = self.pass_positivity and self.pass_small and self.pass_large

    def as_dict(self):
        return {
            "monotone": bool(self.monotone),
            "small_exp": self.small_exp,
            "large_exp": self.large_exp,
            "pass_positivity": bool(self.pass_positivity),
            "pass_small": bool(self.pass_small),
            "pass_large": bool(self.pass_large),
            "passed": bool(self.passed),
        }


def validate_assumptions(eos, n_samples=160):
    """Sample [1e-8, 1e8] logarithmically and grade the pressure assumptions."""
    s = np.logspace(-8, 8, n_samples)
    dp = np.asarray(eos.dp(s), dtype=float)
    monotone = bool(np.all(dp > 0))
    small_exp = float(np.log(dp[2] / dp[0]) / np.log(s[2] / s[0]))
    large_exp = float(np.log(dp[-1] / dp[-3]) / np.log(s[-1] / s[-3]))
    return AssumptionReport(monotone, small_exp, large_exp, eos.gamma, eos.gamma_star)


class MassConditionReport:
    """Margins for the sufficient mass condition p' < h <= 2p' and the
    equivalent g-function conditions."""

    def __init__(self, left_margin, right_margin, g1, g2, g3):
        self.left_margin = left_margin      # min (h - p')/h, want > 0
        self.right_margin = right_margin    # min (2p' - h)/h, want >= 0
        self.g1_margin = g1                 # max (g - w g_w), want < 0
        self.g2_margin = g2                 # max g_r, want <= 0
        self.g3_margin = g3                 # min (r g_r + 3g - w g_w), want >= 0
        tol = 1e-12
        self.passed = (left_margin > 0 and right_margin >= -tol
                       and g1 < 0 and g2 <= tol and g3 >= -tol)

    def as_dict(self):
        return {
            "left_margin": self.left_margin,
            "right_margin": self.right_margin,
            "g1_margin": self.g1_margin,
            "g2_margin": self.g2_margin,
            "g3_margin": self.g3_margin,
            "passed": bool(self.passed),
        }


def check_mass_condition_b(eos, s_grid=None, r_grid=None):
    """Pointwise check of p' < h <= 2p' and the three g-conditions for
    g(w, r) = 4 pi r h^-1(w/r)."""
    if s_grid is None:
        s_grid = np.logspace(-6, 3, 200)
    s = np.asarray(s_grid, dtype=float)
    h = np.asarray(eos.h(s), dtype=float)
    dp = np.asarray(eos.dp(s), dtype=float)
    left = float(np.min((h - dp) / h))
    right = float(np.min((2 * dp - h) / h))

    if r_grid is None:
        r_grid = np.linspace(0.05, 2.0, 40)
    r = np.asarray(r_grid, dtype=float)[:, None]
    w = (s[None, :] * r)  # so that w/r sweeps s_grid at every r
    sr = w / r
    hinv = np.asarray(eos.hinv(sr.ravel()), dtype=float).reshape(sr.shape)
    dhinv = np.asarray(eos.dhinv(sr.ravel()), dtype=float).reshape(sr.shape)
    g = 4 * np.pi * r * hinv
    g_w = 4 * np.pi * dhinv
    g_r = 4 * np.pi * (hinv - sr * dhinv)
    # margins normalized pointwise by g > 0 so the grading is scale-free
    pos = g > 0
    g1 = float(np.max((g - w * g_w)[pos] / g[pos]))
    g2 = float(np.max((r * g_r)[pos] / g[pos]))
    g3 = float(np.min((r * g_r + 3 * g - w * g_w)[pos] / g[pos]))
    return MassConditionReport(left, right, g1, g2, g3)
