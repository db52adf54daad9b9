"""Equations of state: pressure laws, enthalpy, inverse enthalpy, and the
mass-condition diagnostics, which return plain dicts of margins and pass
flags (the CLI writes them to eos_check.json).

The specific enthalpy is h(rho) = int_0^rho p'(s)/s ds, so h'(s) = p'(s)/s.
One class, EquationOfState, holds every law p = sum_i c_i s^{gamma_i}: a
one-term law (power_law, or power_sum of one term) carries its gamma and
inverts h in closed form; a sum of several has gamma None and inverts h by
a bracketed Newton.
Every law method, and RotationProfile.J, is numerics.pointwise: it takes
any shape, 0-d for a scalar, and computes at 1-d points.
"""

import warnings

import numpy as np

from .errors import EOSError
from .numerics import gl_nodes, pointwise

_HINV_ITERS = 100  # step cap of the generic inverse-enthalpy Newton
_J_NODES = 64      # Gauss-Legendre nodes of RotationProfile.J
_S_MIN = 5e-324    # smallest positive double: lo = 0 in the h^-1 bisection


class EquationOfState:
    """The pressure law p(s) = sum_i c_i s^{gamma_i}, c_i > 0,
    1 < gamma_i <= 2, with its enthalpy and inverse enthalpy.

    A one-term law c s^gamma carries its exponent as gamma and inverts h in
    closed form; a sum of several has gamma = None and inverts h by a
    log-space Newton that meets |h(s) - u| <= 1e-13 u or raises EOSError.
    Every method is numerics.pointwise: it returns an ndarray of the
    input's shape, 0-d for a scalar, with the bits of the same entry in an
    array.
    """

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
        self.gamma = terms[0][1] if len(terms) == 1 else None
        if self.gamma is not None:
            # h = k s^(gamma - 1): h^-1 = (u/k)^e, (h^-1)' = d u^(e - 1)
            c, g = terms[0]
            self._k, self._e = c * g / (g - 1.0), 1.0 / (g - 1.0)
            self._d = np.float64(1.0 / self._k) ** self._e / (g - 1.0)

    @pointwise
    def p(self, s):
        return sum(c * s ** g for c, g in self.terms)

    @pointwise
    def dp(self, s):
        return sum(c * g * s ** (g - 1.0) for c, g in self.terms)

    @pointwise
    def h(self, rho):
        return sum(c * g / (g - 1.0) * rho ** (g - 1.0) for c, g in self.terms)

    @pointwise
    def dh(self, s):
        """h'(s) = p'(s)/s."""
        out = np.zeros_like(s)
        pos = s > 0
        out[pos] = self.dp(s[pos]) / s[pos]
        return out

    @pointwise
    def hinv(self, u):
        """Inverse enthalpy h^-1(u), zero at u <= 0, for every entry at once:
        (u/k)^(1/(gamma - 1)), k = c gamma/(gamma - 1), for one term
        c s^gamma, else _hinv_root."""
        if self.gamma is None:
            return self._hinv_root(u)[0]
        return np.where(u > 0, (np.maximum(u, 0.0) / self._k) ** self._e, 0.0)

    @pointwise
    def dhinv(self, u):
        """(h^-1)'(u) = s/p'(s) at s = h^-1(u); zero at u <= 0."""
        if self.gamma is None:
            return self._hinv_root(u)[1]
        return np.where(u > 0, self._d * np.maximum(u, 1e-300) ** (
            (2.0 - self.gamma) / (self.gamma - 1.0)), 0.0)

    def _hinv_root(self, u):
        """(h^-1(u), (h^-1)'(u)) of a law of several terms by Newton on
        log h(e^y) = log u from s = 1: s <- s (h/u)^(-h/p').  A step that
        leaves the bracket [lo, hi] (from [0, inf]) or is not finite
        bisects instead: it doubles s while hi = inf, else takes
        sqrt(lo) sqrt(hi), reading lo = 0 as the smallest positive double,
        so each bisection halves the exponent range.  Stops at
        |h(s) - u| <= 1e-13 u or when no double lies inside the bracket (a
        root below every positive double gives the smallest one); raises
        EOSError after _HINV_ITERS steps, e.g. when h stays below u.
        """
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
                    mid = np.sqrt(np.maximum(lo, _S_MIN)) * np.sqrt(hi)
                    xn = np.where(bad, np.where(np.isinf(hi), 2.0 * x, mid), xn)
                x = np.where(done, x, xn)
        i = np.argmin(done)  # first unconverged entry
        why = "h stays below u" if np.isinf(hi.flat[i]) else "no convergence"
        raise EOSError(f"h^-1({t.flat[i]:.6g}): {why} after {_HINV_ITERS} steps")


def power_law(gamma):
    """EquationOfState for p(s) = s^gamma."""
    eos = EquationOfState([(1.0, gamma)])
    if eos.gamma == 2.0:
        warnings.warn("gamma=2 is on the boundary of the admissible range; "
                      "accepted for oracle testing", stacklevel=2)
    return eos


def power_sum(terms):
    """EquationOfState for p(s) = sum c_i s^{gamma_i}."""
    return EquationOfState(terms)


class RotationProfile:
    """Angular velocity squared omega^2(r) and its cumulative J(r) = int_0^r w^2 s ds."""

    def __init__(self, omega_sq):
        self.omega_sq = omega_sq

    @pointwise
    def J(self, r):
        x, w = gl_nodes(_J_NODES)
        # map [-1,1] -> [0, r] per entry
        t = 0.5 * r[:, None] * (x[None, :] + 1.0)
        vals = self.omega_sq(t) * t
        return 0.5 * r * np.einsum("ij,j->i", vals, w)


def constant_rotation(omega=1.0):
    w2 = float(omega) ** 2
    return RotationProfile(lambda r: w2 * np.ones_like(np.asarray(r, dtype=float)))


def validate_assumptions(eos):
    """Sample [1e-8, 1e8] at 160 log-spaced points and grade the pressure
    assumptions: a dict of the log-slopes of p' at both ends (small_exp,
    large_exp), whether p' > 0 (monotone) and a pass flag per assumption."""
    s = np.logspace(-8, 8, 160)
    dp = eos.dp(s)
    monotone = bool(np.all(dp > 0))
    small_exp = float(np.log(dp[2] / dp[0]) / np.log(s[2] / s[0]))
    large_exp = float(np.log(dp[-1] / dp[-3]) / np.log(s[-1] / s[-3]))
    # assum 3: gamma in (1, 2)  <=>  small-s exponent of p' in (0, 1)
    pass_small = 0.0 < small_exp < 1.0
    # assum 4: gamma* in (6/5, 2)
    pass_large = 0.2 < large_exp < 1.0
    return {"monotone": monotone, "small_exp": small_exp,
            "large_exp": large_exp, "pass_positivity": monotone,
            "pass_small": pass_small, "pass_large": pass_large,
            "passed": monotone and pass_small and pass_large}


def check_mass_condition_b(eos):
    """Pointwise check of p' < h <= 2p' and the three g-conditions for
    g(w, r) = 4 pi r h^-1(w/r), on 200 log-spaced densities in [1e-6, 1e3]
    and 40 radii in [0.05, 2]: a dict of the five margins and the pass
    flag.  Raises EOSError when h^-1 overflows there."""
    s = np.logspace(-6, 3, 200)
    h = eos.h(s)
    dp = eos.dp(s)
    left = float(np.min((h - dp) / h))
    right = float(np.min((2 * dp - h) / h))

    r = np.linspace(0.05, 2.0, 40)[:, None]
    w = (s[None, :] * r)  # so that w/r sweeps s at every r
    sr = w / r
    hinv, dhinv = eos.hinv(sr), eos.dhinv(sr)
    if not np.all(np.isfinite(hinv) & np.isfinite(dhinv)):
        raise EOSError("h^-1 is not finite on the sampled enthalpies")
    g = 4 * np.pi * r * hinv
    g_w = 4 * np.pi * dhinv
    g_r = 4 * np.pi * (hinv - sr * dhinv)
    # margins normalized pointwise by g > 0 so the grading is scale-free
    pos = g > 0
    g1 = float(np.max((g - w * g_w)[pos] / g[pos]))
    g2 = float(np.max((r * g_r)[pos] / g[pos]))
    g3 = float(np.min((r * g_r + 3 * g - w * g_w)[pos] / g[pos]))
    tol = 1e-12
    return {"left_margin": left,     # min (h - p')/h, want > 0
            "right_margin": right,   # min (2p' - h)/h, want >= 0
            "g1_margin": g1,         # max (g - w g_w), want < 0
            "g2_margin": g2,         # max g_r, want <= 0
            "g3_margin": g3,         # min (r g_r + 3g - w g_w), want >= 0
            "passed": (left > 0 and right >= -tol and g1 < 0 and g2 <= tol
                       and g3 >= -tol)}
