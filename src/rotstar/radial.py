"""Radial (non-rotating) equilibria for the Euler-Poisson model.

Shooting solution of v'' + (2/r) v' + 4 pi h^-1(v) = 0, v(0)=a, v'(0)=0,
radius R(a) at the first zero of v, physical mass M(a), and the mass
derivative M'(a) through the variational ODE.
"""

import csv
import json

import numpy as np

from .errors import EOSError, UnboundStarError, NoEventError
from .numerics import Panels, integrate_ivp

#: default number of output-grid nodes for a star
N_GRID = 512
#: nodes and order of the panels on [0, R] that carry the stored profile
PROFILE_NODES, PROFILE_ORDER = 512, 16


def _shoot_profile(source, a, tol=1e-12, r_max_factor=1e3):
    """Integrate v'' + (2/r)v' + source(v) = 0 with series start, locating the
    first zero of v.  source is 4 pi h^-1 (EP) or 4 pi G (VP).

    State is (v, v', m) with m' = source(v) r^2, so the mass integral rides
    along with the trajectory.  Returns the integrate_ivp result, whose
    event_r is the radius R.
    """
    s_a = source(a)
    if not s_a > 0:
        raise UnboundStarError(f"source({a}) = {s_a} is not positive")
    # curvature scale: v ~ a - (source(a)/6) r^2 near 0
    R_guess = np.sqrt(6.0 * a / s_a)
    r0 = 1e-4 * R_guess
    v0 = a - s_a / 6.0 * r0 ** 2
    w0 = -s_a / 3.0 * r0
    m0 = s_a / 3.0 * r0 ** 3  # int_0^r0 source(a) s^2 ds

    def rhs(r, y):
        src = source(max(y[0], 0.0))
        return [y[1], -2.0 / r * y[1] - src, src * r * r]

    def stop(r, y):
        return y[0]

    try:
        return integrate_ivp(rhs, [v0, w0, m0], r0, stop=stop, tol=tol,
                             r_max=r_max_factor * R_guess, require_event=True)
    except NoEventError as e:
        raise UnboundStarError(f"no zero crossing before r_max: {e}") from e


class RadialStar:
    """A radial equilibrium: u0 and u0' as nodal values on graded panels of
    [0, R], their interpolants, and the profiles derived from them.

    The nodal values are sampled once from the shot's dense output.  The
    few nodes below its start (1e-4 of the curvature scale) read the first
    step's polynomial, which matches the series a - source(a) r^2/6 there
    to rounding in u0 and to about 2e-11 |u0'|max in u0'."""

    def __init__(self, eos, a, shot, n_grid=N_GRID):
        self.eos = eos
        self.a = float(a)
        self.R = float(shot.event_r)
        # the m-component already carries the 4 pi of the source
        self.mass = float(shot.sol(self.R)[2])
        self.panels = Panels.graded(self.R, PROFILE_NODES, PROFILE_ORDER)
        self._u0_nodes, self._u0p_nodes = shot.sol(self.panels.x)[:2]
        self.grid = np.linspace(0.0, self.R, n_grid)   # output grid

    # profile evaluation, r clamped to [0, R] --------------------------------

    def u0_of(self, r):
        r = np.clip(np.atleast_1d(np.asarray(r, dtype=float)), 0.0, self.R)
        return np.maximum(self.panels.interp(self._u0_nodes, r), 0.0)

    def u0p_of(self, r):
        r = np.clip(np.atleast_1d(np.asarray(r, dtype=float)), 0.0, self.R)
        return self.panels.interp(self._u0p_nodes, r)

    def rho0_of(self, r):
        return np.asarray(self.eos.hinv(self.u0_of(r)), dtype=float)

    def rho0p_of(self, r):
        """rho0'(r) = (h^-1)'(u0) u0'."""
        return np.asarray(self.eos.dhinv(self.u0_of(r)), dtype=float) * self.u0p_of(r)

    def mass_column(self, r):
        """Column of the l=0 rank-one mass term of the linearized operator:
        (k(rho0(r)) - k(rho0(0)))/M for the Euler-Poisson fluid."""
        kvals = self.eos.k(self.rho0_of(r))
        k0 = float(self.eos.k(self.eos.hinv(self.a)))
        return (kvals - k0) / self.mass

    # serialization -----------------------------------------------------------

    def to_json_dict(self):
        return {
            "a": self.a,
            "R": self.R,
            "mass": self.mass,
            "grid": self.grid.tolist(),
            "u0": self.u0_of(self.grid).tolist(),
            "u0p": self.u0p_of(self.grid).tolist(),
            "rho0": self.rho0_of(self.grid).tolist(),
        }

    def dump_json(self, path):
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f, indent=1)


def solve_radial(eos, a, tol=1e-12, n_grid=N_GRID):
    """Shooting solution of the radial equilibrium with central enthalpy a."""
    if a <= 0:
        raise EOSError("central enthalpy a must be positive")

    def source(v):
        return 4.0 * np.pi * float(eos.hinv(v))

    return RadialStar(eos, a, _shoot_profile(source, a, tol=tol),
                      n_grid=n_grid)


def mass_derivative(eos, star, tol=1e-12):
    """M'(a) = -R^2 v_a'(R) via the variational ODE along the stored star;
    returns (M'(a), the integrate_ivp result for (v_a, v_a')).

    v_a'' + (2/r) v_a' + 4 pi (h^-1)'(u0) v_a = 0, v_a(0)=1, v_a'(0)=0.
    """
    a = star.a
    d0 = float(eos.dhinv(a))
    r0 = 1e-4 * star.R
    c = 4.0 * np.pi * d0 / 6.0
    y0 = [1.0 - c * r0 ** 2, -2.0 * c * r0]

    def rhs(r, y):
        d = float(eos.dhinv(star.u0_of(r))[0])
        return [y[1], -2.0 / r * y[1] - 4.0 * np.pi * d * y[0]]

    sol = integrate_ivp(rhs, y0, r0, tol=tol, r_max=star.R)
    return -star.R ** 2 * float(sol.sol(star.R)[1]), sol


def gamma_43_identity_check(eos, star, tol=1e-12):
    """Scaling identity for pure power laws:
    a (2(g-1)/(2-g)) v_a'(R) = ((3g-4)/(2-g)) u0'(R).

    Returns |LHS - RHS| / max(|RHS|, 1e-8 |u0'(R)|), so the gamma=4/3 case
    (both sides ~ 0) is graded on an absolute scale.
    """
    from .eos import PowerLawEOS
    if not isinstance(eos, PowerLawEOS):
        raise EOSError("identity check requires a pure power law")
    g = eos.gamma
    _, sol = mass_derivative(eos, star, tol=tol)
    vap = float(sol.sol(star.R)[1])
    up = float(star.u0p_of(star.R)[0])
    lhs = star.a * (2.0 * (g - 1.0) / (2.0 - g)) * vap
    rhs = ((3.0 * g - 4.0) / (2.0 - g)) * up
    return abs(lhs - rhs) / max(abs(rhs), 1e-8 * abs(up))


class MassCurve:
    """Samples (a, R, M, M') along a log-spaced sweep of the central value."""

    def __init__(self, samples):
        self.samples = list(samples)

    def __len__(self):
        return len(self.samples)

    def arrays(self):
        arr = np.array(self.samples)
        return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["a", "R", "M", "Mprime"])
            for row in self.samples:
                w.writerow([repr(float(x)) for x in row])


def mass_curve(eos, a_range, n, tol=1e-12):
    """n log-spaced samples of (a, R, M, M') over a_range = (a_lo, a_hi)."""
    a_lo, a_hi = a_range
    if not (0 < a_lo < a_hi) or n < 2:
        raise EOSError("need 0 < a_lo < a_hi and n >= 2")
    avals = np.logspace(np.log10(a_lo), np.log10(a_hi), n)

    samples = []
    for a in avals:
        star = solve_radial(eos, a, tol=tol)
        mp, _ = mass_derivative(eos, star, tol=tol)
        samples.append((a, star.R, star.mass, mp))
    return MassCurve(samples)
