"""Vlasov-Poisson steady states with a polytropic microscopic ansatz.

The phase-space density is f = phi(E, kappa r v) with
phi(E, L) = (-E)_+^{-mu} psi(L) and psi an even polynomial, so the spatial
density at rotation intensity kappa is

    w(kappa, r, u) = 2 pi int_{-u}^0 int_{-S}^{S} phi(E, kappa r s) ds dE,
    S = sqrt(2(E + u)),

with w(0, r, u) = G(u) closed-form in Beta functions.  The radial problem
reuses the shooting core with source 4 pi G; the nonlinear rotation problem
is VPModel, run by the same Newton continuation as the Euler-Poisson model
(rotating.newton_continue).
"""

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import roots_jacobi

from .errors import EOSError
from .linop import assemble_mode, solve as linop_solve
from .numerics import gl_nodes, integrate_ivp
from .radial import N_GRID, RadialStar, _shoot_profile
from . import rotating


def _check_mu(mu):
    if not mu < 1.0:
        raise EOSError(f"need mu < 1 for an integrable energy power, got {mu}")


class VlasovAnsatz:
    """phi(E, L) = (-E)_+^{-mu} (psi0 + psi2 L^2) for any mu < 1.

    The equivalent polytropic exponent is gamma = 1 + 1/(3/2 - mu), so the
    paper's range 6/5 < gamma < 2 is -7/2 < mu < 1/2."""

    def __init__(self, mu, psi0=1.0, psi2=0.0):
        _check_mu(mu)
        if psi0 <= 0:
            raise EOSError("psi0 must be positive")
        self.mu = float(mu)
        self.psi0 = float(psi0)
        self.psi2 = float(psi2)
        # closed-form coefficients of the velocity integrals
        self._cG = 4.0 * np.pi * np.sqrt(2.0) * self.psi0 * beta_fn(1.0 - mu, 1.5)
        self._cGp = 2.0 * np.pi * np.sqrt(2.0) * self.psi0 * beta_fn(1.0 - mu, 0.5)
        self._cK = (4.0 * np.pi / 3.0) * 2.0 ** 1.5 * 2.0 * self.psi2 \
            * beta_fn(1.0 - mu, 2.5)
        self._cKp = 4.0 * np.pi * np.sqrt(2.0) * 2.0 * self.psi2 \
            * beta_fn(1.0 - mu, 1.5)

    @classmethod
    def matched_to_power_law(cls, mu, psi2=0.0):
        """psi0 chosen so that G(u) equals the inverse enthalpy of the
        power law p = s^gamma with gamma = 1 + 1/(3/2 - mu)."""
        _check_mu(mu)
        n = 1.5 - mu
        gamma = 1.0 + 1.0 / n
        K = ((gamma - 1.0) / gamma) ** n
        psi0 = K / (4.0 * np.pi * np.sqrt(2.0) * beta_fn(1.0 - mu, 1.5))
        return cls(mu, psi0=psi0, psi2=psi2)

    def equivalent_gamma(self):
        return 1.0 + 1.0 / (1.5 - self.mu)

    # kappa = 0 profile ----------------------------------------------------

    def G(self, u):
        """G(u) = w(0, ., u)."""
        u = np.maximum(np.asarray(u, dtype=float), 0.0)
        return self._cG * u ** (1.5 - self.mu)

    def Gp(self, u):
        u = np.asarray(u, dtype=float)
        with np.errstate(invalid="ignore"):
            out = np.where(u > 0,
                           self._cGp * np.maximum(u, 1e-300) ** (0.5 - self.mu),
                           0.0)
        return out

    # full w and derivatives (closed forms: psi is an even quadratic) -------

    def w(self, kappa, r, u):
        u = np.maximum(np.asarray(u, dtype=float), 0.0)
        r = np.asarray(r, dtype=float)
        return self._cG * u ** (1.5 - self.mu) \
            + 0.5 * kappa ** 2 * r ** 2 * self._cK * u ** (2.5 - self.mu)

    def dw_du(self, kappa, r, u):
        u = np.asarray(u, dtype=float)
        r = np.asarray(r, dtype=float)
        with np.errstate(invalid="ignore"):
            uu = np.maximum(u, 1e-300)
            out = np.where(u > 0,
                           self._cGp * uu ** (0.5 - self.mu)
                           + 0.5 * kappa ** 2 * r ** 2 * self._cKp
                           * uu ** (1.5 - self.mu),
                           0.0)
        return out

    def d2w_dkappa2_unit(self, u):
        """d^2 w/d kappa^2 at kappa=0 divided by r^2 (pure function of u)."""
        u = np.maximum(np.asarray(u, dtype=float), 0.0)
        return self._cK * u ** (2.5 - self.mu)

    # quadrature oracle of the definition ----------------------------------

    def w_quad(self, kappa, r, u, n_E=48, n_s=32):
        """w by Gauss-Jacobi in the energy (weight t^-mu (1-t)^1/2 after
        E = -u t) and Gauss-Legendre in the velocity component."""
        u = float(u)
        if u <= 0:
            return 0.0
        xj, wj = roots_jacobi(n_E, 0.5, -self.mu)
        t = 0.5 * (xj + 1.0)
        S = np.sqrt(2.0 * u * (1.0 - t))
        xs, ws = gl_nodes(n_s)
        s = 0.5 * S[:, None] * (xs[None, :] + 1.0)       # [0, S] per energy
        psi = self.psi0 + self.psi2 * (kappa * r * s) ** 2
        inner = S * np.einsum("ij,j->i", psi, ws)        # int_{-S}^{S} psi ds
        # strip the (1-t)^(1/2) factor already in the Jacobi weight
        f = inner / np.sqrt(1.0 - t)
        return 2.0 * np.pi * u ** (1.0 - self.mu) * 2.0 ** (self.mu - 1.5) \
            * float(np.dot(wj, f))


# ---------------------------------------------------------------------------
# radial problem


class _DensityOfU:
    """Adapter exposing G as an inverse enthalpy, so the radial-star profile
    machinery applies verbatim to the Vlasov model."""

    def __init__(self, ansatz):
        self._ansatz = ansatz

    def hinv(self, u):
        return self._ansatz.G(u)

    def dhinv(self, u):
        return self._ansatz.Gp(u)


class VlasovStar(RadialStar):
    """Radial Vlasov-Poisson steady state: u0 profile with density G(u0)."""

    def __init__(self, ansatz, a, shot, n_grid=N_GRID):
        self.ansatz = ansatz
        super().__init__(_DensityOfU(ansatz), a, shot, n_grid=n_grid)

    def mass_column(self, r):
        """(u0(r) - u0(0))/M: the Vlasov-Poisson rank-one mass column."""
        return (self.u0_of(r) - self.a) / self.mass

    def to_json_dict(self):
        out = {"mu": self.ansatz.mu, **super().to_json_dict()}
        del out["u0p"]
        return out


def solve_vp_radial(ansatz, a, tol=1e-12, n_grid=N_GRID):
    """Shooting solution of Delta u + 4 pi G(u) = 0 (radial), u(0)=a."""
    if a <= 0:
        raise EOSError("central value a must be positive")

    def source(v):
        return 4.0 * np.pi * float(ansatz.G(v))

    return VlasovStar(ansatz, a, _shoot_profile(source, a, tol=tol),
                      n_grid=n_grid)


def scaling_response(star, tol=1e-12):
    """v_S with Delta v_S + 4 pi G'(u0) v_S + 4 pi G(u0) = 0, v_S(0)=v_S'(0)=0.

    The scaling identities r u0' = 2 v_S (all r) and 2 v_S'(R) = -u0'(R)
    hold exactly on solutions; they are the standard consistency check.
    Returns the integrate_ivp result for (v_S, v_S')."""
    ans = star.ansatz
    s_a = 4.0 * np.pi * float(ans.G(star.a))
    r0 = 1e-4 * star.R
    # series: v_S ~ -(s_a/6) r^2 near 0 (forced, homogeneous part higher order)
    y0 = [-s_a / 6.0 * r0 ** 2, -s_a / 3.0 * r0]

    def rhs(r, y):
        u = float(star.u0_of(r)[0])
        gp = float(ans.Gp(u))
        g = float(ans.G(u))
        return [y[1], -2.0 / r * y[1] - 4.0 * np.pi * (gp * y[0] + g)]

    return integrate_ivp(rhs, y0, r0, tol=tol, r_max=star.R)


# ---------------------------------------------------------------------------
# rotation response


def kappa_derivative_norm(star, ansatz, disc=None):
    """Sup norm of dF/dkappa at (0, 0), computed from the odd-in-kappa part
    of the residual (identically zero for an even ansatz)."""
    k = 1e-2
    model = VPModel(star, ansatz)
    Fp, geo = rotating.evaluate_F(None, k, model, disc)
    Fm, _ = rotating.evaluate_F(None, -k, model, disc, geo=geo)
    return float(np.max(np.abs(Fp - Fm)) / (2.0 * k))


def vp_rotation_response(star, ansatz, kappa, n=256, order=8, ells=(0, 2)):
    """Leading-order deformation zeta = -(kappa^2/2) L^-1 d2F/dkappa2(0,0).

    The forcing r_cyl^2 d2w-potential splits into l=0 and l=2; returns
    (ops, xi) with nodal profiles of zeta per mode (kappa included)."""
    from .potentials import mode_potential_matrices
    ops = {l: assemble_mode(star, l, n=n, order=order) for l in ells}
    pan = ops[ells[0]].panels
    t = pan.x
    d2 = ansatz.d2w_dkappa2_unit(star.u0_of(t))
    # r_cyl^2 = t^2 (1 - mu^2) = t^2 (2/3)(1 - P2)
    sig = {0: (2.0 / 3.0) * t ** 2 * d2 * np.sqrt(4.0 * np.pi),
           2: -(2.0 / 3.0) * t ** 2 * d2 * np.sqrt(4.0 * np.pi / 5.0)}
    # M_kk = int A dy with A = r_cyl^2 d2w (only the l=0 part integrates)
    M_kk = 4.0 * np.pi * (2.0 / 3.0) * float(np.dot(pan.w, t ** 4 * d2))
    xi = {}
    for l in ells:
        if l not in sig:
            xi[l] = np.zeros_like(t)
            continue
        [(A, _)] = mode_potential_matrices(pan, (l,), t)
        phi = A @ sig[l]
        if l == 0:
            [(A0, _)] = mode_potential_matrices(pan, (0,), [0.0])
            phi = phi - float(A0[0] @ sig[0])
            u_term = (star.u0_of(t) - star.a) * np.sqrt(4.0 * np.pi)
            phi = phi - u_term * M_kk / star.mass
        rhs = -(kappa ** 2 / 2.0) * phi
        xi[l] = linop_solve(ops[l], rhs)
    return ops, xi


# ---------------------------------------------------------------------------
# nonlinear rotation problem


class VPModel:
    """Vlasov-Poisson rotation problem: the density w(kappa, r_cyl, u0(z)) on
    the source grid, scaled by mfac to the radial star's mass, with the
    residual a - u0 + mfac (V - V(0)).  Same interface as rotating.EPModel."""

    def __init__(self, star, ansatz):
        self.star = star
        self.ansatz = ansatz

    def fields(self, geo, kappa):
        """Density and u0(z) on the source grid, its potential at the
        targets, its integral Mcal and the mass factor."""
        star = self.star
        u_z = np.zeros_like(geo.T2)
        u_z[geo.inside] = star.u0_of(geo.z0[geo.inside])
        r_cyl_y = geo.T2 * np.sqrt(1.0 - geo.disc.mu[None, :] ** 2)
        W = np.where(geo.inside, self.ansatz.w(kappa, r_cyl_y, u_z), 0.0)
        Mcal = geo.volume_integral_src(W)
        sigma = geo.project_modes(W)
        V, Vp, V0 = geo.potential_at_targets(sigma, deriv=True)
        return {"dens": W, "u_z": u_z, "r_cyl_y": r_cyl_y, "Mcal": Mcal,
                "mfac": star.mass / Mcal, "V": V, "Vp": Vp, "V0": V0}

    def residual(self, geo, kappa):
        f = geo.model_fields(self, kappa)
        u_c = self.star.u0_of(geo.rc)
        return (self.star.a - u_c)[:, None] + f["mfac"] * (f["V"] - f["V0"])

    def jacobian(self, geo, kappa):
        """The Newton matrix: the derivative of the projected residual modes
        along every basis field at once (see rotating.EPModel.jacobian)."""
        f = geo.model_fields(self, kappa)
        zz = np.where(geo.inside, geo.z0, self.star.R)
        dw = np.where(geo.inside,
                      self.ansatz.dw_du(kappa, f["r_cyl_y"], f["u_z"]), 0.0)
        c = dw * self.star.u0p_of(zz) / geo.g1_src
        mfac = f["mfac"]
        Mcal_p = -geo.source_integral_gradient(c)
        J = -mfac * geo.density_jacobian(c)
        J += geo.target_jacobian(mfac * f["Vp"] / geo.RC)
        J += np.outer(geo.project_modes(f["V"] - f["V0"]).ravel(),
                      -(mfac / f["Mcal"]) * Mcal_p)
        return J

    def slope(self, disc):
        """Zero: w is even in kappa, so the response starts at kappa^2."""
        return np.zeros((len(disc.ells), len(disc.panels_c)))
