"""Slowly rotating Euler-Poisson equilibria.

The unknown is the deformation zeta of the dilating map g_zeta; the residual
field is

    F(zeta, kappa)(x) = Mfac [V(g(x)) - V(0)] + kappa J(r_cyl(g(x)))
                        - h(Mfac rho0(x)) + h(Mfac rho0(0)),

where V is the potential of the transported density rho0(g^-1 .), Mfac the
mass factor M / int rho0(g^-1 y) dy restoring the total mass, and
J(r) = int_0^r omega^2(s) s ds the centrifugal antiderivative.  At zeta = 0
the gravity and enthalpy terms cancel against the radial equilibrium and
F = kappa J up to quadrature.

Model holds what the Euler-Poisson and Vlasov-Poisson problems share: a
density law turned into Mfac and V on the source grid, one residual and one
Newton matrix.  EPModel adds the enthalpy and centrifugal local term;
vlasov.VPModel adds its own.  first_order_shape solves
the linearized EP problem mode by mode; newton_continue runs Newton iteration
on the spherical-harmonic coefficients of zeta for either model along a
schedule of rotation intensities kappa.
"""

import numpy as np

from .axisym import EPS0, Discretization, Geometry, ModalField
from .errors import DeformationError, SolverError
from .linop import assemble_mode, mode_panels, solve as linop_solve
from .numerics import Ytilde, gl_nodes

_TINY = 1e-14
#: Newton steps per kappa value, and step halvings per requested kappa
_NEWTON_ITERS, _HALVINGS = 8, 6
#: quadrature colatitudes of the centrifugal mode projections
_N_MU = 24


# ---------------------------------------------------------------------------
# centrifugal forcing


def centrifugal_rhs(profile, nodes, ells):
    """Mode profiles of dF/dkappa at zeta=0, i.e. of J(r sin(theta)), at the
    radii nodes; shape (n_l, n_nodes)."""
    xm, wm = gl_nodes(_N_MU)
    mu = 0.5 * (xm + 1.0)
    wmu = 0.5 * wm
    sth = np.sqrt(1.0 - mu ** 2)
    Jvals = profile.J(np.outer(nodes, sth))
    return np.array([Jvals @ (4.0 * np.pi * wmu * Y) for Y in Ytilde(ells, mu)])


# ---------------------------------------------------------------------------
# the nonlinear residual and its Newton matrix


class Model:
    """A rotating model is its density law plus its local term: a subclass
    gives the law w(kappa, r_cyl, u) with dw_du (the density at rotation
    intensity kappa where the radial potential is u), local(geo, kappa,
    mfac) at the targets, and slope(disc).  Geometry.model_fields turns the
    law into mfac = M/Mcal and the potential V; the residual is
    mfac (V - V(0)) + local, and the Newton matrix one shared block plus
    the local term's target weight and mfac-derivative (local_derivatives,
    zero unless overridden)."""

    def local_derivatives(self, geo, kappa, mfac):
        return 0.0, 0.0

    def residual(self, geo, kappa):
        f = geo.model_fields(self, kappa)
        return f["mfac"] * (f["V"] - f["V0"]) + self.local(geo, kappa,
                                                           f["mfac"])

    def jacobian(self, geo, kappa):
        """The Newton matrix, shape (n_l n_rc, n_l n_c): the derivative of
        the projected residual modes along every basis field
        e_c(r) Y_k(theta) at once, assembled as dense products; raises
        SolverError, without numpy warnings, when it is not finite (its
        potentials overflow for a dense enough star)."""
        with np.errstate(all="ignore"):
            f = geo.model_fields(self, kappa)
            mfac = f["mfac"]
            target, column = self.local_derivatives(geo, kappa, mfac)
            dw = np.where(geo.inside,
                          self.dw_du(kappa, geo.rcyl_src, geo.u_src), 0.0)
            c = dw * self.star.u0p_of(geo.z_src) / geo.g1_src
            J = -mfac * geo.density_jacobian(c)               # moved density
            J += geo.target_jacobian(
                (mfac * f["Vp"] + target) / geo.rc[:, None])
            mfac_p = (mfac / f["Mcal"]) * geo.source_integral_gradient(c)
            J += np.outer(
                geo.project_modes(f["V"] - f["V0"] + column).ravel(),
                mfac_p)                                           # mass factor
        if not np.all(np.isfinite(J)):
            raise SolverError(
                f"Newton matrix is not finite at kappa={kappa:g}")
        return J


class EPModel(Model):
    """Euler-Poisson fluid: the density law h^-1(u), whatever kappa and
    r_cyl, and the local term kappa J(r_cyl) - h(mfac rho0) + h(mfac rho0(0))
    at the targets."""

    def __init__(self, star, profile):
        self.star = star
        self.profile = profile

    def w(self, kappa, r_cyl, u):
        return self.star.eos.hinv(u)

    def dw_du(self, kappa, r_cyl, u):
        return self.star.eos.dhinv(u)

    def local(self, geo, kappa, mfac):
        rho = self.star.rho0_of(np.append(geo.rc, 0.0))   # targets, origin
        h = self.star.eos.h(mfac * rho)
        cent = kappa * self.profile.J(geo.s_t * geo.disc.sin_theta[None, :])
        return cent + (h[-1] - h[:-1])[:, None]

    def local_derivatives(self, geo, kappa, mfac):
        sin = geo.disc.sin_theta[None, :]
        r_cyl = geo.s_t * sin
        omega2 = self.profile.omega_sq(r_cyl.ravel()).reshape(r_cyl.shape)
        rho = self.star.rho0_of(np.append(geo.rc, 0.0))
        dh_rho = self.star.eos.dh(mfac * rho) * rho
        return (kappa * omega2 * r_cyl * sin,
                (dh_rho[-1] - dh_rho[:-1])[:, None])

    def slope(self, disc):
        """The first-order response sampled onto the collocation nodes, per
        unit kappa."""
        shape = first_order_shape(self.star, self.profile, ells=disc.ells)
        return np.array([shape.panels.interp(shape.xi[l], disc.panels_c.x)
                         for l in disc.ells])


def evaluate_F(zeta, kappa, model, disc=None):
    """Residual field F(zeta, kappa) of model at the collocation targets.

    Returns (F, geo) with F of shape (n_rc, n_mu); at the same zeta,
    model.residual(geo, kappa) gives F at another kappa."""
    geo = Geometry(zeta, model.star, disc or Discretization(model.star.R))
    return model.residual(geo, kappa), geo


# ---------------------------------------------------------------------------
# first-order response


class ShapeReport:
    """Linear response xi per harmonic mode: L xi = -dF/dkappa for the EP
    fluid (first_order_shape), the kappa^2 response for the VP gas
    (vlasov.vp_rotation_response)."""

    def __init__(self, star, ells, panels, xi):
        self.star = star
        self.ells = tuple(ells)
        self.panels = panels    # the mode panels every profile lives on
        self.xi = xi            # l -> nodal profile on panels.x
        self.xi_R = {l: float(panels.interp(xi[l], np.array([star.R]))[0])
                     for l in ells}

    def boundary_shift(self, theta):
        """xi(R, theta)/R, the radial boundary displacement relative to R
        (per unit kappa for first_order_shape)."""
        mu = np.atleast_1d(np.cos(np.asarray(theta, dtype=float)))
        out = np.zeros_like(mu)
        for l, Y in zip(self.ells, Ytilde(self.ells, mu)):
            out += self.xi_R[l] * Y
        return out / self.star.R

    def oblateness_slope(self):
        """d(R_eq - R_pole)/dkappa at kappa = 0."""
        eq, pole = self.boundary_shift(np.array([np.pi / 2, 0.0]))
        return float(eq - pole)


def first_order_shape(star, profile, ells=(0, 2, 4, 6, 8), n=256):
    """Solve L xi_l = -(dF/dkappa)_l for each even mode on the n nodes of
    linop.mode_panels.  Only the forced modes are assembled and solved;
    the others get zero profiles."""
    panels = mode_panels(star.R, n)
    rhs = centrifugal_rhs(profile, panels.x, ells)
    xi = {}
    for l, f in zip(ells, rhs):
        if np.max(np.abs(f)) < 1e-14 * max(1.0, star.R ** 2):
            xi[l] = np.zeros_like(panels.x)
        else:
            xi[l] = linop_solve(assemble_mode(star, l, n=n), -f)
    return ShapeReport(star, ells, panels, xi)


# ---------------------------------------------------------------------------
# Newton continuation


class RotatingSolution:
    """A converged rotating state: modal deformation plus diagnostics."""

    def __init__(self, star, kappa, disc, coefs, residual_sup, iters, mfac,
                 mass_value):
        self.star = star
        self.kappa = float(kappa)
        self.disc = disc
        self.coefs = coefs
        self.residual_sup = float(residual_sup)
        self.iters = int(iters)
        self.mass_factor = float(mfac)
        self.mass_value = float(mass_value)
        R = star.R
        eq, pole = self.zeta_field().ratio(np.full(2, R),
                                           np.array([np.pi / 2, 0.0]))
        self.R_eq, self.R_pole = (R * (1.0 + float(x)) for x in (eq, pole))

    def zeta_field(self):
        return ModalField(self.disc.panels_c, self.disc.ells, self.coefs)

    def to_row(self):
        return [self.kappa, self.R_eq, self.R_pole, self.mass_value,
                self.residual_sup, self.iters]


def _newton_at(model, kappa, coefs, disc, tol, geo=None):
    """Newton iteration at fixed kappa from the warm start coefs; geo, when
    given, is the Geometry of coefs, which then passed the cap already."""
    coefs = coefs.copy()
    prev_res = np.inf
    for it in range(_NEWTON_ITERS + 1):
        if it == 0 and geo is not None:
            F = model.residual(geo, kappa)
        else:
            field = ModalField(disc.panels_c, disc.ells, coefs)
            xn = field.xnorm()
            if xn >= EPS0:
                raise DeformationError(
                    f"deformation cap: ||zeta||_X = {xn:.4g} >= {EPS0} "
                    f"at kappa={kappa:g}")
            F, geo = evaluate_F(field, kappa, model, disc)
        res_sup = float(np.max(np.abs(F)))
        if res_sup < tol:
            return coefs, geo, res_sup, it
        if it == _NEWTON_ITERS or res_sup > 0.5 * prev_res:
            # stagnation at the discretization floor is not convergence
            raise SolverError(
                f"Newton stalled at kappa={kappa:g}: residual {res_sup:.3e}")
        prev_res = res_sup
        res = geo.project_modes(F).ravel()
        delta = np.linalg.solve(model.jacobian(geo, kappa), -res)
        coefs = coefs + delta.reshape(coefs.shape)
    raise SolverError("unreachable")


def newton_continue(model, kappas, disc=None, tol=1e-8, on_solution=None):
    """Continuation of model (EPModel or VPModel) in the rotation intensity
    kappa with exact mass.

    Returns one RotatingSolution per requested kappa.  Steps between
    requested values are halved when Newton fails to converge.  on_solution
    is called with each accepted solution as it is produced, so callers can
    persist partial curves before a later step fails."""
    kappas = list(kappas)
    if any(b < a - _TINY for a, b in zip([0.0] + kappas, kappas)):
        raise SolverError("kappa schedule must be nondecreasing")
    if disc is None:
        disc = Discretization(model.star.R)
    slope = model.slope(disc)

    sols = []
    k_cur = 0.0
    coefs = np.zeros((len(disc.ells), len(disc.panels_c)))
    geo = None   # the accepted state's Geometry
    for target in kappas:
        step = max(target - k_cur, 0.0)
        halvings = 0
        done = False
        while not done:
            k_try = min(target, k_cur + step) if step > 0 else target
            predictor = (k_try - k_cur) * slope
            # a zero predictor (always for VP) starts at the accepted state
            kept = None if np.any(predictor) else geo
            try:
                coefs_new, geo_new, res_sup, iters = _newton_at(
                    model, k_try, coefs + predictor, disc, tol, geo=kept)
            except SolverError:
                halvings += 1
                if halvings > _HALVINGS:
                    raise
                step *= 0.5
                continue
            k_cur, coefs, geo = k_try, coefs_new, geo_new
            if abs(k_cur - target) <= _TINY:
                mfac = geo.model_fields(model, k_cur)["mfac"]
                sol = RotatingSolution(model.star, k_cur, disc, coefs,
                                       res_sup, iters, mfac,
                                       mfac * geo.mass_integral(model, k_cur))
                sols.append(sol)
                if on_solution is not None:
                    on_solution(sol)
                done = True
    return sols
