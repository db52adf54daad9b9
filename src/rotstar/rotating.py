"""Slowly rotating Euler-Poisson equilibria.

The unknown is the deformation zeta of the dilating map g_zeta; the residual
field is

    F(zeta, kappa)(x) = Mfac [V(g(x)) - V(0)] + kappa J(r_cyl(g(x)))
                        - h(Mfac rho0(x)) + h(Mfac rho0(0)),

where V is the potential of the transported density rho0(g^-1 .), Mfac the
mass factor restoring the total mass, and J(r) = int_0^r omega^2(s) s ds the
centrifugal antiderivative.  At zeta = 0 the gravity and enthalpy terms
cancel against the radial equilibrium and F = kappa J exactly.

EPModel carries this residual and its Newton matrix; vlasov.VPModel carries
the Vlasov-Poisson one through the same interface.  first_order_shape solves
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


class EPModel:
    """Euler-Poisson fluid: the transported density rho0(z) plus the
    centrifugal term kappa J(r_cyl), with the enthalpy evaluated at the
    mass-restored density.

    A model provides fields (cached per geometry by Geometry.model_fields),
    the residual and its Newton matrix (jacobian) on a geometry, and the
    warm-start slope of the Newton unknowns per unit kappa."""

    def __init__(self, star, profile):
        self.star = star
        self.profile = profile

    def fields(self, geo, kappa):
        """Transported density on the source grid, its potential at the
        targets, and the mass factor."""
        star = self.star
        dens = np.zeros_like(geo.T2)
        if np.any(geo.inside):
            dens[geo.inside] = star.rho0_of(geo.z0[geo.inside])
        sigma = geo.project_modes(dens)
        V, Vp, V0 = geo.potential_at_targets(sigma, deriv=True)
        return {"dens": dens, "V": V, "Vp": Vp, "V0": V0,
                "mfac": star.mass / geo.vol_rho_det}

    def residual(self, geo, kappa):
        star = self.star
        f = geo.model_fields(self, kappa)
        mfac = f["mfac"]
        r_cyl = geo.s_t * geo.disc.sin_theta[None, :]
        grav = mfac * (f["V"] - f["V0"])
        cent = kappa * self.profile.J(r_cyl)
        rho_c = star.rho0_of(geo.rc)
        rho_00 = float(star.rho0_of(0.0))
        h_term = -star.eos.h(mfac * rho_c) + float(star.eos.h(mfac * rho_00))
        return grav + cent + h_term[:, None]

    def jacobian(self, geo, kappa):
        """The Newton matrix, shape (n_l n_rc, n_l n_c): the derivative of
        the projected residual modes along every basis field
        e_c(r) Y_k(theta) at once, assembled as dense products."""
        star, disc = self.star, geo.disc
        f = geo.model_fields(self, kappa)
        mfac = f["mfac"]
        mfac_p = -star.mass / geo.vol_rho_det ** 2 * geo.vol_rho_det_gradient()

        zz = np.where(geo.inside, geo.z0, star.R)
        c = np.where(geo.inside, star.rho0p_of(zz) / geo.g1_src, 0.0)
        J = -mfac * geo.density_jacobian(c)                       # moved density

        r_cyl = geo.s_t * disc.sin_theta[None, :]
        omega2 = self.profile.omega_sq(r_cyl.ravel()).reshape(r_cyl.shape)
        J += geo.target_jacobian(                                 # moved target
            (mfac * f["Vp"] + kappa * omega2 * r_cyl * disc.sin_theta[None, :])
            / geo.RC)

        rho_c = star.rho0_of(geo.rc)
        rho_00 = float(star.rho0_of(0.0))
        dh_c = star.eos.dh(mfac * rho_c)
        dh_0 = float(star.eos.dh(mfac * rho_00))
        F1 = (f["V"] - f["V0"]) + (-dh_c * rho_c + dh_0 * rho_00)[:, None]
        J += np.outer(geo.project_modes(F1).ravel(), mfac_p)      # M' terms
        return J

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


def _newton_at(model, kappa, coefs, disc, tol):
    """Newton iteration at fixed kappa from the warm start coefs."""
    coefs = coefs.copy()
    prev_res = np.inf
    for it in range(_NEWTON_ITERS + 1):
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
    prev = 0.0
    for target in kappas:
        if target < prev - _TINY:
            raise SolverError("kappa schedule must be nondecreasing")
        prev = target
    if disc is None:
        disc = Discretization(model.star.R)
    slope = model.slope(disc)

    sols = []
    k_cur = 0.0
    coefs = np.zeros((len(disc.ells), len(disc.panels_c)))
    for target in kappas:
        step = max(target - k_cur, 0.0)
        halvings = 0
        done = False
        while not done:
            k_try = min(target, k_cur + step) if step > 0 else target
            warm = coefs + (k_try - k_cur) * slope
            try:
                coefs_new, geo, res_sup, iters = _newton_at(
                    model, k_try, warm, disc, tol)
            except SolverError:
                halvings += 1
                if halvings > _HALVINGS:
                    raise
                step *= 0.5
                continue
            k_cur, coefs = k_try, coefs_new
            if abs(k_cur - target) <= _TINY:
                f = geo.model_fields(model, k_cur)
                mass_value = f["mfac"] * geo.volume_integral_src(f["dens"])
                sol = RotatingSolution(model.star, k_cur, disc, coefs,
                                       res_sup, iters, f["mfac"], mass_value)
                sols.append(sol)
                if on_solution is not None:
                    on_solution(sol)
                done = True
    return sols
