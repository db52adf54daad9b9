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
density law turned into Mfac and V - V(0) on the source grid, one residual
and one Newton matrix.  EPModel adds the enthalpy and centrifugal local
term with one hook per derivative of it; vlasov.VPModel adds its own.  At
zeta = 0 the Newton matrix is the linearized operator L = D_zeta F(0, 0),
block diagonal in l and invertible exactly when the mass condition holds;
sphere_step gates its l = 0 block and solves L xi = -rhs mode by mode.
That one solve gives the continuation's tangent at the sphere
(rhs = dF/dkappa) and the perturb response (sphere_response,
rhs = F(0, kappa) - F(0, 0)).  newton_continue runs Newton iteration on
the spherical-harmonic coefficients of zeta for either model along a
schedule of rotation intensities kappa.  Its predictor is the
quadratic in kappa through the sphere, with that tangent, and through the
last accepted state, so the corrector takes fewer Newton matrices per step
than from the tangent alone.  A model whose tangent is zero (VP, whose law
is even in kappa) keeps a zero predictor and starts on the accepted state's
Geometry: its curvature term would be only a secant in kappa^2, no better
than the Newton step from the accepted state, and would cost a Geometry.
"""

import numpy as np

from .axisym import EPS0, Discretization, Geometry, ModalField
from .errors import DeformationError, DegenerateOperatorError, SolverError
from .numerics import weighted_sigma_min

#: Newton steps per kappa value, and step halvings per requested kappa
_NEWTON_ITERS, _HALVINGS = 8, 6
#: sphere_step refuses an l = 0 block whose sigma_min R^2/a is at or below
#: this.  The scaled value is invariant under the power-law scaling of the
#: star: on the default grid it is 0.13 at gamma = 1.5 and 6.2e-4 at
#: gamma = 1.22, where the raw sigma_min is 2.6e-9, and 1.5e-12 at the
#: degenerate gamma = 4/3.
DEGENERACY_FLOOR = 1e-8


# ---------------------------------------------------------------------------
# the nonlinear residual and its Newton matrix


class Model:
    """A rotating model is its density law plus its local term: a subclass
    gives the law w(kappa, r_cyl, u) with dw_du (the density at rotation
    intensity kappa where the radial potential is u) and local(geo, kappa,
    mfac) at the targets.  Geometry.model_fields turns the law into
    mfac = M/Mcal and the potential difference V - V(0); the residual is
    mfac (V - V(0)) + local, and the Newton matrix one shared block plus
    one hook per derivative of the local term, each zero unless
    overridden: dlocal_ds, its derivative in the deformed target radius s
    (the target weight); dlocal_dmfac, its mfac-derivative at radii r,
    which also gives linop.assemble_mode its l = 0 mass column; and
    kappa_forcing, dF/dkappa at zeta = 0."""

    def dlocal_ds(self, geo, kappa):
        return 0.0

    def dlocal_dmfac(self, r, mfac):
        return 0.0

    def kappa_forcing(self, geo):
        return 0.0

    def residual(self, geo, kappa):
        f = geo.model_fields(self, kappa)
        return f["mfac"] * f["dV"] + self.local(geo, kappa, f["mfac"])

    def jacobian(self, geo, kappa):
        """The Newton matrix, shape (n_l n_rc, n_l n_c): the derivative of
        the projected residual modes along every basis field
        e_c(r) Y_k(theta) at once, assembled as dense products; raises
        SolverError when it is not finite (its potentials overflow for a
        dense enough star)."""
        f = geo.model_fields(self, kappa)
        mfac = f["mfac"]
        c = (self.dw_du(kappa, geo.rcyl_src, geo.u_src)
             * self.star.u0p_of(geo.z_src) / geo.g1_src)
        J = -mfac * geo.density_jacobian(c)               # moved density
        w_t = mfac * f["Vp"] + self.dlocal_ds(geo, kappa)  # moved target
        geo.add_target_jacobian(J, w_t / geo.rc[:, None])
        mfac_p = (mfac / f["Mcal"]) * geo.source_integral_gradient(c)
        column = np.reshape(self.dlocal_dmfac(geo.rc, mfac), (-1, 1))
        J += np.outer(geo.project_modes(f["dV"] + column).ravel(),
                      mfac_p)                                 # mass factor
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
        return kappa * self.kappa_forcing(geo) + (h[-1] - h[:-1])[:, None]

    def kappa_forcing(self, geo):
        """The centrifugal term J(r_cyl) at the targets, the kappa-derivative
        of the local term."""
        return self.profile.J(geo.s_t * geo.disc.sin_theta[None, :])

    def dlocal_dmfac(self, r, mfac):
        """d/dmfac of the enthalpy term at radii r: dh(mfac rho0) rho0 at
        the origin minus the same at r."""
        rho = self.star.rho0_of(np.append(r, 0.0))
        dh_rho = self.star.eos.dh(mfac * rho) * rho
        return dh_rho[-1] - dh_rho[:-1]

    def dlocal_ds(self, geo, kappa):
        """d/ds of the centrifugal term kappa J(s sin(theta)) at the
        targets: kappa omega^2(r_cyl) r_cyl sin(theta)."""
        sin = geo.disc.sin_theta[None, :]
        r_cyl = geo.s_t * sin
        omega2 = self.profile.omega_sq(r_cyl.ravel()).reshape(r_cyl.shape)
        return kappa * omega2 * r_cyl * sin


def evaluate_F(zeta, kappa, model, disc=None):
    """Residual field F(zeta, kappa) of model at the collocation targets.

    Returns (F, geo) with F of shape (n_rc, n_mu); at the same zeta,
    model.residual(geo, kappa) gives F at another kappa."""
    geo = Geometry(zeta, model.star, disc or Discretization(model.star.R))
    return model.residual(geo, kappa), geo


# ---------------------------------------------------------------------------
# the linearized operator at the sphere


def _sphere(model, disc):
    """The Geometry of the zero deformation on disc."""
    zero = np.zeros((len(disc.ells), len(disc.panels_c)))
    return Geometry(ModalField(disc.panels_c, disc.ells, zero), model.star,
                    disc)


def sphere_step(model, geo0, rhs):
    """The mode profiles xi (n_l, n_rc) of L xi = -P rhs, block by block in
    l, with L the Newton matrix on the zeta = 0 Geometry geo0 and P rhs the
    projected modes of the field rhs at the targets; zero, without L, for a
    zero rhs.  Raises DegenerateOperatorError when the l = 0 block, weighted
    by the L2(B_R) norm of its profiles, has a scale-free sigma_min R^2/a at
    or below DEGENERACY_FLOOR, and SolverError when L or xi is not finite."""
    disc, star = geo0.disc, model.star
    n_l, n = len(disc.ells), len(disc.panels_c)
    if not np.any(rhs):
        return np.zeros((n_l, n))
    J = model.jacobian(geo0, 0.0).reshape(n_l, n, n_l, n)
    blocks = J[np.arange(n_l), :, np.arange(n_l), :]
    sig = weighted_sigma_min(disc.panels_c, blocks[0])
    scaled = sig * star.R ** 2 / star.a
    if scaled <= DEGENERACY_FLOOR:
        gamma = getattr(star.eos, "gamma", None)
        raise DegenerateOperatorError(
            f"mass condition violated? sigma_min={sig:.3e}, "
            f"sigma_min R^2/a={scaled:.3e}"
            + (f", gamma={gamma}" if gamma is not None else ""))
    xi = np.linalg.solve(blocks, -geo0.project_modes(rhs)[..., None])[..., 0]
    if not np.all(np.isfinite(xi)):
        raise SolverError("sphere step is not finite")
    return xi


def sphere_response(model, kappa, disc):
    """The Newton step from the sphere at kappa, -L^-1 (F(0, kappa) -
    F(0, 0)), as a ModalField on disc.  F(0, .) is affine in kappa for the
    EP fluid, so at kappa = 1 this is its first-order response per unit
    kappa; for the VP gas it is the kappa^2 response with its O(kappa^4)
    part.  What is not finite in the sphere's Geometry or the difference
    (a dense enough star overflows its potentials) makes L or xi so, and
    sphere_step raises SolverError."""
    geo0 = _sphere(model, disc)
    rhs = model.residual(geo0, kappa) - model.residual(geo0, 0.0)
    return ModalField(disc.panels_c, disc.ells, sphere_step(model, geo0, rhs))


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


def _predictor(tangent, coefs, k_cur, k_try):
    """The step from the accepted state coefs at k_cur to the prediction at
    k_try: the quadratic z(k) = k tangent + k^2 c through the sphere, with
    its tangent there, and through the accepted state.  Through the
    curvature term c, the prediction carries the accepted state's error
    scaled by (k_try/k_cur)^2; step halving covers a prediction that Newton
    cannot correct.  Zero for a zero tangent."""
    if not np.any(tangent):
        return np.zeros_like(tangent)
    step = (k_try - k_cur) * tangent
    if k_cur > 0.0:
        c = (coefs - k_cur * tangent) / k_cur ** 2
        step += (k_try ** 2 - k_cur ** 2) * c
    return step


def newton_continue(model, kappas, disc=None, tol=1e-8, on_solution=None):
    """Continuation of model (EPModel or VPModel) in the rotation intensity
    kappa with exact mass.

    Returns one RotatingSolution per requested kappa, solved at that kappa
    exactly.  Steps between requested values are halved when Newton fails
    to converge, so each try reaches a dyadic fraction of the way from the
    last requested kappa; the fractions add up exactly, and the try that
    completes the way is the requested kappa itself.  A failure at the
    accepted kappa (a zero step: the schedule's first 0 or a repeated
    kappa) raises at once, since halving would repeat it.  on_solution is
    called with each accepted solution as it is produced, so callers can
    persist partial curves before a later step fails."""
    kappas = list(kappas)
    if any(b < a for a, b in zip([0.0] + kappas, kappas)):
        raise SolverError("kappa schedule must be nondecreasing")
    if disc is None:
        disc = Discretization(model.star.R)
    # the accepted state's Geometry, the sphere's first, and the branch's
    # tangent there (zero for VP, whose w is even in kappa); the predictor
    # is second order where the tangent is nonzero and zero where it is
    # zero (a secant in kappa^2 would be no better than the Newton step
    # from the accepted state, and would cost a Geometry)
    geo = _sphere(model, disc)
    tangent = sphere_step(model, geo, model.kappa_forcing(geo))

    sols = []
    k_cur = 0.0
    coefs = np.zeros_like(tangent)
    for target in kappas:
        # each try reaches the dyadic fraction frac of the way from the last
        # requested kappa k0 to the target; the last is the target itself
        k0, reached, step = k_cur, 0.0, 1.0
        halvings = 0
        while reached < 1.0:
            frac = reached + step
            k_try = target if frac == 1.0 else k0 + frac * (target - k0)
            predictor = _predictor(tangent, coefs, k_cur, k_try)
            # a zero predictor (always for VP, and for a repeated kappa)
            # starts on the accepted state's Geometry; any other on a new
            # one, so it is let go
            if np.any(predictor):
                geo = None
            try:
                coefs_new, geo_new, res_sup, iters = _newton_at(
                    model, k_try, coefs + predictor, disc, tol, geo=geo)
            except SolverError:
                halvings += 1
                if target == k0 or halvings > _HALVINGS:
                    raise
                step *= 0.5
                continue
            k_cur, coefs, geo, reached = k_try, coefs_new, geo_new, frac
        mfac = geo.model_fields(model, k_cur)["mfac"]
        sol = RotatingSolution(model.star, k_cur, disc, coefs, res_sup, iters,
                               mfac, mfac * geo.mass_integral(model, k_cur))
        sols.append(sol)
        if on_solution is not None:
            on_solution(sol)
    return sols
