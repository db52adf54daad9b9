"""Independent references the solver never calls.

shoot_profile integrates the radial equation as an initial value problem
by scipy's RK45, the independent oracle of the radial Newton solve;
dense_radial_kernel forms its integral operator K as one dense matrix from
the product-form Lagrange basis of each panel, the oracle of the
panel-by-panel product in radial; dense_radial_jacobian forms the
(n + 1) x (n + 1) Jacobian of that Newton system, the oracle of its
panel-by-panel solve radial._solve_bordered; gamma_43_identity_check grades
the power-law scaling identity that M'(a) must satisfy.

w_quad evaluates the kinetic density w(kappa, r, u) of a VlasovAnsatz from
its definition by Gauss-Jacobi and Gauss-Legendre quadrature, the oracle of
the ansatz's closed forms.  reference_vp_law is the kappa = 0 law
(w, dw/du)(0, r, u) by its own closed forms G and G', the oracle of the
ansatz's hinv and dhinv, which read w and dw_du.  weighted_norm is the
L2(B_R) norm of a mode profile at the nodes of the Panels of a
linop.assemble_mode block, which the kernel-witness tests read.

mode_operator_response is the first-order EP response from the dense mode
operators of linop (the centrifugal forcing projected per mode, each
mode's assemble_mode block and np.linalg.solve), the oracle of the
tangent that rotating.sphere_step takes from the Newton matrix at zeta = 0.

dense_potential_matrices forms the split-panel potential quadrature as
dense per-target matrices, the oracle of the factored
potentials.PotentialQuadrature; dense_density_jacobian builds the moved
density block of the Newton matrix from them by potentials at every
target, then projected, the oracle of Geometry.density_jacobian.

reference_local_rows is the barycentric row formula of Panels.local_rows
in its first form, the oracle of that method's bit-identical rewrite;
dense_modal_eval evaluates a ModalField through the dense Panels.interp_rows
matrix and a per-point sum over the modes, the oracle of ModalField._eval's
per-colatitude profiles.

frechet_apply evaluates the directional derivative dF(zeta, kappa)[xi] of a
model's residual term by term, for one ModalField xi; the solver assembles
Model.jacobian on all basis fields at once instead.  The tests compare the
two column by column and check this reference against finite differences
of the residual.

energy_integrals gives the kinetic, potential and internal energies, the
pressure integral and the moment of inertia of a rotating EP state on its
own Geometry: the terms of the first law dE = Omega dJ along the
fixed-mass curve and of the virial identity 2T + W + 3 Pi = 0, neither of
which the solver forms.
"""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import roots_jacobi

from rotstar.axisym import N_SUB, Discretization, Geometry, ModalField
from rotstar.errors import EOSError
from rotstar.linop import assemble_mode
from rotstar.numerics import Ytilde, dY_dtheta, gl_nodes
from rotstar.potentials import PotentialQuadrature, _split_panels, origin_row
from rotstar.radial import mass_derivative
from rotstar.vlasov import VPModel, beta_fn


def shoot_profile(density, a, tol=1e-12):
    """Shot of u'' + (2/r) u' + 4 pi density(u) = 0, u(0) = a, u'(0) = 0,
    from the series start a - s r^2/6 (s = 4 pi density(a)) at 1e-4 of the
    curvature scale to the first zero of u.  The state is (u, u', m) with
    m' = 4 pi density(u) r^2.  Returns (R, M, solve_ivp result whose dense
    output .sol gives (u, u', m))."""
    s_a = 4.0 * np.pi * float(density(a))
    scale = np.sqrt(6.0 * a / s_a)
    r0 = 1e-4 * scale

    def rhs(r, y):
        src = 4.0 * np.pi * float(density(max(y[0], 0.0)))
        return [y[1], -2.0 / r * y[1] - src, src * r * r]

    def zero(r, y):
        return y[0]
    zero.terminal, zero.direction = True, -1

    y0 = [a - s_a / 6.0 * r0 ** 2, -s_a / 3.0 * r0, s_a / 3.0 * r0 ** 3]
    sol = solve_ivp(rhs, (r0, 1e3 * scale), y0, method="RK45", rtol=tol,
                    atol=tol * 1e-2, dense_output=True, events=[zero])
    R = float(sol.t_events[0][0])
    return R, float(sol.sol(R)[2]), sol


def dense_radial_kernel(panels):
    """(K, e) on panels of [0, 1]: (K f)_i = int_0^x_i t (1 - t/x_i) f(t) dt
    and e @ f = 4 pi int_0^1 t (1 - t) f(t) dt for nodal f, t f(t) taken as
    the interpolant of the nodal x f.  Below the diagonal panel blocks
    K_ij = w_j x_j (1 - x_j/x_i); in the block of panel p,
    K_ij = x_j (1 - x_j/x_i) int_{a_p}^{x_i} L_j with L_j the panel's
    product-form Lagrange basis, integrated by Gauss-Legendre."""
    x, w, m = panels.x, panels.w, panels.order
    panel = np.arange(len(x)) // m
    K = np.where(panel[None, :] < panel[:, None],
                 w * x * (1.0 - x / x[:, None]), 0.0)
    tg, wg = np.polynomial.legendre.leggauss(m)
    for p in range(panels.n_panels):
        lo, hi = p * m, (p + 1) * m
        nodes, a = x[lo:hi], panels.edges[p]
        half = 0.5 * (nodes - a)
        t = a + half[:, None] * (tg + 1.0)            # (node i, point q)
        L = np.empty((m, m, m))                       # (i, q, j)
        for j in range(m):
            others = np.delete(nodes, j)
            L[:, :, j] = np.prod((t[..., None] - others)
                                 / (nodes[j] - others), axis=-1)
        integral = half[:, None] * np.einsum("q,iqj->ij", wg, L)
        K[lo:hi, lo:hi] = nodes * (1.0 - nodes / nodes[:, None]) * integral
    return K, 4.0 * np.pi * w * x * (1.0 - x)


def dense_radial_jacobian(K, e, R, rho_u, d):
    """Jacobian in (u, R) of the radial residual
    (u - a + 4 pi R^2 K rho(u), a - R^2 e @ rho(u)), rho_u = rho(u),
    d = rho'(u), as one dense matrix."""
    n = len(d)
    J = np.empty((n + 1, n + 1))
    np.multiply(K, 4.0 * np.pi * R * R * d, out=J[:n, :n])
    J[np.arange(n), np.arange(n)] += 1.0
    J[:n, n] = 8.0 * np.pi * R * (K @ rho_u)
    J[n, :n] = -R * R * e * d
    J[n, n] = -2.0 * R * float(e @ rho_u)
    return J


def gamma_43_identity_check(star):
    """Scaling identity for pure power laws:
    a (2(g-1)/(2-g)) v_a'(R) = ((3g-4)/(2-g)) u0'(R).

    Returns |LHS - RHS| / max(|RHS|, 1e-8 |u0'(R)|), so the gamma=4/3 case
    (both sides ~ 0) is graded on an absolute scale.
    """
    if getattr(star.eos, "gamma", None) is None:
        raise EOSError("identity check requires a pure power law")
    g = star.eos.gamma
    vap = -mass_derivative(star)[0] / star.R ** 2   # the flux at R
    up = float(star.u0p_of(star.R))
    lhs = star.a * (2.0 * (g - 1.0) / (2.0 - g)) * vap
    rhs = ((3.0 * g - 4.0) / (2.0 - g)) * up
    return abs(lhs - rhs) / max(abs(rhs), 1e-8 * abs(up))


def w_quad(ansatz, kappa, r, u, n_E=48, n_s=32):
    """w of ansatz by Gauss-Jacobi in the energy (weight t^-mu (1-t)^1/2
    after E = -u t) and Gauss-Legendre in the velocity component."""
    u = float(u)
    if u <= 0:
        return 0.0
    xj, wj = roots_jacobi(n_E, 0.5, -ansatz.mu)
    t = 0.5 * (xj + 1.0)
    S = np.sqrt(2.0 * u * (1.0 - t))
    xs, ws = gl_nodes(n_s)
    s = 0.5 * S[:, None] * (xs[None, :] + 1.0)       # [0, S] per energy
    psi = ansatz.psi0 + ansatz.psi2 * (kappa * r * s) ** 2
    inner = S * np.einsum("ij,j->i", psi, ws)        # int_{-S}^{S} psi ds
    # strip the (1-t)^(1/2) factor already in the Jacobi weight
    f = inner / np.sqrt(1.0 - t)
    return 2.0 * np.pi * u ** (1.0 - ansatz.mu) * 2.0 ** (ansatz.mu - 1.5) \
        * float(np.dot(wj, f))


def reference_vp_law(ansatz, u):
    """(G(u), G'(u)) of ansatz, G(u) = w(0, r, u) = c u_+^(3/2 - mu), each
    computed at np.atleast_1d(u) and returned in u's shape."""
    u = np.asarray(u, dtype=float)
    x = np.atleast_1d(u)
    mu = ansatz.mu
    cG = 4.0 * np.pi * np.sqrt(2.0) * ansatz.psi0 * beta_fn(1.0 - mu, 1.5)
    cGp = 2.0 * np.pi * np.sqrt(2.0) * ansatz.psi0 * beta_fn(1.0 - mu, 0.5)
    G = cG * np.maximum(x, 0.0) ** (1.5 - mu)
    with np.errstate(invalid="ignore"):
        Gp = np.where(x > 0, cGp * np.maximum(x, 1e-300) ** (0.5 - mu), 0.0)
    return G.reshape(u.shape), Gp.reshape(u.shape)


def weighted_norm(panels, f):
    """L2(B_R) norm of a mode profile f given at the nodes panels.x."""
    return float(np.sqrt(np.dot(panels.w * panels.x ** 2,
                                np.asarray(f) ** 2)))


def mode_operator_response(model, ells=(0, 2, 4, 6, 8), n=256, n_mu=24):
    """The response per unit kappa of the EPModel model, L xi_l = -J_l with
    J_l the mode profiles of its model.profile.J(r sin(theta)) by
    n_mu-point Gauss-Legendre in mu, solved mode by mode with the n-node
    assemble_mode blocks; a ModalField on their nodes."""
    ops = [assemble_mode(model, l, n=n) for l in ells]
    panels = ops[0][0]
    xm, wm = gl_nodes(n_mu)
    mu = 0.5 * (xm + 1.0)
    J = model.profile.J(np.outer(panels.x, np.sqrt(1.0 - mu ** 2)))
    xi = [np.linalg.solve(M, -J @ (2.0 * np.pi * wm * Y))
          for (_, M), Y in zip(ops, Ytilde(ells, mu))]
    return ModalField(panels, ells, xi)


def reference_local_rows(panels, p, r):
    """Panels.local_rows(p, r) by its first formula: every point through
    np.where, and exact hits patched row by row."""
    a, b = panels.edges[p], panels.edges[p + 1]
    xr = (2.0 * r - (a + b)) / (b - a)
    diff = xr[..., None] - panels._xg
    exact = np.abs(diff) < 1e-14
    diff = np.where(exact, 1.0, diff)
    terms = panels._ref_bw / diff
    rows = terms / terms.sum(axis=-1, keepdims=True)
    hit = exact.any(axis=-1)
    rows[hit] = exact[hit]
    return rows


def dense_modal_eval(field, r, theta, *parts):
    """ModalField._eval(r, theta, *parts) from one dense interp_rows matrix
    (n_points, n_nodes) at the broadcast points and one sum over the modes
    per point."""
    r, theta = np.broadcast_arrays(np.asarray(r, dtype=float),
                                   np.asarray(theta, dtype=float))
    th = theta.ravel()
    T = field.panels.interp_rows(r.ravel())
    Y = Ytilde(field.ells, np.cos(th))
    out = []
    for part in parts:
        coefs = field.dcoefs if part == "d_r" else field.coefs
        ang = dY_dtheta(field.ells, th) if part == "d_theta" else Y
        acc = np.zeros(r.size)
        for c, row in zip(coefs, ang):
            acc += (T @ c) * row
        out.append(acc.reshape(r.shape))
    return out


def frechet_apply(zeta, kappa, xi, model, disc=None, geo=None):
    """Directional derivative dF(zeta, kappa)[xi] of model at the collocation
    targets, for ModalFields zeta and xi, term by term: the moved density,
    the moved target and the mass factor, each from the density law, and
    for the EP fluid the centrifugal and enthalpy terms."""
    if geo is None:
        geo = Geometry(zeta, model.star, disc or Discretization(model.star.R))
    star, disc = model.star, geo.disc
    f = geo.model_fields(model, kappa)
    mfac = f["mfac"]

    # the density moves with the inverse map: the source-grid density
    # q(z) = w_u u0'(z) |z| xi.ratio(z) / (radial stretch)
    zz = geo.z_src
    dw = np.where(geo.inside, model.dw_du(kappa, geo.rcyl_src, geo.u_src),
                  0.0)
    q_src = dw * star.u0p_of(zz) \
        * np.where(geo.inside, zz * xi.ratio(zz, disc.theta), 0.0) / geo.g1_src
    Vq, _, Vq0 = geo.potential_at_targets(geo.project_modes(q_src))
    # mfac = M/Mcal with Mcal the source-grid integral, Mcal' = -int q
    mfac_p = mfac * geo.volume_integral_src(q_src) / f["Mcal"]

    rc = geo.rc[:, None]
    xi_t = xi.value(rc, disc.theta)
    out = mfac_p * f["dV"]                                    # M' F1
    out += -mfac * (Vq - Vq0)                                 # moved density
    out += mfac * f["Vp"] * (xi_t / rc)                       # moved target
    if isinstance(model, VPModel):
        return out

    r_cyl = geo.s_t * disc.sin_theta[None, :]
    omega2 = model.profile.omega_sq(r_cyl.ravel()).reshape(r_cyl.shape)
    rho_c = star.rho0_of(geo.rc)
    rho_00 = float(star.rho0_of(0.0))
    dh_c = star.eos.dh(mfac * rho_c)
    dh_0 = float(star.eos.dh(mfac * rho_00))
    out += kappa * omega2 * r_cyl * xi_t * disc.sin_theta[None, :] / rc
    out += (-dh_c * rho_c + dh_0 * rho_00)[:, None] * mfac_p  # enthalpy terms
    return out


def dense_potential_matrices(panels, ells, s_targets, n_sub=12):
    """Matrices (A, Ap) with A @ sigma = Phi_l(s) and Ap @ sigma = Phi_l'(s)
    for sigma given at panels.x and targets s in (0, b], one pair per mode l
    in ells, each row formed from its target's panel masks and the split
    quadrature of the panel that holds it."""
    s = np.asarray(s_targets, dtype=float)
    m = panels.order
    pidx = panels.panel_of(s)
    # the panels below the target's own lie in [0, s], those above in [s, b]
    col_panel = np.arange(len(panels.x)) // m
    below = col_panel[None, :] < pidx[:, None]
    above = col_panel[None, :] > pidx[:, None]
    # every target splits its panel; its row fills that panel's columns
    at = np.arange(len(s))[:, None]
    cols = pidx[:, None] * m + np.arange(m)
    halves = _split_panels(panels, pidx, s, n_sub)
    out = []
    for l in ells:
        win = panels.w * panels.x ** (l + 2)
        wout = panels.w * panels.x ** (1 - l)
        Iin = np.where(below, win, 0.0)
        Iout = np.where(above, wout, 0.0)
        for I, (t, w, T), power in zip((Iin, Iout), halves, (l + 2, 1 - l)):
            I[at, cols] += np.einsum("sq,sqm->sm", w * t ** power, T)
        pref = 4.0 * np.pi / (2 * l + 1)
        A = pref * (s[:, None] ** -(l + 1) * Iin + s[:, None] ** l * Iout)
        Ap = pref * (-(l + 1) * s[:, None] ** -(l + 2) * Iin
                     + l * s[:, None] ** (l - 1) * Iout)
        out.append((A, Ap))
    return out


def dense_density_jacobian(geo, c):
    """Geometry.density_jacobian(c) from dense_potential_matrices at the
    deformed targets: the potential of every basis field's moved density at
    every target, minus its origin value by origin_row, projected onto the
    residual modes."""
    disc = geo.disc
    mats = dense_potential_matrices(geo.panels_t, disc.ells, geo.s_t.ravel(),
                                    n_sub=N_SUB)
    rows, cY = geo._source_basis(c)
    n_tq, n_l, n_c = len(geo.tq), len(disc.ells), rows.shape[-1]
    # sigma[l, i, k, c] = sum_j proj[l, j] c[i, j] Y_k(mu_j) rows[i, j, c]
    lhs = disc.proj[None, :, None, :] * cY[:, None, :, :]
    sigma = (lhs.reshape(n_tq, n_l * n_l, -1) @ rows).reshape(
        n_tq, n_l, n_l * n_c).transpose(1, 0, 2)
    shp = geo.s_t.shape + sigma.shape[2:]
    V = np.zeros(shp)
    for i, (A, _) in enumerate(mats):
        V += (A @ sigma[i]).reshape(shp) * disc.Yt[i][None, :, None]
    V0 = (origin_row(geo.panels_t) @ sigma[0]) * Ytilde([0], 1.0)[0]
    return geo.project_modes(V - V0).reshape(n_l * len(geo.rc), -1)


def energy_integrals(model, sol):
    """The energies of the rotating state sol of a power-law EPModel with
    omega = 1, on the Geometry of sol: the kinetic energy T = kappa I/2 of
    rigid rotation at Omega^2 = kappa, the potential energy
    W = -(1/2) int rho U, the pressure integral Pi = int p, the internal
    energy U_int = Pi/(gamma - 1) and the moment of inertia
    I = int rho s^2.  rho = mfac w is the density
    on the source grid, s its cylinder radius, and U the potential of rho
    at the source points by a PotentialQuadrature at geo.tq."""
    geo = Geometry(sol.zeta_field(), model.star, sol.disc)
    kappa, disc, eos = sol.kappa, sol.disc, model.star.eos
    rho = geo.model_fields(model, kappa)["mfac"] * np.where(
        geo.inside, model.w(kappa, geo.rcyl_src, geo.u_src), 0.0)
    quad = PotentialQuadrature(geo.panels_t, disc.ells, geo.tq, n_sub=N_SUB)
    phi = quad.apply(geo.project_modes(rho))[0]
    U = np.einsum("li,lj->ij", phi, disc.Yt)
    I = geo.volume_integral_src(rho * geo.rcyl_src ** 2)
    Pi = geo.volume_integral_src(eos.p(rho))
    return {"T": 0.5 * kappa * I, "W": -0.5 * geo.volume_integral_src(rho * U),
            "Pi": Pi, "U_int": Pi / (eos.gamma - 1.0), "I": I}
