"""Axisymmetric field machinery for the nonlinear solvers.

A deformation zeta is stored as even spherical-harmonic mode profiles on
composite Gauss-Legendre panels (ModalField).  An evaluation at points
(r, theta) sums the modes into one nodal profile per element of theta as
passed and interpolates each point's profile from its own panel's nodes: a
column grid passes its 1-D colatitudes, so the modes are summed once per
column, and no dense interpolation matrix is formed.  Geometry applies the
dilating map g_zeta(x) = (1 + zeta(x)/|x|^2) x: it caches everything that
depends on the deformation but not on the model, namely the inverse map on
the source grid (Newton along each ray) with u0 pulled back onto it, the
Jacobian determinant det Dg with its fold check, and the potential
quadrature at the deformed collocation radii, kept factored
(potentials.PotentialQuadrature): the residual applies it to one density by
panel prefix and suffix sums, and the Newton matrix to the batch of
basis-field sources by their panel sums, contracted over the colatitudes.
No per-target matrix or per-node block is formed.  A model enters only
through its density law w(kappa, r_cyl, u): model_fields turns it into the
density, the mass factor and the potential.
"""

import numpy as np

from .errors import DeformationError
from .numerics import Panels, Ytilde, dY_dtheta, gl_nodes
from .potentials import PotentialQuadrature, origin_row

#: hard cap on the admissible X-norm
EPS0 = 0.1

#: inside |x| < R_SMALL R the ratio zeta/|x|^2 is held at its value at
#: R_SMALL R, so the map and its derivatives stay finite at the origin
R_SMALL = 1e-3

#: nodes and panel order of the collocation panels that carry the unknowns
N_RC, ORDER = 48, 8
#: nodes of the undeformed volume grid (fold check, reported mass)
N_RU = 128
#: radial panels across the deformed-boundary band of the source grid
N_ANN = 8
#: split-panel nodes of the potential quadrature
N_SUB = 12
#: Newton steps of the ray inversion before it counts as unconverged
INVERSION_STEPS = 20
#: the default mode set of Discretization, even l up to 12
ELLS = (0, 2, 4, 6, 8, 10, 12)


class ModalField:
    """zeta(x) = sum_l zeta_l(r) Y_{l0}(theta), even l only, nodal profiles
    on composite panels."""

    def __init__(self, panels, ells, coefs):
        self.panels = panels
        self.ells = tuple(ells)
        self.coefs = np.asarray(coefs, dtype=float)  # (n_l, n_nodes)
        self.R_dom = float(panels.edges[-1])
        self.r_small = R_SMALL * self.R_dom
        # nodal derivative values per mode
        self.dcoefs = panels.derivative(self.coefs)

    def _eval(self, r, theta, *parts):
        """The parts ("value", "d_r" or "d_theta") of zeta at the points
        (r, theta), broadcast together.  The modes are summed into one nodal
        profile per element of theta as passed, and each point interpolates
        its own profile from the nodes of its own panel, so a column grid
        passes its 1-D colatitudes (one profile per column) and scattered
        points one colatitude each."""
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        p, rows = self.panels._rows_at(r)
        # flat index of each point's panel nodes in its own profile
        first = (np.arange(theta.size).reshape(theta.shape) * len(self.panels)
                 + p * self.panels.order)
        cols = first[..., None] + np.arange(self.panels.order)
        th = theta.ravel()
        Y = None if parts == ("d_theta",) else Ytilde(self.ells, np.cos(th))
        out = []
        for part in parts:
            coefs = self.dcoefs if part == "d_r" else self.coefs
            ang = dY_dtheta(self.ells, th) if part == "d_theta" else Y
            nodal = (ang.T @ coefs).ravel()        # (n_theta, n_nodes)
            out.append(np.einsum("...k,...k->...", rows, nodal[cols]))
        return out

    def value(self, r, theta):
        return self._eval(r, theta, "value")[0]

    def ratio(self, r, theta):
        """zeta/|x|^2, held at its value at r_small inside r_small."""
        rr = np.maximum(np.asarray(r, dtype=float), self.r_small)
        return self.value(rr, theta) / rr ** 2

    def ratio_and_stretch(self, r, theta):
        """ratio and r d(ratio)/dr under the same clamp (zero inside
        r_small), so the radial stretch of g_zeta is 1 + ratio + stretch."""
        r = np.asarray(r, dtype=float)
        rr = np.maximum(r, self.r_small)
        v, d = self._eval(rr, theta, "value", "d_r")
        ratio = v / rr ** 2
        stretch = d / rr - 2.0 * ratio
        return ratio, np.where(r >= self.r_small, stretch, 0.0)

    def xnorm(self):
        r = np.linspace(self.R_dom / 120, self.R_dom, 120)[:, None]
        th = np.linspace(1e-3, np.pi / 2, 25)
        zr, zt = self._eval(r, th, "d_r", "d_theta")
        return float(np.max(np.sqrt(zr ** 2 + (zt / r) ** 2) / r))


class Discretization:
    """Grids and mode set for the nonlinear solvers: the modes ells (ells[0]
    is l = 0), n_mu quadrature colatitudes, the n_rt-node source-grid
    budget and the n_rc collocation nodes that carry the unknowns."""

    def __init__(self, R, ells=ELLS, n_mu=24, n_rt=104, n_rc=N_RC):
        self.R = float(R)
        self.ells = tuple(ells)
        self.panels_c = Panels.graded(R, n_rc, ORDER)   # collocation / unknowns
        self.n_rt = n_rt
        xm, wm = gl_nodes(n_mu)
        self.mu = 0.5 * (xm + 1.0)
        self.wmu = 0.5 * wm
        self.theta = np.arccos(self.mu)
        self.sin_theta = np.sqrt(1.0 - self.mu ** 2)
        self.Yt = Ytilde(ells, self.mu)                               # (n_l, n_mu)
        self.proj = 4.0 * np.pi * self.wmu[None, :] * self.Yt         # full-sphere modes
        self.panels_u = Panels.graded(R, N_RU, ORDER)   # undeformed volume grid


class Geometry:
    """Deformation-dependent caches shared by the residual and the Newton
    matrix for one zeta, plus the density, mass factor and potential of
    each model on it (model_fields).

    The *_jacobian and *_gradient methods give the derivative pieces that
    the models' jacobian assembles, for every Newton basis field
    xi = e_c(r) Y_k(theta) (e_c the nodal basis on disc.panels_c) at once:
    columns are ordered (k, c) and rows (l, r_i), both mode-major, as
    ModalField coefficients and projected residuals ravel."""

    def __init__(self, zeta, star, disc):
        self.zeta = zeta
        self.star = star
        self.disc = disc
        self._fields = {}
        self._src_rows = None
        R = star.R
        th = disc.theta

        # deformed boundary radius per quadrature colatitude
        self.tb = R * (1.0 + zeta.ratio(np.full(len(th), R), th))
        tb_min, tb_max = float(np.min(self.tb)), float(np.max(self.tb))

        # undeformed volume grid: the dilation lam that mass_integral reads
        # and det Dg, whose fold check precedes the ray inversion
        ratio, stretch = zeta.ratio_and_stretch(disc.panels_u.x[:, None], th)
        self.lam_u = 1.0 + ratio
        self.det_u = self.lam_u ** 2 * (self.lam_u + stretch)
        if np.any(self.det_u <= 0):
            raise DeformationError("fold: det Dg <= 0 on the volume grid")

        # physical-space source panels: graded bulk + boundary annulus fine
        # enough to control the density cusp crossing it per colatitude
        bulk = Panels.graded(tb_min, disc.n_rt, ORDER)
        if tb_max - tb_min > 1e-13 * R:
            k = np.linspace(tb_min, tb_max, N_ANN + 1)
            edges = np.concatenate([bulk.edges, k[1:]])
        else:
            edges = bulk.edges
        self.panels_t = Panels(edges, ORDER)
        self.tq = self.panels_t.x

        # inverse map z(y) on the source grid, one column per colatitude:
        # Newton on z (1 + ratio(z)) = t along each in-body ray, whose
        # derivative is the radial stretch 1 + ratio + stretch, from the
        # uniform dilation t R/tb of its column, each iterate held in the
        # body (z <= R); the preimage z0 of every outside source point is R
        t = self.tq[:, None]
        self.inside = t <= self.tb * (1.0 + 1e-14)
        z = np.minimum(t * (R / self.tb), R)
        for _ in range(INVERSION_STEPS):
            ratio, stretch = zeta.ratio_and_stretch(z, th)
            step = np.where(self.inside, (z * (1.0 + ratio) - t)
                            / (1.0 + ratio + stretch), 0.0)
            if not np.all(np.isfinite(step)):
                raise DeformationError("ray inversion: non-finite Newton step")
            z = np.minimum(z - step, R)
            if np.max(np.abs(step)) < 1e-13 * R:
                break
        else:
            raise DeformationError("ray inversion did not converge in "
                                   f"{INVERSION_STEPS} Newton steps")
        self.z_src = z

        # the arguments of every model's density law on the source grid:
        # u0 pulled back (zero outside the body, where every law gives zero
        # density) and the cylinder radius
        self.u_src = np.zeros_like(z)
        self.u_src[self.inside] = star.u0_of(self.z_src[self.inside])
        self.rcyl_src = t * disc.sin_theta

        # radial stretch of the dilating map at the source points
        ratio, stretch = zeta.ratio_and_stretch(self.z_src, th)
        self.g1_src = 1.0 + ratio + stretch

        # deformed radii of the collocation targets
        self.rc = rc = disc.panels_c.x
        self.s_t = rc[:, None] * (1.0 + zeta.ratio(rc[:, None], th))

        # the potential quadrature at the deformed target radii, and the
        # row of the potential at the origin
        self.quad = PotentialQuadrature(self.panels_t, disc.ells, self.s_t,
                                        n_sub=N_SUB)
        self.origin = origin_row(self.panels_t)

    # ------------------------------------------------------------------

    def model_fields(self, model, kappa):
        """The volume integral Mcal of the model's density
        w(kappa, r_cyl, u0(z0)) on the source grid, the mass factor
        mfac = M/Mcal, and at the targets the density's potential less its
        origin value, dV = V - V(0), and V', computed once per model and
        kappa."""
        key = (model, kappa)
        if key not in self._fields:
            W = model.w(kappa, self.rcyl_src, self.u_src)
            Mcal = self.volume_integral_src(W)
            V, Vp, V0 = self.potential_at_targets(self.project_modes(W))
            self._fields[key] = {"Mcal": Mcal, "mfac": self.star.mass / Mcal,
                                 "dV": V - V0, "Vp": Vp}
        return self._fields[key]

    def mass_integral(self, model, kappa):
        """int w(kappa, |x| lam sin(theta), u0(|x|)) det Dg dx on the
        undeformed volume grid: the source-grid Mcal of model_fields by the
        change of variables y = g(x), on a quadrature of its own."""
        disc = self.disc
        ru = disc.panels_u.x
        w = model.w(kappa, ru[:, None] * self.lam_u * disc.sin_theta[None, :],
                    self.star.u0_of(ru)[:, None])
        return 4.0 * np.pi * np.einsum("i,ij,j->", disc.panels_u.w * ru ** 2,
                                       w * self.det_u, disc.wmu)

    def project_modes(self, vals):
        """Mode profiles (n_l, n_r, ...) of fields (n_r, n_mu, ...) sampled
        at the quadrature colatitudes (source grid or collocation targets);
        trailing axes index a batch of fields."""
        return np.einsum("lj,ij...->li...", self.disc.proj, vals)

    def potential_at_targets(self, sigma):
        """Potential V and its radial derivative Vp at the collocation
        targets, shape (n_rc, n_mu) each, and the origin value V0, of the
        source with mode profiles sigma (n_l, n_tq)."""
        phi, dphi = self.quad.apply(sigma)
        V = np.einsum("lij,lj->ij", phi, self.disc.Yt)
        Vp = np.einsum("lij,lj->ij", dphi, self.disc.Yt)
        V0 = (self.origin @ sigma[0]) * Ytilde([0], 1.0)[0]
        return V, Vp, V0

    def volume_integral_src(self, vals_src):
        """Integral over the ball of a field sampled on the source grid."""
        wt = self.panels_t.w * self.tq ** 2
        return 4.0 * np.pi * np.einsum("i,ij,j->", wt, vals_src, self.disc.wmu)

    # derivative pieces on the Newton basis -------------------------------

    def _source_basis(self, c):
        """Per source point, |z0| xi.ratio(z0) of the basis fields (the
        inverse map moves z0 by -|z0| xi.ratio(z0)/g1 along xi), scaled
        by c on the source grid, as factors for a contraction over
        colatitudes: returns (rows (n_tq, n_mu, n_c), weights
        c[i, j] Y_k(mu_j))."""
        if self._src_rows is None:
            zz = self.z_src
            rr = np.maximum(zz, R_SMALL * self.disc.R)
            T = self.disc.panels_c.interp_rows(rr.ravel())
            self._src_rows = T.reshape(zz.shape + (-1,)) \
                * (zz / rr ** 2)[..., None]
        return self._src_rows, c[:, None, :] * self.disc.Yt[None, :, :]

    def density_jacobian(self, c):
        """Projected residual modes of the potential difference V(q) - V(q)(0)
        for the moved-density source q = c |z0| xi.ratio(z0) of every basis
        field; c is sampled on the source grid.  Shape (n_l n_rc, n_l n_c)."""
        disc = self.disc
        rows, cY = self._source_basis(c)
        n_tq, n_l, n_c = len(self.tq), len(disc.ells), rows.shape[-1]
        # sigma[l, i, k, c] = sum_j proj[l, j] c[i, j] Y_k(mu_j) rows[i, j, c]
        sigma = np.empty((n_l, n_tq, n_l, n_c))
        np.matmul(disc.proj[None, :, None, :] * cY[:, None, :, :],
                  rows[:, None], out=sigma.transpose(1, 0, 2, 3))
        sigma = sigma.reshape(n_l, n_tq, n_l * n_c)
        # the projected potential sum_j proj[l', j] Y_l(mu_j) Phi_l(s_rj) of
        # each source mode, less its origin value
        J = self.quad.apply_contracted(
            disc.proj[:, None, :] * disc.Yt[None, :, :], sigma)
        J -= np.multiply.outer(disc.proj.sum(axis=1) * Ytilde([0], 1.0)[0],
                               self.origin @ sigma[0])[:, None, :]
        return J.reshape(n_l * len(self.rc), -1)

    def source_integral_gradient(self, c):
        """Volume integral over the source grid of q = c |z0| xi.ratio(z0)
        for every basis field, shape (n_l n_c,)."""
        rows, cY = self._source_basis(c)
        wt = 4.0 * np.pi * self.panels_t.w * self.tq ** 2
        w = wt[:, None, None] * cY * self.disc.wmu[None, None, :]
        return np.einsum("ikj,ijc->kc", w, rows).ravel()

    def add_target_jacobian(self, J, weight):
        """Add the projected residual modes of weight * xi at the collocation
        targets for every basis field into the C-contiguous Newton matrix J
        in place.  The targets sit on the nodes of disc.panels_c, where the
        basis field e_c Y_k is delta_ic Y_k, so the term is block diagonal
        in the radial node."""
        disc = self.disc
        n_l, n = len(disc.ells), len(self.rc)
        idx = np.arange(n)
        J.reshape(n_l, n, n_l, n)[:, idx, :, idx] += np.einsum(
            "lj,ij,kj->ilk", disc.proj, weight, disc.Yt)
