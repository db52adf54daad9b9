"""Axisymmetric field machinery for the nonlinear solvers.

A deformation zeta is stored as even spherical-harmonic mode profiles on
composite Gauss-Legendre panels (ModalField).  Geometry applies the dilating
map g_zeta(x) = (1 + zeta(x)/|x|^2) x: it caches everything that depends on
the deformation but not on the model, namely the inverse map on the source
grid, the Jacobian determinant det Dg with its fold check, the mass integral,
and the per-mode potential matrices evaluated at the deformed collocation
radii.
"""

import numpy as np

from .errors import DeformationError
from .numerics import Panels, Ytilde, dY_dtheta, gl_nodes
from .potentials import mode_potential_matrices

#: hard cap on the admissible X-norm
EPS0 = 0.1

#: inside |x| < R_SMALL R the ratio zeta/|x|^2 is held at its value at
#: R_SMALL R, so the map and its derivatives stay finite at the origin
R_SMALL = 1e-3


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
        self.dcoefs = self.coefs @ panels.diff_matrix().T

    def _eval(self, r, theta, *parts):
        """The parts ("value", "d_r" or "d_theta") of zeta at the points
        (r, theta), from one interp_rows build."""
        r = np.asarray(r, dtype=float)
        theta = (np.asarray(theta, dtype=float) * np.ones_like(r)).ravel()
        T = self.panels.interp_rows(np.clip(r.ravel(), 0.0, self.R_dom))
        Y = None if parts == ("d_theta",) else Ytilde(self.ells, np.cos(theta))
        out = []
        for part in parts:
            coefs = self.dcoefs if part == "d_r" else self.coefs
            ang = dY_dtheta(self.ells, theta) if part == "d_theta" else Y
            acc = np.zeros(r.size)
            for c, row in zip(coefs, ang):
                acc += (T @ c) * row
            out.append(acc.reshape(r.shape))
        return out

    def value(self, r, theta):
        return self._eval(r, theta, "value")[0]

    def d_r(self, r, theta):
        return self._eval(r, theta, "d_r")[0]

    def d_theta(self, r, theta):
        return self._eval(r, theta, "d_theta")[0]

    def ratio(self, r, theta):
        """zeta/|x|^2, held at its value at r_small inside r_small."""
        rr = np.maximum(np.asarray(r, dtype=float), self.r_small)
        return self.value(rr, theta) / rr ** 2

    def ratio_and_stretch(self, r, theta):
        """ratio and r d(ratio)/dr under the same clamp (the stretch is zero
        inside r_small), so the radial stretch of g_zeta is
        1 + ratio + stretch."""
        r = np.asarray(r, dtype=float)
        rr = np.maximum(r, self.r_small)
        v, d = self._eval(rr, theta, "value", "d_r")
        ratio = v / rr ** 2
        return ratio, np.where(r >= self.r_small, d / rr - 2.0 * ratio, 0.0)

    def xnorm(self):
        r = np.linspace(self.R_dom / 120, self.R_dom, 120)
        th = np.linspace(1e-3, np.pi / 2, 25)
        R, T = np.meshgrid(r, th, indexing="ij")
        zr, zt = self._eval(R, T, "d_r", "d_theta")
        return float(np.max(np.sqrt(zr ** 2 + (zt / R) ** 2) / R))


class Discretization:
    """Grids and mode set for the nonlinear solvers."""

    def __init__(self, R, ells=(0, 2, 4, 6, 8, 10, 12), n_rc=48, order=8,
                 n_mu=24, n_rt=104, n_sub=12, n_ru=64, n_ann=8):
        self.R = float(R)
        self.ells = tuple(ells)
        self.order = order
        self.n_sub = n_sub
        self.n_ann = n_ann   # radial panels across the deformed-boundary band
        self.panels_c = Panels.graded(R, n_rc, order)   # collocation / unknowns
        self.n_rt = n_rt                                 # source-grid budget
        xm, wm = gl_nodes(n_mu)
        self.mu = 0.5 * (xm + 1.0)
        self.wmu = 0.5 * wm
        self.theta = np.arccos(self.mu)
        self.sin_theta = np.sqrt(1.0 - self.mu ** 2)
        self.Yt = Ytilde(ells, self.mu)                               # (n_l, n_mu)
        self.proj = 4.0 * np.pi * self.wmu[None, :] * self.Yt         # full-sphere modes
        self.panels_u = Panels.graded(R, n_ru, order)   # undeformed volume grid
        # rows taking nodal values on panels_c to the ratio and stretch of
        # ModalField.ratio_and_stretch on panels_u
        self.r_small = R_SMALL * self.R
        ru = self.panels_u.x
        rr = np.maximum(ru, self.r_small)[:, None]
        T = self.panels_c.interp_rows(rr[:, 0])
        self.ratio_cu = T / rr ** 2
        self.stretch_cu = np.where(
            ru[:, None] >= self.r_small,
            (T @ self.panels_c.diff_matrix()) / rr - 2.0 * T / rr ** 2, 0.0)


class Geometry:
    """Deformation-dependent caches shared by the residual and the Newton
    matrix for one zeta, plus the fields of each model evaluated on it
    (model_fields).

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
        n_mu = len(th)

        # deformed boundary radius per quadrature colatitude
        self.tb = R * (1.0 + zeta.ratio(np.full(n_mu, R), th))
        tb_min, tb_max = float(np.min(self.tb)), float(np.max(self.tb))

        # physical-space source panels: graded bulk + boundary annulus fine
        # enough to control the density cusp crossing it per colatitude
        bulk = Panels.graded(tb_min, disc.n_rt, disc.order)
        if tb_max - tb_min > 1e-13 * R:
            k = np.linspace(tb_min, tb_max, disc.n_ann + 1)
            edges = np.concatenate([bulk.edges, k[1:]])
        else:
            edges = bulk.edges
        self.panels_t = Panels(edges, disc.order)
        tq = self.panels_t.x
        self.tq = tq

        # inverse map z(y) on the source grid, one column per colatitude
        T2, TH2 = np.meshgrid(tq, th, indexing="ij")
        self.inside = T2 <= self.tb[None, :] * (1.0 + 1e-14)
        z = T2.copy()
        for _ in range(200):
            zn = T2 / (1.0 + zeta.ratio(z, TH2))
            if np.max(np.abs(zn - z)) < 1e-13 * R:
                z = zn
                break
            z = zn
        else:
            raise DeformationError(
                "ray inversion did not converge in 200 iterations")
        self.z0 = np.where(self.inside, np.minimum(z, R), np.nan)
        self.T2, self.TH2 = T2, TH2

        # radial stretch of the dilating map at the source points
        ratio, stretch = zeta.ratio_and_stretch(
            np.where(self.inside, self.z0, R), TH2)
        self.g1_src = 1.0 + ratio + stretch

        # deformed radii of the collocation targets
        rc = disc.panels_c.x
        RC, THC = np.meshgrid(rc, th, indexing="ij")
        self.rc, self.RC, self.THC = rc, RC, THC
        lam_t = 1.0 + zeta.ratio(RC, THC)
        self.s_t = RC * lam_t
        self.lam_t = lam_t

        # potential matrices per mode at the deformed target radii (+ origin)
        s_flat = self.s_t.ravel()
        self.A = {}
        self.Ap = {}
        mats = mode_potential_matrices(self.panels_t, disc.ells, s_flat,
                                       n_sub=disc.n_sub)
        for l, (A, Ap) in zip(disc.ells, mats):
            self.A[l] = A
            self.Ap[l] = Ap
        [(A0z, _)] = mode_potential_matrices(self.panels_t, (0,), [0.0],
                                             n_sub=disc.n_sub)
        self.A0_zero = A0z[0]

        # undeformed volume grid caches (mass factor, M'(zeta)xi)
        ru = disc.panels_u.x
        RU, THU = np.meshgrid(ru, th, indexing="ij")
        self.RU, self.THU = RU, THU
        self.rho_u = star.rho0_of(ru)
        ratio, stretch = zeta.ratio_and_stretch(RU, THU)
        self.lam_u = 1.0 + ratio
        self.g1_u = self.lam_u + stretch
        self.det_u = self.lam_u ** 2 * self.g1_u
        if np.any(self.det_u <= 0):
            raise DeformationError("fold: det Dg <= 0 on the volume grid")
        # int rho0 det Dg dx (weights: 2 * 2 pi t^2 dt dmu, evenness doubled)
        wu = disc.panels_u.w * ru ** 2
        self.vol_rho_det = 4.0 * np.pi * np.einsum(
            "i,ij,j->", wu, self.rho_u[:, None] * self.det_u, disc.wmu)

    # ------------------------------------------------------------------

    def model_fields(self, model, kappa):
        """model.fields(self, kappa), computed once per model and kappa."""
        key = (model, kappa)
        if key not in self._fields:
            self._fields[key] = model.fields(self, kappa)
        return self._fields[key]

    def project_modes(self, vals):
        """Mode profiles (n_l, n_r, ...) of fields (n_r, n_mu, ...) sampled
        at the quadrature colatitudes (source grid or collocation targets);
        trailing axes index a batch of fields."""
        return np.einsum("lj,ij...->li...", self.disc.proj, vals)

    def potential_at_targets(self, sigma, deriv=False):
        """Potential (and optionally d/ds) fields at the collocation targets
        from mode source profiles sigma (n_l, n_tq, ...); also the origin
        value.  Trailing axes of sigma index a batch of sources."""
        shp = self.s_t.shape + sigma.shape[2:]
        yshape = (1, -1) + (1,) * (sigma.ndim - 2)
        V = np.zeros(shp)
        Vp = np.zeros(shp) if deriv else None
        for i, l in enumerate(self.disc.ells):
            Y = self.disc.Yt[i].reshape(yshape)
            V += (self.A[l] @ sigma[i]).reshape(shp) * Y
            if deriv:
                Vp += (self.Ap[l] @ sigma[i]).reshape(shp) * Y
        V0 = (self.A0_zero @ sigma[0]) * Ytilde([0], 1.0)[0]
        if deriv:
            return V, Vp, V0
        return V, V0

    def volume_integral_src(self, vals_src):
        """Integral over the ball of a field sampled on the source grid."""
        wt = self.panels_t.w * self.tq ** 2
        return 4.0 * np.pi * np.einsum("i,ij,j->", wt, vals_src, self.disc.wmu)

    # derivative pieces on the Newton basis -------------------------------

    def vol_rho_det_gradient(self):
        """Derivative of vol_rho_det = int rho0 det Dg dx along every basis
        field, shape (n_l n_c,), by the trace formula on the undeformed
        volume grid."""
        disc = self.disc
        ru = disc.panels_u.x
        W = 4.0 * np.pi * (disc.panels_u.w * ru ** 2 * self.rho_u)[:, None] \
            * self.det_u * disc.wmu[None, :]
        # d(det Dg)/det Dg = 2 ratio/lam + (ratio + stretch)/g1 of xi
        w_ratio = W * (2.0 / self.lam_u + 1.0 / self.g1_u)
        w_stretch = W / self.g1_u
        return (np.einsum("ij,kj,ic->kc", w_ratio, disc.Yt, disc.ratio_cu)
                + np.einsum("ij,kj,ic->kc", w_stretch, disc.Yt,
                            disc.stretch_cu)).ravel()

    def _source_basis(self, c):
        """Per source point, |z0| xi.ratio(z0) of the basis fields (the
        inverse map moves z0 by -|z0| xi.ratio(z0)/g1 along xi), scaled
        by c on the source grid, as factors for a contraction over
        colatitudes: returns (rows (n_tq, n_mu, n_c), weights
        c[i, j] Y_k(mu_j))."""
        if self._src_rows is None:
            zz = np.where(self.inside, self.z0, self.star.R)
            rr = np.maximum(zz, self.disc.r_small)
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
        lhs = disc.proj[None, :, None, :] * cY[:, None, :, :]
        sigma = (lhs.reshape(n_tq, n_l * n_l, -1) @ rows).reshape(
            n_tq, n_l, n_l * n_c).transpose(1, 0, 2)
        V, V0 = self.potential_at_targets(sigma)
        return self.project_modes(V - V0).reshape(n_l * len(self.rc), -1)

    def source_integral_gradient(self, c):
        """Volume integral over the source grid of q = c |z0| xi.ratio(z0)
        for every basis field, shape (n_l n_c,)."""
        rows, cY = self._source_basis(c)
        wt = 4.0 * np.pi * self.panels_t.w * self.tq ** 2
        w = wt[:, None, None] * cY * self.disc.wmu[None, None, :]
        return np.einsum("ikj,ijc->kc", w, rows).ravel()

    def target_jacobian(self, weight):
        """Projected residual modes of weight * xi at the collocation targets
        for every basis field.  The targets sit on the nodes of
        disc.panels_c, where the basis field e_c Y_k is delta_ic Y_k, so the
        matrix is block diagonal in the radial node."""
        disc = self.disc
        n_l, n = len(disc.ells), len(self.rc)
        blk = np.einsum("lj,ij,kj->ilk", disc.proj, weight, disc.Yt)
        J = np.zeros((n_l, n, n_l, n))
        idx = np.arange(n)
        J[:, idx, :, idx] = blk
        return J.reshape(n_l * n, n_l * n)
