"""Single-direction reference for the Newton matrix.

frechet_apply evaluates the directional derivative dF(zeta, kappa)[xi] of a
model's residual term by term, for one ModalField xi.  The solver never
calls it: it assembles model.jacobian on all basis fields at once.  The
tests compare the two column by column and check this reference against
finite differences of the residual.
"""

import numpy as np

from rotstar.axisym import Discretization, Geometry
from rotstar.vlasov import VPModel


def ep_derivative(model, geo, kappa, xi):
    star, disc = model.star, geo.disc
    f = geo.model_fields(model, kappa)
    mfac = f["mfac"]

    # mass-factor derivative: trace formula on the undeformed volume grid
    ratio_u = xi.ratio(geo.RU, geo.THU)
    tr = 2.0 * ratio_u / geo.lam_u \
        + (ratio_u + xi.stretch(geo.RU, geo.THU)) / geo.g1_u
    wu = disc.panels_u.w * disc.panels_u.x ** 2
    integral = 4.0 * np.pi * np.einsum(
        "i,ij,j->", wu, geo.rho_u[:, None] * geo.det_u * tr, disc.wmu)
    mfac_p = -star.mass / geo.vol_rho_det ** 2 * integral

    # transported-density derivative: potential of
    # q(z) = rho0'(z) |z| xi.ratio(z) / (radial stretch)
    zz = np.where(geo.inside, geo.z0, star.R)
    q_src = np.zeros_like(geo.T2)
    msk = geo.inside
    rho0p_z = star.rho0p_of(zz)
    q_src[msk] = rho0p_z[msk] * (zz * xi.ratio(zz, geo.TH2))[msk] \
        / geo.g1_src[msk]
    sig_q = geo.project_modes(q_src)
    Vq, Vq0 = geo.potential_at_targets(sig_q)

    xi_t = xi.value(geo.RC, geo.THC)
    r_cyl = geo.s_t * disc.sin_theta[None, :]
    omega2 = model.profile.omega_sq(r_cyl.ravel()).reshape(r_cyl.shape)

    rho_c = star.rho0_of(geo.rc)
    rho_00 = float(star.rho0_of(0.0)[0])
    dh_c = star.eos.dh(mfac * rho_c)
    dh_0 = float(star.eos.dh(mfac * rho_00))

    out = mfac_p * (f["V"] - f["V0"])                         # M' F1
    out += mfac * (-(Vq - Vq0))                               # moved density
    out += mfac * f["Vp"] * (xi_t / geo.RC)                   # moved target
    out += kappa * omega2 * r_cyl * xi_t * disc.sin_theta[None, :] / geo.RC
    out += (-dh_c * rho_c + dh_0 * rho_00)[:, None] * mfac_p  # enthalpy terms
    return out


def vp_derivative(model, geo, kappa, xi):
    f = geo.model_fields(model, kappa)
    zz = np.where(geo.inside, geo.z0, model.star.R)
    dw = np.where(geo.inside,
                  model.ansatz.dw_du(kappa, f["r_cyl_y"], f["u_z"]), 0.0)
    u0p_z = model.star.u0p_of(zz)
    q_src = dw * u0p_z \
        * np.where(geo.inside, zz * xi.ratio(zz, geo.TH2), 0.0) / geo.g1_src
    sig_q = geo.project_modes(q_src)
    Vq, Vq0 = geo.potential_at_targets(sig_q)
    xi_t = xi.value(geo.RC, geo.THC)
    mfac = f["mfac"]
    Mcal_p = -geo.volume_integral_src(q_src)
    out = -mfac * (Vq - Vq0)
    out += mfac * f["Vp"] * (xi_t / geo.RC)
    out += -(mfac * Mcal_p / f["Mcal"]) * (f["V"] - f["V0"])
    return out


def frechet_apply(zeta, kappa, xi, model, disc=None, geo=None):
    """Directional derivative dF(zeta, kappa)[xi] of model at the collocation
    targets.

    xi is a ModalField; zeta may be None for the undeformed state."""
    if geo is None:
        geo = Geometry(zeta, model.star, disc or Discretization(model.star.R))
    derivative = vp_derivative if isinstance(model, VPModel) else ep_derivative
    return derivative(model, geo, kappa, xi)
