"""The dilating map g_zeta(x) = (1 + zeta(x)/|x|^2) x as Geometry applies it
to a ModalField, the path the Newton solver runs."""

import numpy as np
import pytest

from conftest import rand_deformation
from rotstar.axisym import EPS0, R_SMALL, Discretization, Geometry, ModalField
from rotstar.errors import DeformationError
from rotstar.numerics import Ytilde


@pytest.fixture(scope="module")
def disc15(star15):
    return Discretization(star15.R)


def radial_field(disc, p):
    """The l = 0 field zeta(x) = p(|x|) on the collocation panels."""
    pan = disc.panels_c
    return ModalField(pan, (0,), [p(pan.x) / Ytilde(0, 1.0)])


def test_uniform_field_basics(disc15):
    c = 0.03
    z = radial_field(disc15, lambda r: c * r * r)
    assert z.xnorm() == pytest.approx(2 * c, rel=1e-3)
    r = np.array([0.5, 1.5])
    th = np.array([0.3, 1.2])
    assert np.allclose(z.ratio(r, th), c, atol=1e-10)


def test_mass_factor_uniform_dilation(star15, disc15):
    # g = (1+c) x has det (1+c)^3, so the factor is (1+c)^-3
    c = 0.03
    geo = Geometry(radial_field(disc15, lambda r: c * r * r), star15, disc15)
    assert star15.mass / geo.vol_rho_det == pytest.approx((1 + c) ** -3,
                                                          rel=1e-9)


def test_apply_invert_roundtrip(star15, disc15):
    rng = np.random.default_rng(7)
    z = rand_deformation(rng, star15.R)
    geo = Geometry(z, star15, disc15)
    sel = geo.inside & (geo.z0 < star15.R)
    z0, th = geo.z0[sel], geo.TH2[sel]
    assert z0.size > 0
    assert np.max(np.abs(z0 * (1.0 + z.ratio(z0, th)) - geo.T2[sel])) < 1e-11


def _cartesian_map(z, x):
    """g_zeta at cartesian points x of shape (..., 3)."""
    r = np.linalg.norm(x, axis=-1)
    th = np.arccos(x[..., 2] / r)
    return (1.0 + z.ratio(r, th))[..., None] * x


def test_jacobian_det_matches_finite_volume(star15, disc15):
    # det Dg from Geometry vs numerical differentiation of g
    rng = np.random.default_rng(3)
    z = rand_deformation(rng, star15.R)
    geo = Geometry(z, star15, disc15)
    x0 = np.stack([geo.RU * np.sin(geo.THU), np.zeros_like(geo.RU),
                   geo.RU * np.cos(geo.THU)], axis=-1)
    h = 1e-6
    D = np.empty(geo.RU.shape + (3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        D[..., j] = (_cartesian_map(z, x0 + e)
                     - _cartesian_map(z, x0 - e)) / (2 * h)
    # every node, including those inside |x| < R_SMALL R where the ratio
    # zeta/|x|^2 is held constant
    assert np.any(geo.RU < R_SMALL * star15.R)
    rel = geo.det_u / np.linalg.det(D) - 1.0
    assert np.max(np.abs(rel)) < 1e-6


def test_fold_detection(star15, disc15):
    # a compressive shell just outside the star: the radial stretch turns
    # negative on the volume grid while the ray inversion still converges
    R = star15.R
    z = radial_field(disc15, lambda r: -0.2 * r ** 2
                     * np.exp(-((r - 1.1 * R) / (0.15 * R)) ** 2))
    with pytest.raises(DeformationError, match="fold"):
        Geometry(z, star15, disc15)


def test_eps0_value():
    assert EPS0 == 0.1
