"""Vlasov-Poisson steady states with a polytropic microscopic ansatz.

The phase-space density is f = phi(E, kappa r v) with
phi(E, L) = (-E)_+^{-mu} psi(L) and psi an even polynomial, so the spatial
density at rotation intensity kappa is

    w(kappa, r, u) = 2 pi int_{-u}^0 int_{-S}^{S} phi(E, kappa r s) ds dE,
    S = sqrt(2(E + u)),

closed-form in Beta functions; w(0, r, u) does not depend on r.  w and
dw/du are numerics.pointwise in (kappa, r, u): the three broadcast
together, and scalars give a 0-d array.  Their L^0 term, the psi0 part,
is the one-argument hinv(u) = w(0, r, u) with dhinv, and they add the
L^2 term where kappa != 0.  The radial star is
radial.solve_radial(ansatz, a), the Newton solve with the density law
hinv, and the same star as the matched polytrope's; the
rotation problem is VPModel, whose response from the sphere
(rotating.sphere_response), Newton continuation (rotating.newton_continue)
and l = 0 mass column (linop.assemble_mode, with Model's zero
mfac-derivative of the local term) are the Euler-Poisson model's.
"""

import math

import numpy as np

from .errors import EOSError
from .numerics import pointwise
from .rotating import Model


def beta_fn(a, b):
    """The Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b), a, b > 0."""
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


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
        """psi0 chosen so that w(0, r, u) equals the inverse enthalpy of the
        power law p = s^gamma with gamma = 1 + 1/(3/2 - mu)."""
        _check_mu(mu)
        n = 1.5 - mu
        gamma = 1.0 + 1.0 / n
        K = ((gamma - 1.0) / gamma) ** n
        psi0 = K / (4.0 * np.pi * np.sqrt(2.0) * beta_fn(1.0 - mu, 1.5))
        return cls(mu, psi0=psi0, psi2=psi2)

    def equivalent_gamma(self):
        return 1.0 + 1.0 / (1.5 - self.mu)

    # the radial star's density law h^-1(u) = w(0, r, u) and its derivative
    # are the L^0 term of w; w and dw_du add the L^2 (rotation) term only
    # where some kappa != 0: it is zero at kappa = 0, where its power of u
    # may overflow although w does not

    @pointwise
    def hinv(self, u):
        return self._cG * np.maximum(u, 0.0) ** (1.5 - self.mu)

    @pointwise
    def dhinv(self, u):
        out = self._cGp * np.maximum(u, 1e-300) ** (0.5 - self.mu)
        return np.where(u > 0, out, 0.0)

    @pointwise
    def w(self, kappa, r, u):
        out = self.hinv(u)
        if np.any(kappa):
            out += 0.5 * kappa ** 2 * r ** 2 * self._cK \
                * np.maximum(u, 0.0) ** (2.5 - self.mu)
        return out

    @pointwise
    def dw_du(self, kappa, r, u):
        out = self.dhinv(u)
        if np.any(kappa):
            out += np.where(u > 0, 0.5 * kappa ** 2 * r ** 2 * self._cKp
                            * np.maximum(u, 1e-300) ** (1.5 - self.mu), 0.0)
        return out


# ---------------------------------------------------------------------------
# nonlinear rotation problem


class VPModel(Model):
    """Vlasov-Poisson rotation problem on a star of solve_radial(ansatz, a):
    the ansatz, star.eos, is the density law w(kappa, r_cyl, u), and the
    local term a - u0 at the targets makes the residual
    a - u0 + mfac (V - V(0)).  Its kappa_forcing and dlocal_dmfac are
    Model's zeros: w is even in kappa, and the local term depends on
    neither kappa nor mfac."""

    def __init__(self, star):
        self.star = star
        self.w, self.dw_du = star.eos.w, star.eos.dw_du

    def local(self, geo, kappa, mfac):
        return (self.star.a - self.star.u0_of(geo.rc))[:, None]
