import numpy as np
import pytest

from rotstar.eos import power_law, power_sum, constant_rotation
from rotstar.radial import solve_radial
from rotstar.vlasov import VlasovAnsatz, solve_vp_radial


@pytest.fixture(scope="session")
def star15():
    return solve_radial(power_law(1.5), 1.0)


@pytest.fixture(scope="session")
def star2():
    with pytest.warns(UserWarning):
        eos = power_law(2.0)
    return solve_radial(eos, 1.0)


@pytest.fixture(scope="session")
def star43():
    return solve_radial(power_law(4.0 / 3.0), 1.0)


@pytest.fixture(scope="session")
def star_sum():
    return solve_radial(power_sum([(1.0, 1.5), (1.0, 1.8)]), 1.0)


@pytest.fixture(scope="session")
def rot_profile():
    return constant_rotation()


@pytest.fixture(scope="session")
def vp_ansatz():
    return VlasovAnsatz.matched_to_power_law(0.25, psi2=0.1)


@pytest.fixture(scope="session")
def vp_star(vp_ansatz):
    return solve_vp_radial(vp_ansatz, 1.0)


@pytest.fixture(scope="session")
def ep_shape(star15, rot_profile):
    from rotstar.rotating import first_order_shape
    return first_order_shape(star15, rot_profile)


@pytest.fixture(scope="session")
def ep_model(star15, rot_profile):
    from rotstar.rotating import EPModel
    return EPModel(star15, rot_profile)


@pytest.fixture(scope="session")
def vp_model(vp_star, vp_ansatz):
    from rotstar.vlasov import VPModel
    return VPModel(vp_star, vp_ansatz)


@pytest.fixture(scope="session")
def ep_solutions(star15, ep_model):
    from rotstar.axisym import Discretization
    from rotstar.rotating import newton_continue
    disc = Discretization(star15.R)
    # kappa = 2e-3 already pushes ||zeta||_X past the injectivity cap 0.1
    # for gamma = 1.5, so the schedule stops at 1e-3
    return newton_continue(ep_model, [5e-4, 1e-3], disc=disc)


@pytest.fixture(scope="session")
def vp_solutions(vp_star, vp_model):
    from rotstar.axisym import Discretization
    from rotstar.rotating import newton_continue
    disc = Discretization(vp_star.R)
    return newton_continue(vp_model, [1e-2, 2e-2], disc=disc)


def rand_deformation(rng, R, cap=0.04):
    """A smooth random axisymmetric even deformation with X-norm below cap,
    as a ModalField on the collocation panels of Discretization(R)."""
    from rotstar.axisym import ModalField
    from rotstar.numerics import Panels, Ytilde, gl_nodes
    c = rng.standard_normal(6) * 0.01

    def f(r, th):
        x = r / R
        m = np.cos(th)
        return (c[0] * x ** 2 + c[1] * x ** 3 + c[2] * x ** 2 * m ** 2
                + c[3] * x ** 4 * m ** 2 + c[4] * x ** 3 * (1 - m ** 2)
                + c[5] * x ** 4 * m ** 4) * R ** 2 * np.ones_like(r * th)

    # exact mode projections 2 pi int f Y_l dmu: f Y_l has degree <= 8 in mu
    pan = Panels.graded(R, 48, 8)
    ells = (0, 2, 4)
    mu, wmu = gl_nodes(8)
    vals = f(pan.x[:, None], np.arccos(mu)[None, :])
    coefs = [2.0 * np.pi * vals @ (wmu * Ytilde(l, mu)) for l in ells]
    z = ModalField(pan, ells, coefs)
    xn = z.xnorm()
    if xn > cap:
        z = ModalField(pan, ells, z.coefs * (cap / xn))
    return z


def shifted(zeta, xi, s):
    """The field zeta + s xi of two ModalFields on the same panels and modes."""
    from rotstar.axisym import ModalField
    return ModalField(zeta.panels, zeta.ells, zeta.coefs + s * xi.coefs)


def jacobian_column_error(model, geo, kappa):
    """Worst gap, relative to each column's max, between the columns of
    model.jacobian(geo, kappa) and the reference frechet_apply on the basis
    field of the column, projected onto the residual modes."""
    from reference import frechet_apply
    from rotstar.axisym import ModalField
    disc = geo.disc
    J = model.jacobian(geo, kappa)
    n_l, n_c = len(disc.ells), len(disc.panels_c)
    worst = 0.0
    for col in range(n_l * n_c):
        e = np.zeros((n_l, n_c))
        e[divmod(col, n_c)] = 1.0
        xi = ModalField(disc.panels_c, disc.ells, e)
        dF = frechet_apply(geo.zeta, kappa, xi, model, geo=geo)
        want = geo.project_modes(dF).ravel()
        worst = max(worst, np.max(np.abs(J[:, col] - want))
                    / np.max(np.abs(want)))
    return worst
