import numpy as np
import pytest

from rotstar.eos import power_law, power_sum, constant_rotation
from rotstar.radial import mass_curve, mass_derivative, solve_radial
from rotstar.vlasov import VlasovAnsatz


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


#: a law whose mass curve turns: its M(a) has a minimum near a = 3.6
TURNING_TERMS = [(1.0, 1.25), (1.0, 1.8)]


@pytest.fixture(scope="session")
def turning_a():
    """The minimum a* of the TURNING_TERMS law's mass curve: the sign
    change of M' among 9 mass_curve samples on (2, 6), bisected on
    mass_derivative to 1e-9 relative."""
    law = power_sum(TURNING_TERMS)
    a, _, _, mp = mass_curve(law, (2.0, 6.0), 9).T
    i = np.flatnonzero(np.diff(np.sign(mp)))[0]
    lo, hi = a[i], a[i + 1]
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if np.sign(mass_derivative(solve_radial(law, mid))[0]) \
                == np.sign(mp[i]):
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))


@pytest.fixture(scope="session")
def rot_profile():
    return constant_rotation()


@pytest.fixture(scope="session")
def vp_ansatz():
    return VlasovAnsatz.matched_to_power_law(0.25, psi2=0.1)


@pytest.fixture(scope="session")
def vp_star(vp_ansatz):
    return solve_radial(vp_ansatz, 1.0)


@pytest.fixture(scope="session")
def ep_model(star15, rot_profile):
    from rotstar.rotating import EPModel
    return EPModel(star15, rot_profile)


@pytest.fixture(scope="session")
def ep43_model(star43, rot_profile):
    from rotstar.rotating import EPModel
    return EPModel(star43, rot_profile)


@pytest.fixture(scope="session")
def ep_shape(star15, ep_model):
    """The first-order response per unit kappa as perturb computes it, on
    256 collocation nodes."""
    from rotstar.axisym import Discretization
    from rotstar.rotating import sphere_response
    return sphere_response(ep_model, 1.0, Discretization(star15.R, n_rc=256))


@pytest.fixture(scope="session")
def vp_model(vp_star):
    from rotstar.vlasov import VPModel
    return VPModel(vp_star)


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
    coefs = [2.0 * np.pi * vals @ (wmu * Y) for Y in Ytilde(ells, mu)]
    z = ModalField(pan, ells, coefs)
    xn = z.xnorm()
    if xn > cap:
        z = ModalField(pan, ells, z.coefs * (cap / xn))
    return z


def radial_field(disc, p):
    """The l = 0 field zeta(x) = p(|x|) on the collocation panels of disc."""
    from rotstar.axisym import ModalField
    from rotstar.numerics import Ytilde
    pan = disc.panels_c
    return ModalField(pan, (0,), [p(pan.x) / Ytilde([0], 1.0)[0]])


def xi_at_R(field):
    """{l: xi_l(R)} of a ModalField whose panels end at R."""
    return {l: float(field.panels.interp(c, field.R_dom))
            for l, c in zip(field.ells, field.coefs)}


def oblateness_slope(field):
    """xi(R, pi/2)/R - xi(R, 0)/R: d(R_eq - R_pole)/dkappa for a response
    per unit kappa."""
    R = field.R_dom
    eq, pole = R * field.ratio(np.full(2, R), np.array([np.pi / 2, 0.0]))
    return float(eq - pole)


def zero_field(disc):
    """The zero deformation, a ModalField on the collocation panels of disc."""
    from rotstar.axisym import ModalField
    return ModalField(disc.panels_c, disc.ells,
                      np.zeros((len(disc.ells), len(disc.panels_c))))


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


def density_jacobian_error(model, geo, kappa):
    """Gap, relative to the block's max, between geo.density_jacobian and
    the reference dense_density_jacobian, for the moved-density weight
    c = w_u u0'(z0)/g1 of model.jacobian."""
    from reference import dense_density_jacobian
    dw = np.where(geo.inside, model.dw_du(kappa, geo.rcyl_src, geo.u_src),
                  0.0)
    c = dw * model.star.u0p_of(geo.z_src) / geo.g1_src
    want = dense_density_jacobian(geo, c)
    return np.max(np.abs(geo.density_jacobian(c) - want)) \
        / np.max(np.abs(want))
