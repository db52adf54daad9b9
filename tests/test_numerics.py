import numpy as np
import pytest
from scipy.integrate import quad

from rotstar.errors import NoEventError
from rotstar.numerics import (Panels, Ytilde, dY_dtheta, gl_nodes,
                              integrate_ivp, smallest_singular_value)


def test_gauss_legendre_polynomial_exactness():
    # degree 2n-1 is integrated exactly by one panel of order n
    rng = np.random.default_rng(0)
    for n in (2, 5, 9):
        coef = rng.standard_normal(2 * n)
        f = np.polynomial.Polynomial(coef)
        exact = f.integ()(2.5) - f.integ()(-0.7)
        pan = Panels([-0.7, 2.5], n)
        assert pan.integrate(f(pan.x)) == pytest.approx(exact, rel=1e-13)


def test_gauss_legendre_validates_input():
    with pytest.raises(ValueError):
        Panels([1.0, 0.0], 4)
    with pytest.raises(ValueError):
        Panels([0.0, 1.0], 0)


def test_gauss_legendre_matches_quad():
    pan = Panels([0.0, 2.0], 40)
    val = pan.integrate(np.exp(-pan.x) * np.cos(3 * pan.x))
    ref, _ = quad(lambda t: np.exp(-t) * np.cos(3 * t), 0.0, 2.0)
    assert val == pytest.approx(ref, abs=1e-13)


def test_legendre_values():
    x = np.linspace(-1, 1, 11)
    norm = [np.sqrt((2 * l + 1) / (4 * np.pi)) for l in range(3)]
    assert np.allclose(Ytilde(0, x) / norm[0], 1.0)
    assert np.allclose(Ytilde(1, x) / norm[1], x)
    assert np.allclose(Ytilde(2, x) / norm[2], 0.5 * (3 * x ** 2 - 1))


def test_harmonics_orthonormal_on_sphere():
    # 2 pi int_0^pi Y_l Y_m sin(theta) dtheta = delta_lm
    mu, w = gl_nodes(64)
    for l in range(5):
        for m in range(5):
            val = 2 * np.pi * np.dot(w, Ytilde(l, mu) * Ytilde(m, mu))
            assert val == pytest.approx(1.0 if l == m else 0.0, abs=1e-13)


def test_dY_dtheta_matches_finite_differences():
    th = np.linspace(0.2, np.pi - 0.2, 17)
    h = 1e-6
    for l in (1, 2, 3, 6):
        fd = (Ytilde(l, np.cos(th + h)) - Ytilde(l, np.cos(th - h))) / (2 * h)
        assert np.max(np.abs(dY_dtheta(l, th) - fd)) < 1e-8


def test_dY_dtheta_vanishes_at_poles():
    assert dY_dtheta(3, np.array([0.0, np.pi])) == pytest.approx([0.0, 0.0])


def test_integrate_ivp_harmonic_oscillator_event():
    # y'' = -y from y(0)=1: first zero of y at pi/2
    sol = integrate_ivp(lambda t, y: [y[1], -y[0]], [1.0, 0.0], 0.0,
                        stop=lambda t, y: y[0], tol=1e-12, r_max=10.0,
                        require_event=True)
    assert sol.event_r == pytest.approx(np.pi / 2, abs=1e-10)
    assert sol.sol(1.0)[0] == pytest.approx(np.cos(1.0), abs=1e-10)


def test_integrate_ivp_missing_event_raises():
    with pytest.raises(NoEventError):
        integrate_ivp(lambda t, y: [0.0], [1.0], 0.0,
                      stop=lambda t, y: y[0], tol=1e-10, r_max=1.0,
                      require_event=True)


def test_smallest_singular_value_known_matrix():
    A = np.diag([3.0, 1.0, 0.25])
    assert smallest_singular_value(A) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        smallest_singular_value(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_panels_quadrature_and_interpolation():
    pan = Panels.graded(2.0, 48, order=8)
    f = pan.x ** 5 - 2 * pan.x ** 2
    assert pan.integrate(f) == pytest.approx(2.0 ** 6 / 6 - 2 * 2.0 ** 3 / 3,
                                             rel=1e-14)
    r = np.linspace(0.01, 1.99, 57)
    vals = pan.interp(f, r)
    assert np.max(np.abs(vals - (r ** 5 - 2 * r ** 2))) < 1e-12
    # interpolation is exact at the nodes themselves
    assert np.max(np.abs(pan.interp(f, pan.x) - f)) < 1e-13
    # the per-point kernel keeps the shape of r and matches the dense rows
    rr = np.stack([r, r[::-1]])
    assert np.array_equal(pan.interp(f, rr)[1], vals[::-1])
    assert np.allclose(pan.interp_rows(r) @ f, vals, rtol=0, atol=1e-13)


@pytest.mark.parametrize("r", [[1.5], [-1e-3], [0.5, 1.0 + 1e-12], [np.nan]])
def test_panels_interpolation_rejects_points_outside(r):
    pan = Panels.graded(1.0, 128, 8)
    with pytest.raises(ValueError, match="outside"):
        pan.interp_rows(r)
    with pytest.raises(ValueError, match="outside"):
        pan.interp(np.ones(len(pan)), r)


def test_panels_rejects_bad_edges():
    with pytest.raises(ValueError):
        Panels([0.0, 1.0, 0.5], 4)
