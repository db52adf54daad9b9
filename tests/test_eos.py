import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from rotstar.eos import (EquationOfState, RotationProfile,
                         check_mass_condition_b, constant_rotation, power_law,
                         power_sum, validate_assumptions)
from rotstar.errors import EOSError
from rotstar.vlasov import VlasovAnsatz


def test_power_law_enthalpy_closed_form():
    eos = power_law(1.5)
    s = np.array([0.5, 1.0, 2.0])
    assert np.allclose(eos.h(s), 3.0 * np.sqrt(s))
    assert np.allclose(eos.dh(s), 1.5 / np.sqrt(s))


def test_power_law_bounds():
    with pytest.raises(EOSError):
        power_law(1.0)
    with pytest.raises(EOSError):
        power_law(2.3)
    with pytest.warns(UserWarning):
        power_law(2.0)


@settings(max_examples=25, deadline=None)
@given(gamma=st.floats(1.05, 1.95), s=st.floats(1e-4, 1e3))
def test_power_law_hinv_roundtrip(gamma, s):
    eos = power_law(gamma)
    u = float(eos.h(s))
    assert float(eos.hinv(u)) == pytest.approx(s, rel=1e-10)


@pytest.mark.parametrize("eos", [
    power_law(1.5), power_sum([(1.0, 1.5), (1.0, 1.8)])],
    ids=["power_law", "power_sum"])
def test_scalar_in_gives_0d_array_out(eos):
    for name in ("p", "dp", "h", "dh", "hinv", "dhinv"):
        out = getattr(eos, name)(2.0)
        assert type(out) is np.ndarray and out.shape == (), name
        assert getattr(eos, name)(np.full((2, 3), 2.0)).shape == (2, 3), name
    J = constant_rotation(2.0).J
    assert type(J(0.5)) is np.ndarray and J(0.5).shape == ()
    assert np.allclose(J(np.full((2, 3), 0.5)), 4.0 * 0.25 / 2.0, rtol=1e-13)


@pytest.mark.parametrize("eos", [
    power_law(4.0 / 3.0), power_sum([(1.0, 1.5), (1.0, 1.8)]),
    VlasovAnsatz.matched_to_power_law(0.25)],
    ids=["power_law", "power_sum", "vlasov"])
def test_scalar_and_array_give_the_same_bits(eos):
    u = np.random.default_rng(1).uniform(0.0, 2.0, 2000)
    names = ["hinv", "dhinv"] + (["p", "dp", "h", "dh"]
                                 if isinstance(eos, EquationOfState) else [])
    for name in names:
        f = getattr(eos, name)
        scalar = np.array([f(x) for x in u])
        assert np.array_equal(scalar, f(u)), name


def test_generic_hinv_below_smallest_double_returns_subnormal():
    # h^-1(1e-15) is about 4e-330 for the gamma = 1.05 term: no double
    # lies between it and 0, so the bracket closes at the smallest double
    eos = power_sum([(1.0, 1.05), (1.0, 1.8)])
    tiny = np.nextafter(0.0, 1.0)
    assert 0.0 <= float(eos.hinv(1e-15)) <= tiny
    assert np.isfinite(eos.dhinv(1e-15))
    s = float(eos.hinv(1e-14))
    assert 1e-307 < s < 1e-306
    assert float(eos.h(s)) == pytest.approx(1e-14, rel=1e-13)


def test_power_sum_enthalpy_is_quadrature_of_dp_over_s():
    eos = power_sum([(1.0, 1.5), (2.0, 1.8)])
    for rho in (0.3, 1.0, 4.0):
        ref, _ = quad(lambda s: float(eos.dp(s)) / s, 0.0, rho)
        assert float(np.atleast_1d(eos.h(np.array([rho])))[0]) == \
            pytest.approx(ref, rel=1e-9)


def test_power_sum_generic_hinv_matches():
    eos = power_sum([(1.0, 1.5), (1.0, 1.8)])
    s = np.array([0.2, 1.3, 7.0])
    u = eos.h(s)
    assert np.allclose(eos.hinv(u), s, rtol=1e-10)
    # dhinv is the derivative of the inverse
    h = 1e-6
    fd = (eos.hinv(u + h) - eos.hinv(u - h)) / (2 * h)
    assert np.allclose(eos.dhinv(u), fd, rtol=1e-6)


@pytest.mark.parametrize("g", [1.2, 1.5, 1.8, 2.0])
def test_generic_hinv_matches_power_law_closed_form(g):
    # a one-term law inverts h in closed form; the generic Newton, which a
    # law of several terms runs, must agree with it
    u = np.concatenate([np.logspace(-16, 3, 400), [0.0, -1.0, -1e-300]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # gamma = 2 boundary
        eos = power_law(g)
    pos = u > 0
    for got, want in zip(eos._hinv_root(u), (eos.hinv(u), eos.dhinv(u))):
        assert np.max(np.abs(got[pos] / want[pos] - 1.0)) <= 1e-12
        assert np.all(got[~pos] == 0.0)


@pytest.mark.parametrize("g", [4.0 / 3.0, 1.5, 1.9])
def test_one_term_power_sum_is_the_power_law_bit_for_bit(g):
    # one law reached two ways is one law: the same gamma and the same bits
    u = np.append(np.logspace(-16, 3, 400), 0.0)
    law, one = power_law(g), power_sum([(1.0, g)])
    assert law.gamma == one.gamma == g
    for name in ("p", "dp", "h", "dh", "hinv", "dhinv"):
        assert np.array_equal(getattr(law, name)(u), getattr(one, name)(u)), \
            name
    # a coefficient other than 1 keeps the closed form exact
    eos = power_sum([(2.0, 1.5)])
    s = np.logspace(-8, 8, 50)
    assert np.max(np.abs(eos.hinv(eos.h(s)) / s - 1.0)) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(terms=st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(1.05, 2.0)),
                      min_size=1, max_size=3),
       logs=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=8))
def test_generic_hinv_roundtrip(terms, logs):
    eos = power_sum(terms)
    s = 10.0 ** np.array(logs)
    assert np.allclose(eos.hinv(eos.h(s)), s, rtol=1e-11, atol=0.0)


class _BoundedEnthalpy(EquationOfState):
    """h(s) = s/(1+s) < 1: h^-1(u) does not exist for u >= 1.  Built from
    two terms, so that it inverts h by the generic Newton."""

    def dp(self, s):
        return np.asarray(np.asarray(s, dtype=float) / (1.0 + s) ** 2)

    def h(self, rho):
        rho = np.asarray(rho, dtype=float)
        return np.asarray(rho / (1.0 + rho))


def test_generic_hinv_raises_when_bracket_never_closes():
    eos = _BoundedEnthalpy([(1.0, 1.5), (1.0, 1.8)])
    assert float(eos.hinv(0.5)) == pytest.approx(1.0, rel=1e-13)
    with pytest.raises(EOSError, match="h stays below u"):
        eos.hinv(2.0)
    with pytest.raises(EOSError):
        eos.dhinv(np.array([0.5, 2.0]))


def test_validate_assumptions_measures_exponents():
    rep = validate_assumptions(power_law(1.5))
    assert rep["passed"]
    assert rep["small_exp"] == pytest.approx(0.5, abs=1e-9)
    assert rep["large_exp"] == pytest.approx(0.5, abs=1e-9)
    # measured log-slopes on a finite grid: loose tolerance
    rep2 = validate_assumptions(power_sum([(1.0, 1.3), (1.0, 1.9)]))
    assert rep2["small_exp"] == pytest.approx(0.3, abs=1e-3)
    assert rep2["large_exp"] == pytest.approx(0.9, abs=1e-3)
    assert rep2["passed"]


def test_validate_assumptions_flags_shallow_large_s():
    # large-s exponent 0.15 falls below the 0.2 threshold
    rep = validate_assumptions(power_sum([(1.0, 1.05), (1.0, 1.15)]))
    assert not rep["pass_large"] and not rep["passed"]


def test_mass_condition_b_verdicts():
    assert check_mass_condition_b(
        power_sum([(1.0, 1.5), (1.0, 1.8)]))["passed"]
    # gamma = 1.5 pure power law sits exactly on the h = 2p' boundary
    rep = check_mass_condition_b(power_law(1.5))
    assert rep["passed"]
    assert rep["right_margin"] == pytest.approx(0.0, abs=1e-12)
    # gamma = 4/3 violates h <= 2p'
    rep43 = check_mass_condition_b(power_law(4.0 / 3.0))
    assert not rep43["passed"]
    assert rep43["right_margin"] < -0.3


def test_rotation_profile_cumulative(star15):
    prof = constant_rotation(2.0)
    r = np.array([0.5, 1.0, 3.0])
    assert np.allclose(prof.J(r), 4.0 * r ** 2 / 2.0, rtol=1e-13)
    prof2 = RotationProfile(lambda r: 1.0 / (1.0 + np.asarray(r) ** 2))
    assert np.allclose(prof2.J(r), 0.5 * np.log(1.0 + r ** 2), rtol=1e-12)
    # the Lorentzian omega^2(s) = 1/(1 + s^2/A^2) has J(r) = (A^2/2)
    # log1p(r^2/A^2); the fixed Gauss-Legendre rule of J keeps 1e-13
    # relative on [0, R] of the seed-0 star at A = R/2 and at the sharper
    # A = 0.1 (1e-15 and 5e-14 measured)
    r = np.linspace(0.0, star15.R, 513)
    for A in (star15.R / 2, 0.1):
        prof = RotationProfile(lambda s: 1.0 / (1.0 + s ** 2 / A ** 2))
        want = 0.5 * A ** 2 * np.log1p(r ** 2 / A ** 2)
        assert np.all(np.abs(prof.J(r) - want) <= 1e-13 * want), A
