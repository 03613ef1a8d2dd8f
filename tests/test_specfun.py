import math

import numpy as np
import pytest
import scipy.special

import mpmath

from fracspectral.specfun import (ArgumentOutOfRange, BParameterPole,
                                  OrderTooLarge, PoleAtNonPositiveInteger,
                                  gamma, hurwitz_zeta, kummer_1f1, kummer_1f1_series,
                                  zeta_negative)

SQRT_PI = math.sqrt(math.pi)


# --- gamma -----------------------------------------------------------------

def test_gamma_pinned_values():
    assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-14)
    assert gamma(1.5) == pytest.approx(SQRT_PI / 2, rel=1e-14)
    assert gamma(0.75) == pytest.approx(1.2254167024651776, rel=1e-13)
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)


def test_gamma_against_mpmath_on_positive_axis():
    # the whole range where Gamma is finite, up to just below its overflow
    xs = np.concatenate([np.linspace(0.01, 171.6, 500), [142.3, 150.0, 171.5]])
    worst = 0.0
    with mpmath.workdps(40):
        for x in map(float, xs):
            ref = mpmath.gamma(mpmath.mpf(x))
            worst = max(worst, float(abs((mpmath.mpf(gamma(x)) - ref) / ref)))
    assert worst <= 2e-15


def test_gamma_recurrence():
    for x in np.linspace(0.1, 9.9, 60):
        assert gamma(float(x) + 1.0) == pytest.approx(float(x) * gamma(float(x)),
                                                      rel=1e-12)


def test_gamma_reflection_negative_axis():
    assert gamma(-0.5) == pytest.approx(-2 * SQRT_PI, rel=1e-12)
    assert gamma(-1.5) == pytest.approx(4 * SQRT_PI / 3, rel=1e-12)
    for x in (-0.3, -2.7, -7.1):
        assert gamma(x) == pytest.approx(float(mpmath.gamma(x)), rel=1e-11)


def test_gamma_poles():
    for x in (0.0, -1.0, -2.0, -17.0):
        with pytest.raises(PoleAtNonPositiveInteger):
            gamma(x)


def test_gamma_non_finite_argument_is_typed():
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ArgumentOutOfRange, match="finite"):
            gamma(x)


def test_gamma_overflow_is_typed():
    assert math.isfinite(gamma(141.0))
    assert math.isfinite(gamma(171.5))
    for x in (171.7, 200.5, 1e6):
        with pytest.raises(OrderTooLarge):
            gamma(x)


# --- Kummer 1F1 ------------------------------------------------------------

def test_kummer_pinned_identities():
    # members of the exponential family with closed forms
    assert kummer_1f1(0.5, 0.5, -1.0) == pytest.approx(math.exp(-1), rel=1e-12)
    assert kummer_1f1(1.5, 0.5, -1.0) == pytest.approx(-math.exp(-1), rel=1e-12)
    assert kummer_1f1(0.3, 0.7, 0.0) == 1.0
    assert kummer_1f1(1.0, 2.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-12)
    assert kummer_1f1(2.0, 2.0, 3.0) == pytest.approx(math.exp(3.0), rel=1e-12)


def test_kummer_terminating_polynomial():
    # negative integer a terminates the series exactly
    for z in (-3.0, 0.7, 5.0):
        assert kummer_1f1(-2.0, 1.0, z) == pytest.approx(
            1.0 - 2.0 * z + 0.5 * z * z, rel=1e-14)


def test_kummer_against_scipy_grid():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(300):
        a = rng.uniform(-4.0, 6.0)
        b = rng.uniform(0.1, 6.0)
        z = rng.uniform(-30.0, 30.0)
        ref = scipy.special.hyp1f1(a, b, z)
        if not np.isfinite(ref) or abs(ref) < 1e-200:
            continue
        worst = max(worst, abs(kummer_1f1(a, b, z) - ref) / abs(ref))
    assert worst < 1e-10


def test_kummer_negative_argument_uses_stable_route():
    # alternating series would lose ~all digits here; the transformed
    # route keeps full precision
    ref = scipy.special.hyp1f1(0.25, 0.5, -225.0)
    assert kummer_1f1(0.25, 0.5, -225.0) == pytest.approx(ref, rel=1e-10)


def test_kummer_b_pole():
    for b in (0.0, -1.0, -3.0):
        with pytest.raises(BParameterPole):
            kummer_1f1(0.5, b, 1.0)


def test_kummer_argument_cap():
    with pytest.raises(ArgumentOutOfRange):
        kummer_1f1(0.5, 1.5, 401.0)
    with pytest.raises(ArgumentOutOfRange):
        kummer_1f1(0.5, 1.5, -401.0)
    kummer_1f1(0.5, 1.5, 399.0)          # inside the cap


def test_series_variant_small_arguments_only():
    assert kummer_1f1_series(0.5, 1.5, 2.0) == pytest.approx(
        kummer_1f1(0.5, 1.5, 2.0), rel=1e-12)
    assert kummer_1f1_series(0.5, 1.5, -3.0) == pytest.approx(
        scipy.special.hyp1f1(0.5, 1.5, -3.0), rel=1e-10)
    with pytest.raises(ArgumentOutOfRange):
        kummer_1f1_series(0.5, 1.5, 8.0)


def test_kummer_non_finite_argument_and_overflow_are_typed():
    for a, b, z in ((math.nan, 0.5, 1.0), (0.5, math.inf, 1.0), (0.5, 0.5, math.nan),
                    (0.5, 0.5, -math.inf)):
        with pytest.raises(ArgumentOutOfRange, match="finite"):
            kummer_1f1(a, b, z)
        with pytest.raises(ArgumentOutOfRange, match="finite"):
            kummer_1f1_series(a, b, z)
    for a, z in ((1e300, 1.0), (1e300, -1.0)):
        with pytest.raises(OrderTooLarge, match="overflows"):
            kummer_1f1(a, 0.5, z)
        with pytest.raises(OrderTooLarge, match="overflows"):
            kummer_1f1_series(a, 0.5, z)


# --- Hurwitz zeta ----------------------------------------------------------

def test_hurwitz_zeta_against_scipy():
    s = np.concatenate([1.0 + np.logspace(-6, 0, 13), np.linspace(2.0, 12.0, 41)])
    q = np.linspace(0.5, 1.5, 101)
    got = hurwitz_zeta(s[:, None], q[None, :])
    ref = scipy.special.zeta(s[:, None], q[None, :])
    assert np.max(np.abs(got - ref) / ref) < 1e-14


def test_hurwitz_zeta_pinned_values():
    assert hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-15)
    # zeta(s, 1/2) = (2^s - 1) zeta(s)
    assert hurwitz_zeta(4.0, 0.5) == pytest.approx(15 * math.pi ** 4 / 90, rel=1e-14)
    assert isinstance(hurwitz_zeta(3.0, 2.0), float)


def test_hurwitz_zeta_at_large_s():
    # past the first term every (q + k)^(-s) underflows
    assert hurwitz_zeta(1e21, 1.0) == 1.0
    assert hurwitz_zeta(1e21, 2.0) == 0.0
    assert hurwitz_zeta(1e300, 1.0) == 1.0
    for s, q in ((2000.0, 0.5), (1e300, 0.5)):
        with pytest.raises(OrderTooLarge, match="overflows"):
            hurwitz_zeta(s, q)
    # on both sides of the cap on the tail's s the values hold
    for s in (100.0, 225.0, 399.0, 401.0):
        for q in (0.5, 1.0, 1.5):
            with mpmath.workdps(30):
                ref = mpmath.zeta(s, q)
                assert float(abs((hurwitz_zeta(s, q) - ref) / ref)) < 1e-15, (s, q)


def test_hurwitz_zeta_domain():
    with pytest.raises(ArgumentOutOfRange):
        hurwitz_zeta(1.0, 1.0)
    with pytest.raises(ArgumentOutOfRange):
        hurwitz_zeta(2.0, np.array([0.5, 0.0]))


# --- zeta at negative arguments --------------------------------------------

def test_zeta_negative_against_mpmath():
    worst = 0.0
    # 2 + 1e-7: next to a trivial zero the sine keeps its relative accuracy
    for t in np.append(np.linspace(0.0, 40.0, 801), 2.0 + 1e-7):
        got = zeta_negative(float(t))
        with mpmath.workdps(30):
            ref = mpmath.zeta(-mpmath.mpf(float(t)))
            if ref == 0:
                assert got == 0.0, t             # trivial zeros at even t > 0
            else:
                worst = max(worst, float(abs((got - ref) / ref)))
    assert worst < 1e-13
    assert zeta_negative(0.0) == -0.5
    assert zeta_negative(1.0) == pytest.approx(-1.0 / 12.0, rel=1e-15)


def test_zeta_negative_domain():
    for t in (-0.5, math.nan, math.inf):
        with pytest.raises(ArgumentOutOfRange):
            zeta_negative(t)
    with pytest.raises(OrderTooLarge):
        zeta_negative(301.0)
