import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from fracspectral import specfun
from fracspectral.specfun import (ArgumentOutOfRange, BParameterPole,
                                  OrderTooLarge, PoleAtNonPositiveInteger,
                                  SeriesNotConverged, gamma, hurwitz_zeta, kummer_1f1,
                                  kummer_1f1_series, zeta_negative)
from fracspectral.spectral import ip_power

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
    mpmath = pytest.importorskip("mpmath")
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
    mpmath = pytest.importorskip("mpmath")
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
    scipy_special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(300):
        a = rng.uniform(-4.0, 6.0)
        b = rng.uniform(0.1, 6.0)
        z = rng.uniform(-30.0, 30.0)
        ref = scipy_special.hyp1f1(a, b, z)
        if not np.isfinite(ref) or abs(ref) < 1e-200:
            continue
        worst = max(worst, abs(kummer_1f1(a, b, z) - ref) / abs(ref))
    assert worst < 1e-10


def test_kummer_negative_argument_uses_stable_route():
    # alternating series would lose ~all digits here; the transformed
    # route keeps full precision
    scipy_special = pytest.importorskip("scipy.special")
    ref = scipy_special.hyp1f1(0.25, 0.5, -225.0)
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
    with pytest.raises(ArgumentOutOfRange):
        kummer_1f1_series(0.5, 1.5, 8.0)
    scipy_special = pytest.importorskip("scipy.special")
    assert kummer_1f1_series(0.5, 1.5, -3.0) == pytest.approx(
        scipy_special.hyp1f1(0.5, 1.5, -3.0), rel=1e-10)


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


def test_kummer_converges_up_to_the_largest_argument():
    # from |z| of about 335 on the transformed series needs more than 500 terms
    mpmath = pytest.importorskip("mpmath")
    for z in (-330.0, -360.0, -400.0):
        with mpmath.workdps(40):
            ref = mpmath.hyp1f1(0.75, 0.5, z)
            assert float(abs((kummer_1f1(0.75, 0.5, z) - ref) / ref)) < 1e-13, z


def test_kummer_series_past_its_cap_is_typed(monkeypatch):
    monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", 500)
    with pytest.raises(SeriesNotConverged, match="500 terms"):
        kummer_1f1(0.75, 0.5, -400.0)
    assert math.isfinite(kummer_1f1(0.75, 0.5, -300.0))


def _bits(values):
    """The float64 bit patterns of a float or complex array, signed zeros included."""
    return np.ascontiguousarray(values).view(np.int64)


def _series_with_an_int_counter(a, b, z):
    """The 1F1 series as it ran with an int step counter, the reference of _series's
    bits, under the cap as it reads at the call; None where it does not stop."""
    term = 1.0
    total = 1.0
    for j in range(specfun._SERIES_MAX_TERMS):
        term *= (a + j) * z / ((b + j) * (j + 1))
        total += term
        if abs(term) <= specfun._SERIES_RTOL * abs(total):
            return total
    return None


@pytest.mark.parametrize("cap, outcomes", [(1000, {"finite", "inf"}),
                                            (20, {"finite", "not converged"})])
def test_the_series_steps_bit_for_bit_as_with_an_int_counter(cap, outcomes, monkeypatch):
    # a float counter j takes the IEEE operations of an int one, which converts
    # exactly below 2^53; the cap is _SERIES_MAX_TERMS as patched, no other
    monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", cap)
    rng = np.random.default_rng(20431)
    n = 1500
    a = rng.uniform(-300.0, 300.0, n)
    b = rng.choice([0.5, 1.5, np.nan], n)
    b[np.isnan(b)] = rng.uniform(0.01, 50.0, np.isnan(b).sum())
    z = rng.uniform(0.0, 400.0, n)
    seen = set()
    for args in zip(a.tolist(), b.tolist(), z.tolist()):
        want = _series_with_an_int_counter(*args)
        if want is None:
            with pytest.raises(SeriesNotConverged, match=f"after {cap} terms$"):
                specfun._series(*args)
            seen.add("not converged")
        else:
            got = specfun._series(*args)
            assert _bits(np.array([got])) == _bits(np.array([want])), args
            seen.add("finite" if math.isfinite(want) else "inf")
    # the scan meets overflows to inf at the full cap, series that do not stop at 20
    assert seen == outcomes


# z = 0 (and -0), positive and negative z up to the cap at +-400
KUMMER_Z = np.concatenate([[0.0, -0.0, 1e-300, -1e-300, 400.0, -400.0],
                           np.linspace(-400.0, 400.0, 161), np.linspace(-4.0, 4.0, 33)])


@pytest.mark.parametrize("a", [-3.5, -1.0, 0.0, 0.5, 0.75, 1.25, 6.25, 100.0])
@pytest.mark.parametrize("b", [0.5, 1.5, 2.0, 7.25])
def test_kummer_over_an_array_is_the_scalar_call_bitwise(a, b):
    got = kummer_1f1(a, b, KUMMER_Z)
    want = np.array([kummer_1f1(a, b, float(z)) for z in KUMMER_Z])
    assert got.shape == KUMMER_Z.shape
    np.testing.assert_array_equal(_bits(got), _bits(want))


def test_kummer_over_an_array_keeps_the_shape():
    z = np.linspace(-9.0, 9.0, 12).reshape(3, 4)
    got = kummer_1f1(0.75, 0.5, z)
    assert got.shape == (3, 4)
    np.testing.assert_array_equal(_bits(got.ravel()),
                                  _bits(kummer_1f1(0.75, 0.5, z.ravel())))
    zero_d = kummer_1f1(0.75, 0.5, np.array(-2.0))
    assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
    assert zero_d == kummer_1f1(0.75, 0.5, -2.0)
    assert kummer_1f1(0.75, 0.5, np.array([])).shape == (0,)
    assert kummer_1f1(0.75, 0.5, np.zeros((2, 0))).shape == (2, 0)


def test_kummer_over_an_array_raises_typed_errors_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ArgumentOutOfRange, match="finite"):
                kummer_1f1(0.5, 1.5, np.array([1.0, bad, -2.0]))
        with pytest.raises(ArgumentOutOfRange, match="400.5 exceeds"):
            kummer_1f1(0.5, 1.5, np.array([1.0, -400.5, -2.0]))
        for z in (1.0, -1.0):
            with pytest.raises(OrderTooLarge, match="overflows"):
                kummer_1f1(1e300, 0.5, np.array([0.0, z]))
        with pytest.raises(BParameterPole):
            kummer_1f1(0.5, -2.0, np.array([1.0]))


def test_kummer_series_past_its_cap_is_typed_over_an_array(monkeypatch):
    monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", 500)
    with pytest.raises(SeriesNotConverged, match="500 terms"):
        kummer_1f1(0.75, 0.5, np.array([-300.0, -400.0, 0.0]))
    assert np.isfinite(kummer_1f1(0.75, 0.5, np.array([-300.0, 0.0, 300.0]))).all()



# rows of (a, b): the closed forms' own, a pole-free negative a, a large a and
# a b that differs per row
KUMMER_ROWS = [(0.75, 0.5), (1.25, 0.5), (1.25, 1.5), (2.75, 1.5), (-3.5, 2.0), (100.0, 7.25)]


def test_kummer_over_rows_is_each_row_s_own_call_bitwise():
    # a and b of shape (R, 1) against z of shape (n,): R rows from one series
    a, b = np.array(KUMMER_ROWS).T[..., None]
    got = kummer_1f1(a, b, KUMMER_Z)
    assert got.shape == (len(KUMMER_ROWS), KUMMER_Z.size)
    for row, (ai, bi) in zip(got, KUMMER_ROWS):
        np.testing.assert_array_equal(_bits(row), _bits(kummer_1f1(ai, bi, KUMMER_Z)))
    # an array a with a float b, and rows against a 2-d z
    np.testing.assert_array_equal(_bits(kummer_1f1(a, 0.5, KUMMER_Z)),
                                  _bits(np.array([kummer_1f1(ai, 0.5, KUMMER_Z) for ai in a.ravel()])))
    z = KUMMER_Z[:60].reshape(3, 20)
    stacked = kummer_1f1(a[:, :, None], b[:, :, None], z)
    assert stacked.shape == (len(KUMMER_ROWS), 3, 20)
    np.testing.assert_array_equal(_bits(stacked[4]), _bits(kummer_1f1(-3.5, 2.0, z)))
    # each element is the scalar call
    for i, j in ((0, 0), (1, 7), (5, 100), (3, KUMMER_Z.size - 1)):
        assert _bits(got[i, j]) == _bits(kummer_1f1(*KUMMER_ROWS[i], float(KUMMER_Z[j])))


def test_kummer_over_rows_raises_the_first_failing_row_s_error(monkeypatch):
    z = np.array([0.0, -1.0, 2.0])
    rows = lambda *pairs: [np.array(column)[:, None] for column in zip(*pairs)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the error names the failing row's own a, b and z
        with pytest.raises(OrderTooLarge, match=r"1F1\(1e\+300; 1\.5; -1\)"):
            kummer_1f1(*rows((0.5, 0.5), (1e300, 1.5), (1e301, 0.5)), z)
        with pytest.raises(BParameterPole, match="b=-2.0"):
            kummer_1f1(*rows((0.5, 0.5), (0.5, -2.0)), z)
        with pytest.raises(ArgumentOutOfRange, match="finite"):
            kummer_1f1(*rows((0.5, 0.5), (math.nan, 1.5)), z)
    # the first failing element in C order decides, so a series past its cap
    # and an overflow raise as when the rows are called one by one, in order
    monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", 500)
    far = np.array([-1.0, -400.0])
    for pairs in (((0.75, 0.5), (1e300, 0.5)), ((1e300, 0.5), (0.75, 0.5))):
        with pytest.raises((SeriesNotConverged, OrderTooLarge)) as stacked:
            kummer_1f1(*rows(*pairs), far)
        with pytest.raises((SeriesNotConverged, OrderTooLarge)) as first:
            for a, b in pairs:
                kummer_1f1(a, b, far)
        assert (type(stacked.value), str(stacked.value)) == (type(first.value), str(first.value))


def _first_scalar_error(function, *args):
    """(type, text) of the error of the scalar call on the first element, in C
    order over the broadcast shape, whose scalar call raises."""
    for element in zip(*(v.flat for v in np.broadcast_arrays(*args))):
        try:
            function(*(v.item() for v in element))
        except ValueError as exc:
            return type(exc), str(exc)
    raise AssertionError("no element fails")


@pytest.mark.parametrize("function, args", [
    # a |z| past the cap in row 0 comes before a pole at b in row 1
    (kummer_1f1, (np.array([[0.5], [0.5]]), np.array([[0.5], [-2.0]]), np.array([450.0, 0.0]))),
    (kummer_1f1, (np.array([[0.5], [0.5]]), np.array([[-2.0], [0.5]]), np.array([450.0, 0.0]))),
    (kummer_1f1, (0.5, np.array([0.5, -2.0]), np.array([450.0, 0.0]))),
    # an overflow before a series past its cap, and the other way round
    (kummer_1f1, (np.array([1e300, 0.75]), 0.5, np.array([-1.0, -400.0]))),
    (kummer_1f1, (np.array([0.75, 1e300]), 0.5, np.array([-400.0, -1.0]))),
    # an overflow in row 0 before a |z| past the cap there, and a later row's
    (kummer_1f1, (np.array([[1e300], [0.5]]), 0.5, np.array([0.0, -1.0, 450.0]))),
    (kummer_1f1, (np.array([[0.5], [1e300]]), 0.5, np.array([0.0, -1.0, 450.0]))),
    (kummer_1f1, (0.5, 1.5, np.array([1.0, -400.5, -2.0, 500.0]))),
    # the gates name the argument's first value that is not finite
    (kummer_1f1, (0.5, 1.5, np.array([1.0, math.nan, -math.inf]))),
    (kummer_1f1, (np.array([[0.5], [math.inf]]), 1.5, np.array([0.0, 1.0]))),
    # the element whose direct term overflows, not the range of the call
    (hurwitz_zeta, (np.array([1.5, 800.0]), np.array([0.2, 0.2]))),
    (hurwitz_zeta, (np.array([[2.0], [900.0], [2000.0]]), np.array([0.5, 0.1]))),
    (hurwitz_zeta, (np.array([2.0, 1.0]), 0.5)),
    (zeta_negative, (np.array([170.5, 171.5, math.nan]),)),
], ids=["rows_z_before_pole", "rows_pole_before_z", "b_z_before_pole",
        "overflow_before_series", "series_before_overflow", "rows_overflow_before_z",
        "rows_z_before_overflow", "z_first_far", "z_not_finite", "rows_a_not_finite",
        "zeta_pair", "zeta_rows", "zeta_gate", "zeta_negative"])
def test_an_array_call_raises_the_scalar_call_s_error_on_its_first_failing_element(
        function, args, monkeypatch):
    # with 500 terms the series at (0.75; 0.5; 400) does not converge
    monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", 500)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            function(*args)
        assert (type(err.value), str(err.value)) == _first_scalar_error(function, *args)


def test_a_refused_element_ends_the_array_call_before_any_series(monkeypatch):
    # a |z| past MAX_ABS_Z or a pole at b in the first element: the scalar
    # call's error, with no series run at all
    def no_series(*args):
        raise AssertionError("_series_array ran")

    monkeypatch.setattr(specfun, "_series_array", no_series)
    for args in ((0.5, 1.5, np.array([-1600.0, 0.0, 1.0])),
                 (0.5, 1.5, np.array([[1600.0], [1.0]])),
                 (0.5, np.array([-2.0, 0.5]), np.array([1.0, 2.0]))):
        with pytest.raises(ValueError) as err:
            kummer_1f1(*args)
        assert (type(err.value), str(err.value)) == _first_scalar_error(kummer_1f1, *args)
    with pytest.raises(ArgumentOutOfRange, match=r"^\|z\| = 1600.0 exceeds 400.0$"):
        kummer_1f1(0.5, 1.5, np.array([-1600.0, 0.0]))


def test_the_series_runs_on_the_elements_before_the_first_refused_one(monkeypatch):
    # (5000; 0.5; -399) overflows inside the series, before the refused |z| =
    # 1600: the scalar call on it raises, from a series over the first two elements
    sizes = []
    body = specfun._series_array

    def counted(a, b, z):
        sizes.append(z.size)
        return body(a, b, z)

    monkeypatch.setattr(specfun, "_series_array", counted)
    args = (np.array([0.5, 5000.0, 0.5, 0.5]), 0.5, np.array([1.0, -399.0, -1600.0, 2.0]))
    with pytest.raises(OrderTooLarge) as err:
        kummer_1f1(*args)
    assert (type(err.value), str(err.value)) == _first_scalar_error(kummer_1f1, *args)
    assert sizes == [2]
    # where the elements before it pass, the refused one raises
    sizes.clear()
    args = (np.array([0.5, 0.7, 0.5, 0.5]), 0.5, np.array([1.0, -3.0, -1600.0, 2.0]))
    with pytest.raises(ArgumentOutOfRange, match="exceeds"):
        kummer_1f1(*args)
    assert sizes == [2]


def test_array_gates_without_a_lower_bound_use_the_scalar_gate_s_words():
    with pytest.raises(ArgumentOutOfRange) as err:
        kummer_1f1(0.5, 1.5, np.array([-math.inf]))
    assert str(err.value) == "1F1 argument z must be finite, got -inf"
    with pytest.raises(ArgumentOutOfRange) as scalar:
        kummer_1f1(0.5, 1.5, -math.inf)
    assert str(scalar.value) == str(err.value)
    with pytest.raises(ArgumentOutOfRange) as err:
        ip_power(0.5, np.array([math.inf]))
    assert str(err.value) == "p must be finite, got inf"
    # a lower bound is still named
    with pytest.raises(ArgumentOutOfRange) as err:
        hurwitz_zeta(np.array([2.0]), np.array([0.0]))
    assert str(err.value) == "hurwitz_zeta q must be finite and > 0, got 0.0"


# --- Hurwitz zeta ----------------------------------------------------------

def test_hurwitz_zeta_gives_one_value_per_pair():
    # the direct and the Bernoulli terms are added in one order for every
    # shape, and a pair of scalars runs as 1-element arrays, so a scalar
    # call is bitwise the element of an array call
    s = np.concatenate([np.linspace(1.5, 30.0, 50), [2.0, 3.0, 1.5]])
    q = np.concatenate([np.linspace(0.5, 1.5, 50), [1e300, 1e150, 1e250]])
    scalar = np.array([hurwitz_zeta(float(si), float(qi)) for si, qi in zip(s, q)])
    np.testing.assert_array_equal(_bits(hurwitz_zeta(s, q)), _bits(scalar))
    grid = hurwitz_zeta(s[:, None], q[None, :])
    for i in range(0, s.size, 7):
        for j in range(0, q.size, 5):
            assert _bits(grid[i, j]) == _bits(hurwitz_zeta(float(s[i]), float(q[j]))), (i, j)
    assert hurwitz_zeta(2.0, 1e300) == hurwitz_zeta(np.array([2.0]), np.array([1e300]))[0]

def test_hurwitz_zeta_against_scipy():
    s = np.concatenate([1.0 + np.logspace(-6, 0, 13), np.linspace(2.0, 12.0, 41)])
    q = np.linspace(0.5, 1.5, 101)
    got = hurwitz_zeta(s[:, None], q[None, :])
    ref = pytest.importorskip("scipy.special").zeta(s[:, None], q[None, :])
    assert np.max(np.abs(got - ref) / ref) < 1e-14


def test_hurwitz_zeta_on_the_image_kernel_columns():
    # the image sum asks for s = 1 + a + j + r up to about 63 (order 5.2, 40
    # moments, 18 Taylor terms) at block centres q in 0.5 .. 1.5
    mpmath = pytest.importorskip("mpmath")
    s = np.linspace(12.0, 80.0, 35)
    q = np.linspace(0.5, 1.5, 11)
    got = hurwitz_zeta(s[:, None], q[None, :])
    with mpmath.workdps(30):
        for i, si in enumerate(s):
            for j, qj in enumerate(q):
                ref = mpmath.zeta(si, qj)
                assert float(abs((got[i, j] - ref) / ref)) < 1e-15, (si, qj)


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
    mpmath = pytest.importorskip("mpmath")
    for s in (100.0, 225.0, 399.0, 401.0):
        for q in (0.5, 1.0, 1.5):
            with mpmath.workdps(30):
                ref = mpmath.zeta(s, q)
                assert float(abs((hurwitz_zeta(s, q) - ref) / ref)) < 1e-15, (s, q)


def test_hurwitz_zeta_at_large_q():
    # zeta(s, q) ~ q^(1-s)/(s-1): the tail is scaled by w^(1-s), so it is
    # finite where w/(s-1) is not and keeps its digits where w^(-s) underflows
    # (from (2, 1e154) on); only a direct term that overflows raises
    with pytest.raises(OrderTooLarge, match="overflows"):
        hurwitz_zeta(2.0, 1e-200)
    cases = ((2.0, 1e150), (1.0000000001, 1e6), (3.0, 1e100),
             (2.0, 1e300), (2.0, 1e200), (3.0, 1e150), (2.0, 1e154), (1.5, 1e250),
             (1.0000000001, 1e300), (2.0, 1e308), (1.5, 1e308))
    in_one_call = hurwitz_zeta(np.array(cases)[:, 0], np.array(cases)[:, 1])
    mpmath = pytest.importorskip("mpmath")
    for (s, q), got in zip(cases, in_one_call):
        with mpmath.workdps(30):
            ref = mpmath.zeta(s, q)
            for value in (hurwitz_zeta(s, q), got):
                assert float(abs((value - ref) / ref)) < 1e-14, (s, q)


def test_hurwitz_zeta_domain():
    with pytest.raises(ArgumentOutOfRange):
        hurwitz_zeta(1.0, 1.0)
    with pytest.raises(ArgumentOutOfRange):
        hurwitz_zeta(2.0, np.array([0.5, 0.0]))


# --- zeta at negative arguments --------------------------------------------

def test_zeta_negative_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
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


def test_zeta_negative_next_to_zero_against_mpmath():
    # zeta(1+t) is taken at s = 1 + t rounded, so next to the pole the pole
    # term is moved back from 1/(s-1) to 1/t; below 1e-9 the Taylor
    # polynomial -1/2 + t ln(2 pi)/2 holds, down to the smallest subnormal
    rng = np.random.default_rng(24)
    ts = np.concatenate([[5e-324, 1e-320, 1e-300, 1e-17, 1.1e-16, 2.2e-16, 3e-16, 1e-14,
                          1e-10, 1e-9, 1.0000001e-9, 1e-6, 1e-4, 1.0],
                         np.logspace(-323, 0, 324), 10 ** rng.uniform(-12, 0, 300)])
    got = zeta_negative(ts)
    assert got.tobytes() == np.array([zeta_negative(t) for t in ts.tolist()]).tobytes()
    assert zeta_negative(5e-324) == -0.5
    assert zeta_negative(1e-10) == -0.5 + 1e-10 * 0.5 * math.log(2.0 * math.pi)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        errors = [float(abs((g - mpmath.zeta(-mpmath.mpf(t))) / mpmath.zeta(-mpmath.mpf(t))))
                  for t, g in zip(ts.tolist(), got.tolist())]
    # the Gamma, power, sine and zeta factors each round (math.gamma alone is
    # off by up to 6.5e-16 next to 1), so the worst case sits just above 1e-15
    assert max(errors) < 1.5e-15
    assert np.median(errors) < 3e-16


def test_zeta_negative_domain():
    for t in (-0.5, math.nan, math.inf):
        with pytest.raises(ArgumentOutOfRange):
            zeta_negative(t)
        with pytest.raises(ArgumentOutOfRange):
            zeta_negative(np.array([1.5, t]))
    with pytest.raises(OrderTooLarge):
        zeta_negative(301.0)


def test_zeta_negative_over_an_array_is_the_scalar_call():
    # t = 0 (-1/2), t = 1 (-1/12), the trivial zeros at even t (exact 0.0,
    # past the Gamma limit too), non-integers up to 170 and next to a zero
    ts = np.concatenate([[0.0, 1.0, 2.0 + 1e-7], np.arange(2.0, 302.0, 2.0),
                         np.linspace(0.0, 170.0, 1361), [170.5, 170.6]])
    got = zeta_negative(ts)
    want = np.array([zeta_negative(t) for t in ts.tolist()])
    assert got.dtype == float and got.shape == ts.shape
    assert got.tobytes() == want.tobytes()
    assert got[0] == -0.5 and got[1] == zeta_negative(1.0)
    assert not np.any(got[3:153])
    # any shape, 0-d and empty included
    assert zeta_negative(ts[:12].reshape(3, 4)).tobytes() == want[:12].tobytes()
    assert zeta_negative(np.array(2.5)).shape == ()
    assert zeta_negative(np.array(2.5))[()] == zeta_negative(2.5)
    assert zeta_negative(np.array([])).shape == (0,)


@pytest.mark.parametrize("t, value", [
    (2.5, "0x1.17152d4817de4p-7"),
    (np.float64(0.75), "-0x1.11b34d8c6a28dp-3"),
    (Fraction(7, 2), "0x1.230bce7271d51p-8"),
    (Decimal("1.25"), "-0x1.90a9545e22b08p-5"),
    (3, "0x1.1111111111111p-7"),
    (True, "-0x1.5555555555555p-4"),
    (False, "-0x1.0000000000000p-1"),
    (4, "0x0.0p+0"),
], ids=["float", "float64", "Fraction", "Decimal", "int", "True", "False", "even_int"])
def test_zeta_negative_of_a_real_number_is_a_float(t, value):
    got = zeta_negative(t)
    assert type(got) is float and got.hex() == value


@pytest.mark.parametrize("t", [[2.5], (2.5,), "2.5"], ids=["list", "tuple", "text"])
def test_zeta_negative_takes_only_an_ndarray_as_a_row(t):
    with pytest.raises(ArgumentOutOfRange, match="must be real"):
        zeta_negative(t)


def test_zeta_negative_over_a_row_that_crosses_the_gamma_limit():
    # the scalar call raises at 171.5 (Gamma(172.5) overflows) and returns the
    # exact zero at 172; the row raises that OrderTooLarge before any zeta is formed
    row = np.array([169.5, 170.5, 171.5, 172.0])
    with pytest.raises(OrderTooLarge, match=r"gamma\(172\.5\)") as info:
        zeta_negative(171.5)
    with pytest.raises(OrderTooLarge) as row_info:
        zeta_negative(row)
    assert str(row_info.value) == str(info.value)
    assert zeta_negative(row[:2]).tolist() == [zeta_negative(169.5), zeta_negative(170.5)]
    assert zeta_negative(np.array([172.0, 400.0])).tolist() == [0.0, 0.0]
    # the first element whose scalar call raises decides the error
    with pytest.raises(OrderTooLarge):
        zeta_negative(np.array([200.5, math.nan]))
    with pytest.raises(ArgumentOutOfRange, match="must be finite"):
        zeta_negative(np.array([math.nan, 200.5]))
