import cmath
import math
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from fracspectral import oracles
from fracspectral.grid import EvaluationFailure, make_grid, sample
from fracspectral.oracles import (UNDEFINED, EigenstateSpec, FrequencyOffGrid,
                                  NonPositiveK, ToleranceNotReached,
                                  eigenstate_signal, exp_rule, gaussian_deriv, gaussian_hat,
                                  monomial_deriv, quadrature_reference,
                                  x2gaussian_deriv, x2gaussian_hat)
from fracspectral.specfun import ArgumentOutOfRange, OrderTooLarge
from fracspectral.quantum import uncertainty_bound
from fracspectral.spectral import (AlphaInForbiddenRange, NegativeAlpha, fractional_derivative,
                                  fractional_momentum)

# --- Gaussian closed form --------------------------------------------------

def test_gaussian_deriv_at_the_edge_of_the_closed_form_range():
    # x^2 = 380 and 400: the 1F1 series there runs past 500 terms
    mpmath = pytest.importorskip("mpmath")
    for x in (19.5, 20.0):
        with mpmath.workdps(40):
            a, mx = mpmath.mpf(0.5), mpmath.mpf(x)
            ref = 2 ** a / mpmath.sqrt(mpmath.pi) * (
                mpmath.cos(a * mpmath.pi / 2) * mpmath.gamma((1 + a) / 2)
                * mpmath.hyp1f1((1 + a) / 2, 0.5, -mx * mx)
                - a * mx * mpmath.sin(a * mpmath.pi / 2) * mpmath.gamma(a / 2)
                * mpmath.hyp1f1(1 + a / 2, 1.5, -mx * mx))
            assert float(abs((gaussian_deriv(0.5, x) - ref) / ref)) < 1e-13, x


def test_gaussian_deriv_integer_orders():
    for x in (-2.0, -0.5, 0.0, 1.0, 2.5):
        e = math.exp(-x * x)
        assert gaussian_deriv(0.0, x) == pytest.approx(e, rel=1e-12)
        assert gaussian_deriv(1.0, x) == pytest.approx(-2 * x * e, abs=1e-12)
        assert gaussian_deriv(2.0, x) == pytest.approx((4 * x * x - 2) * e,
                                                       rel=1e-11, abs=1e-12)
        assert gaussian_deriv(3.0, x) == pytest.approx((12 * x - 8 * x ** 3) * e,
                                                       rel=1e-10, abs=1e-11)


def test_gaussian_deriv_half_order_at_zero():
    # Gamma(3/4)/sqrt(pi)
    assert gaussian_deriv(0.5, 0.0).real == pytest.approx(0.6913673390362934,
                                                          rel=1e-12)
    assert abs(gaussian_deriv(0.5, 0.0).imag) < 1e-15


def test_gaussian_deriv_pinned_value_order_one():
    assert gaussian_deriv(1.0, 1.0).real == pytest.approx(-2 * math.exp(-1.0),
                                                          rel=1e-12)


def test_gaussian_deriv_real_but_not_even():
    # real even input makes the result real-valued, yet fractional orders
    # break the x -> -x symmetry
    for a in (0.3, 0.5, 1.7, 4.8):
        left = gaussian_deriv(a, -1.3)
        right = gaussian_deriv(a, 1.3)
        assert abs(left.imag) < 1e-12 and abs(right.imag) < 1e-12
        assert abs(left - right) > 1e-3


def test_gaussian_deriv_agrees_with_quadrature():
    for a in (0.02, 0.5, 1.5, 2.5, 5.2):
        for x in (-2.0, 0.0, 0.7, 3.0):
            assert abs(gaussian_deriv(a, x)
                       - quadrature_reference(gaussian_hat, a, x)) < 1e-8


def test_gaussian_deriv_domain_cap():
    # the series argument x^2 is capped at 400
    with pytest.raises(ArgumentOutOfRange):
        gaussian_deriv(0.5, 20.5)
    gaussian_deriv(0.5, 19.5)


def test_gaussian_deriv_negative_order_rejected():
    with pytest.raises(ValueError):
        gaussian_deriv(-0.5, 0.0)


def test_built_in_functions_are_zero_where_x2_overflows():
    # x^2 is past the largest double from |x| of about 1.34e154 on
    wide = np.array([1.4e154, -1e200, 1e308, -np.inf, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (oracles.gaussian, oracles.x2gaussian):
            assert np.all(f(wide) == 0.0), f.__name__
            assert all(f(x) == 0.0 for x in wide.tolist()), f.__name__
            assert f(1e154) == 0.0 and f(0.0) == (f is oracles.gaussian)


@pytest.mark.parametrize("bounds", [(-16.0, 16.0, 4096), (-20.0, 20.0, 4096),
                                    (-20.0, 20.0, 8192), (-128.0, 128.0, 8192)])
def test_built_in_functions_keep_the_bits_of_the_plain_formulas(bounds):
    x = make_grid(*bounds).x
    assert oracles.gaussian(x).tobytes() == np.exp(-x * x).tobytes()
    assert oracles.x2gaussian(x).tobytes() == (x * x * np.exp(-x * x)).tobytes()


@pytest.mark.parametrize("closed_form", [gaussian_deriv, x2gaussian_deriv])
def test_closed_form_overflow_raises_order_too_large(closed_form):
    # 2^a Gamma((1+a)/2) leaves double precision near a = 270, well before
    # Gamma itself overflows (near a = 342)
    assert math.isfinite(closed_form(260.0, 0.5).real)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no numpy overflow warning escapes
        with pytest.raises(OrderTooLarge):
            closed_form(270.0, 0.5)


GAMMA_LIMIT = "overflows double precision: the order or argument is too large"


@pytest.mark.parametrize("closed_form, alpha, x, error, message", [
    (gaussian_deriv, 0.5, 20.5, ArgumentOutOfRange, "|z| = 420.25 exceeds 400.0"),
    (x2gaussian_deriv, 0.5, -20.5, ArgumentOutOfRange, "|z| = 420.25 exceeds 400.0"),
    # x^2 overflows: z = -inf, refused by the 1F1 gate's words
    (gaussian_deriv, 0.5, 1e155, ArgumentOutOfRange, "1F1 argument z must be finite, got -inf"),
    (x2gaussian_deriv, 0.5, 1e155, ArgumentOutOfRange, "1F1 argument z must be finite, got -inf"),
    # the Gaussian's Gamma factors come before its 1F1 rows, the x2-Gaussian's after
    (gaussian_deriv, 400.0, 25.0, OrderTooLarge, f"gamma(200.5) {GAMMA_LIMIT}"),
    (gaussian_deriv, 400.0, 1e155, OrderTooLarge, f"gamma(200.5) {GAMMA_LIMIT}"),
    (x2gaussian_deriv, 400.0, 25.0, ArgumentOutOfRange, "|z| = 625.0 exceeds 400.0"),
    (x2gaussian_deriv, 1e308, 1.0, OrderTooLarge,
     "1F1(5e+307; 0.5; -1) overflows double precision"),
    (gaussian_deriv, 270.0, 1.0, OrderTooLarge,
     "gaussian_deriv at order 270 overflows double precision: the order is too large"),
    # past DBL_MAX/pi, where a*pi overflows: Gamma names the order, on both routes
    (gaussian_deriv, 1e308, 1.0, OrderTooLarge, f"gamma(5e+307) {GAMMA_LIMIT}"),
    (gaussian_deriv, 6e307, 1.0, OrderTooLarge, f"gamma(3e+307) {GAMMA_LIMIT}"),
], ids=lambda v: getattr(v, "__name__", repr(v)))
def test_closed_form_refusals_keep_their_words(closed_form, alpha, x, error, message):
    # the scalar route gates z once per call and takes its 1F1 rows past kummer_1f1's
    # gates: what it refuses, it refuses in kummer_1f1's words, as the array route does
    for point in (x, np.array([x])):
        with pytest.raises(error) as info:
            closed_form(alpha, point)
        assert str(info.value) == message


def test_gaussian_deriv_at_subnormal_orders_is_the_order_zero_limit():
    # a/2 rounds to 0 at 5e-324, and Gamma(a/2) overflows at 1e-310; there
    # a*Gamma(a/2) is taken as 2 Gamma(1 + a/2), so D^a e^{-x^2} -> e^{-x^2}
    for a in (5e-324, 1e-310):
        assert abs(gaussian_deriv(a, 0.5) - math.exp(-0.25)) < 1e-15, a
        values = gaussian_deriv(a, np.array([0.5, -0.5, 2.0]))
        assert np.abs(values - np.exp(-np.array([0.25, 0.25, 4.0]))).max() < 1e-15, a
    # next to them, where Gamma(a/2) is finite, the formula is the usual one
    assert gaussian_deriv(1e-300, 0.5) == gaussian_deriv(1e-300, np.array([0.5]))[0]


# --- x^2 Gaussian closed form ---------------------------------------------

def test_x2gaussian_integer_orders():
    for x in (0.5, 1.0, 2.0):
        e = math.exp(-x * x)
        assert x2gaussian_deriv(0.0, x).real == pytest.approx(x * x * e, rel=1e-9)
        assert x2gaussian_deriv(1.0, x).real == pytest.approx(
            (2 * x - 2 * x ** 3) * e, abs=1e-10)
    assert abs(x2gaussian_deriv(1.0, 1.0)) < 1e-10     # stationary point


def test_x2gaussian_agrees_with_quadrature():
    for a in (0.1, 0.5, 1.5):
        for x in (-1.0, 0.0, 1.5):
            assert abs(x2gaussian_deriv(a, x)
                       - quadrature_reference(x2gaussian_hat, a, x)) < 1e-8


# --- closed forms over arrays ---------------------------------------------

def _bits(values):
    """The float64 bit patterns of a complex array, signed zeros included."""
    return np.ascontiguousarray(values).view(np.int64)


# the figure grid, the default derive grid and the widest closed-form grid;
# on the two 4096-point grids every 32nd point (and the last) is called alone
ARRAY_GRIDS = {
    "figure": (np.arange(-400, 401) / 100.0, slice(None)),
    "default": (make_grid(-16.0, 16.0, 4096).x, np.r_[0:4096:32, 4095]),
    "widest": (make_grid(-20.0, 20.0, 4096).x, np.r_[0:4096:32, 4095]),
}


@pytest.mark.parametrize("closed_form", [gaussian_deriv, x2gaussian_deriv])
@pytest.mark.parametrize("grid", sorted(ARRAY_GRIDS))
def test_closed_forms_over_arrays_are_the_scalar_calls_bitwise(closed_form, grid):
    xs, picked = ARRAY_GRIDS[grid]
    for alpha in (0.0, 0.02, 0.5, 4.5, 5.5, 12.0):
        got = closed_form(alpha, xs)
        assert got.dtype == complex and got.shape == xs.shape
        want = np.array([closed_form(alpha, float(x)) for x in xs[picked]])
        np.testing.assert_array_equal(_bits(got[picked]), _bits(want), err_msg=f"order {alpha}")


@pytest.mark.parametrize("closed_form", [gaussian_deriv, x2gaussian_deriv])
def test_closed_forms_over_arrays_keep_the_shape(closed_form):
    xs = np.linspace(-3.0, 3.0, 6).reshape(2, 3)
    got = closed_form(0.5, xs)
    assert got.shape == (2, 3)
    np.testing.assert_array_equal(_bits(got.ravel()), _bits(closed_form(0.5, xs.ravel())))
    zero_d = closed_form(0.5, np.array(1.25))
    assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
    assert zero_d == closed_form(0.5, 1.25)
    assert closed_form(0.5, np.array([])).shape == (0,)


@pytest.mark.parametrize("closed_form", [gaussian_deriv, x2gaussian_deriv])
def test_closed_form_orders_are_the_per_order_calls_bitwise(closed_form, monkeypatch):
    # figures 1-3's orders on their 801 points run as one series; seeded sets
    # of 2-6 orders on the default grid and on the widest one, where two
    # orders' rows of 4096 points pass one series' element budget, run as
    # one series per run of orders that fits
    series = []
    kummer = oracles.specfun.kummer_1f1
    monkeypatch.setattr(oracles.specfun, "kummer_1f1",
                        lambda a, b, z: series.append(np.size(a) * z.size) or kummer(a, b, z))
    rng = np.random.default_rng(4207)
    cases = [(ARRAY_GRIDS["figure"][0], orders)
             for orders in ((0.0, 0.02, 0.1, 0.5), (4.5, 4.8, 5.0, 5.2, 5.5))]
    cases += [(make_grid(*box, 4096).x, tuple(rng.uniform(0.1, 6.0, rng.integers(2, 7))))
              for box in ((-16.0, 16.0), (-20.0, 20.0))]
    runs = []
    for xs, orders in cases:
        want = [closed_form(a, xs) for a in orders]
        series.clear()
        got = oracles.closed_form_orders(closed_form, orders, xs)
        assert len(got) == len(orders)
        for a, g, w in zip(orders, got, want):
            np.testing.assert_array_equal(_bits(g), _bits(w), err_msg=f"order {a}")
        # whole orders per series: 2 rows each of the Gaussian's (1 at order 0), 4 of x^2's
        per_series = oracles._SERIES_ELEMENTS // ((2 if closed_form is gaussian_deriv else 4)
                                                  * xs.size)
        assert len(series) == -(-len(orders) // per_series) and max(series) <= 16384
        runs.append(len(series))
    assert runs[:2] == [1, 1] and max(runs) > 1


@pytest.mark.parametrize("closed_form", [gaussian_deriv, x2gaussian_deriv])
def test_closed_forms_over_arrays_raise_typed_errors_without_warnings(closed_form):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ArgumentOutOfRange, match="finite"):
                closed_form(0.5, np.array([0.0, bad, 1.0]))
        with pytest.raises(ArgumentOutOfRange, match="exceeds"):
            closed_form(0.5, np.array([0.0, 20.5, 1.0]))
        # 2^a Gamma((1+a)/2) times the 1F1 values overflows at |x| = 20
        with pytest.raises(OrderTooLarge, match="order 270 overflows"):
            closed_form(270.0, np.array([-20.0, 0.0, 20.0]))


def test_x2gaussian_is_the_gaussian_identity_over_arrays():
    # x^2 e^{-x^2} = (D^2 + 2) e^{-x^2} / 4, and D^a D^2 = D^(a+2), so the two
    # transcribed formulas check each other at every order
    xs = np.linspace(-6.0, 6.0, 49)
    for alpha in np.arange(0.0, 10.75, 0.5):
        got = x2gaussian_deriv(alpha, xs)
        want = (gaussian_deriv(alpha + 2, xs) + 2 * gaussian_deriv(alpha, xs)) / 4
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), alpha


# --- exponential and monomial rules ---------------------------------------

def test_exp_rule_values():
    assert exp_rule(1.0, 0.5, 0.0) == pytest.approx(1.0, rel=1e-14)
    assert exp_rule(2.0, 0.5, 0.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert exp_rule(3.0, 2.0, 1.0) == pytest.approx(9.0 * math.exp(3.0), rel=1e-14)
    assert exp_rule(1.0, 0.0, 2.0) == pytest.approx(math.exp(2.0), rel=1e-14)


def test_exp_rule_rejects_nonpositive_k():
    for k in (0.0, -1.0):
        with pytest.raises(NonPositiveK):
            exp_rule(k, 0.5, 0.0)


def test_exp_rule_rejects_non_finite_order():
    with pytest.raises(NegativeAlpha):
        exp_rule(1.0, math.nan, 0.0)


def test_rules_raise_typed_errors():
    with pytest.raises(OrderTooLarge):
        exp_rule(1e10, 400, 1.0)                # k^a overflows
    with pytest.raises(ArgumentOutOfRange):
        exp_rule(2.0, 0.5, 1000.0)              # e^{kx} overflows
    with pytest.raises(ArgumentOutOfRange):
        monomial_deriv(3, 1.0, 1e200)           # x^2 overflows
    # two finite factors whose product overflows
    with pytest.raises(OrderTooLarge):
        exp_rule(1e100, 3.0, 1e-98)             # 1e300 * e^100
    with pytest.raises(OrderTooLarge):
        monomial_deriv(200, 2.0, 35.0)          # 39800 * 35^198
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(ArgumentOutOfRange):
            exp_rule(1.0, 0.5, x)
        with pytest.raises(ArgumentOutOfRange):
            exp_rule(abs(x), 0.5, 1.0)
        with pytest.raises(ArgumentOutOfRange):
            monomial_deriv(2, 1.0, x)


def test_ints_past_float_range_raise_typed_errors():
    huge = 10 ** 400                            # float(huge) raises OverflowError
    sig = sample(lambda x: np.exp(-x * x), make_grid(-8.0, 8.0, 64))
    for call in (lambda: monomial_deriv(huge, 1.0, 2.0),   # falling factorial
                 lambda: monomial_deriv(huge, 1.0, 0.5),
                 lambda: gaussian_deriv(huge, 0.5),
                 lambda: quadrature_reference(gaussian_hat, huge, 0.5),
                 lambda: exp_rule(2.0, huge, 1.0),
                 lambda: fractional_derivative(sig, huge),
                 lambda: uncertainty_bound(huge)):
        with pytest.raises(OrderTooLarge):
            call()
    for call in (lambda: gaussian_deriv(0.5, huge),
                 lambda: quadrature_reference(gaussian_hat, 0.5, huge),
                 lambda: exp_rule(huge, 0.5, 1.0)):
        with pytest.raises(ArgumentOutOfRange):
            call()
    with pytest.raises(NegativeAlpha):
        fractional_derivative(sig, -huge)


def test_monomial_defined_cases():
    assert monomial_deriv(0, 0.0, 5.0) == 1.0
    assert monomial_deriv(0, 0.7, 5.0) == 0.0
    assert monomial_deriv(1, 0.0, 5.0) == 5.0
    assert monomial_deriv(1, 1.0, -2.0) == 1.0
    assert monomial_deriv(1, 2.5, 5.0) == 0.0
    assert monomial_deriv(2, 1.0, 3.0) == 6.0
    assert monomial_deriv(2, 2.0, 3.0) == 2.0
    assert monomial_deriv(2, 3.0, 3.0) == 0.0
    assert monomial_deriv(4, 4.0, 1.0) == 24.0


def test_monomial_rejects_negative_order():
    with pytest.raises(NegativeAlpha):
        monomial_deriv(2, -1.0, 2.0)


def test_monomial_undefined_cases():
    assert monomial_deriv(1, 0.5, 1.0) is UNDEFINED
    assert monomial_deriv(2, 1.5, 1.0) is UNDEFINED
    assert monomial_deriv(5, 4.5, 1.0) is UNDEFINED
    assert not UNDEFINED                      # falsy sentinel
    assert "undefined" in repr(UNDEFINED).lower()


# --- quadrature oracle -----------------------------------------------------

def test_quadrature_identity_case():
    got = quadrature_reference(gaussian_hat, 0.0, 1.0)
    assert abs(got - math.exp(-1.0)) < 1e-10


def test_quadrature_tight_against_closed_form():
    got = quadrature_reference(gaussian_hat, 0.5, 0.0)
    assert abs(got - 0.6913673390362934) < 1e-12


def test_quadrature_cutoff_is_honored():
    # a cutoff that chops real mass changes the answer
    full = quadrature_reference(gaussian_hat, 0.0, 0.0)
    chopped = quadrature_reference(gaussian_hat, 0.0, 0.0, p_cutoff=1.0)
    assert abs(full - chopped) > 1e-3


def test_kronrod_table():
    nodes, k15, g7 = oracles._NODES, oracles._K15_WEIGHTS, oracles._G7_WEIGHTS
    assert nodes.size == k15.size == 15
    for k in range(23):
        want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.sum(k15 * nodes ** k) - want) <= 1e-14 * 2.0 / (k + 1)
    gauss_nodes, gauss_weights = np.polynomial.legendre.leggauss(7)
    np.testing.assert_allclose(nodes[1::2], gauss_nodes, rtol=0, atol=1e-15)
    np.testing.assert_allclose(g7, gauss_weights, rtol=0, atol=1e-15)
    assert abs(np.sum(k15) - 2.0) <= 1e-15
    assert abs(np.sum(g7) - 2.0) <= 1e-15


def test_quadrature_reports_failure():
    # strong interior singularity: bisection toward it lands a node on it,
    # where the integrand is not finite
    with np.errstate(all="ignore"), pytest.raises(ToleranceNotReached):
        quadrature_reference(lambda p: np.abs(p - 1.0 / 3.0) ** -0.95, 0.5, 0.0)


def test_quadrature_names_its_spent_budget():
    # at order 20 the integrand |p|^20 e^{-p^2/4} needs more panels than the budget
    with pytest.raises(ToleranceNotReached, match=r"no convergence within 1048576 integrand "
                                                  r"evaluations"):
        quadrature_reference(gaussian_hat, 20.0, 0.5)


def test_quadrature_rejects_non_finite_order_and_position():
    for alpha, x in ((math.nan, 0.0), (math.inf, 0.0), (0.5, math.inf),
                     (0.5, -math.inf), (0.5, math.nan)):
        with pytest.raises(ValueError):
            quadrature_reference(gaussian_hat, alpha, x)
    for cutoff in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError):
            quadrature_reference(gaussian_hat, 0.5, 0.0, p_cutoff=cutoff)


def test_quadrature_stops_at_the_first_non_finite_value():
    calls = []

    def f_hat(p):
        calls.append(p.size)
        return np.where(np.abs(p - 2.5) < 0.5, np.nan, gaussian_hat(p))

    with pytest.raises(ToleranceNotReached):
        quadrature_reference(f_hat, 0.5, 0.0)
    assert len(calls) == 1       # all root panels fit in one batch


def test_quadrature_stops_where_f_hat_is_near_the_float_range():
    # every value of f_hat is finite, but a panel's K15 or G7 sum, or at order 2
    # |p|^2 f_hat, is not: the typed error at once, naming the panel (or the node),
    # without numpy's warning and before the budget is spent
    message = (r"^(the K15 or G7 sum of the panel \[-?[0-9.]+, -?[0-9.]+\] is not finite"
               r"|integrand is not finite at p = -?[0-9.]+)$")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale, orders in ((1.7e308, (0.0, 0.5, 2.0)), (1e308, (0.0, 2.0))):
            for alpha in orders:
                with pytest.raises(ToleranceNotReached, match=message):
                    quadrature_reference(lambda p: scale * np.exp(-p * p / 4.0), alpha, 0.5)
        with pytest.raises(ToleranceNotReached) as err:
            quadrature_reference(lambda p: 1.7e308 * np.exp(-p * p / 4.0), 0.0, 0.5)
        assert str(err.value) == "the K15 or G7 sum of the panel [0, 2.0944] is not finite"


def test_quadrature_scalar_only_transform_matches_vectorised():
    def scalar_only(p):
        if np.ndim(p):
            raise TypeError("scalar frequencies only")
        return gaussian_hat(p)

    for a, x in ((0.5, 0.0), (1.5, 3.0)):
        want = quadrature_reference(gaussian_hat, a, x)
        got = quadrature_reference(scalar_only, a, x)
        assert abs(got - want) <= 1e-15 * abs(want)


def test_quadrature_names_the_frequency_where_f_hat_fails():
    def scalar_only(p):
        if np.ndim(p):
            raise TypeError("scalar frequencies only")
        if p > 30.0:
            raise ZeroDivisionError("boom")
        return gaussian_hat(p)

    # the frequency is named as a plain number, not as numpy's np.float64(...)
    with pytest.raises(EvaluationFailure, match=r"evaluation failed at p=[0-9][0-9.e+-]*: boom"):
        quadrature_reference(scalar_only, 0.5, 0.0)


def test_quadrature_batch_size_changes_only_the_summation_order(monkeypatch):
    def counting(points):
        def f_hat(p):
            points.append(p.size)
            return gaussian_hat(p)
        return f_hat

    default_points, single_points = [], []
    want = quadrature_reference(counting(default_points), 2.5, 3.0)
    monkeypatch.setattr(oracles, "_QUAD_BATCH", 1)
    got = quadrature_reference(counting(single_points), 2.5, 3.0)
    assert abs(got - want) <= 1e-13
    assert sum(single_points) == sum(default_points)
    assert len(single_points) > len(default_points)


def test_quadrature_resolves_the_corner_at_p0_in_a_few_batches():
    # (ip)^a is not smooth at p = 0; bisection alone reaches that corner one
    # batch per level (19 to 31 calls of f_hat at these orders), the dyadic
    # corner panels in a few
    for a in (0.02, 0.1, 0.5, 0.734):
        calls = []

        def f_hat(p):
            calls.append(p.size)
            return gaussian_hat(p)

        got = quadrature_reference(f_hat, a, 0.3)
        assert len(calls) <= 4, (a, len(calls))
        assert abs(got - gaussian_deriv(a, 0.3)) <= 1e-13


def test_quadrature_far_from_the_origin():
    # |x| = 20 caps the root panels at a quarter period: over 1000 of them
    for a in (0.5, 2.5):
        assert abs(quadrature_reference(gaussian_hat, a, 20.0)
                   - gaussian_deriv(a, 20.0)) < 1e-8


def test_quadrature_returns_or_raises_at_high_orders():
    # at these orders |p|^a f_hat(p) is too large for the absolute tolerance;
    # the evaluation budget must stop the bisection, so the calls run in a
    # child process that a timeout can end
    script = """
import math, time
import numpy as np
from fracspectral.oracles import (ToleranceNotReached, gaussian_deriv, gaussian_hat,
                                  quadrature_reference)
for a in (18, 20, 30, 60, 100):
    t0 = time.perf_counter()
    try:
        want = gaussian_deriv(a, 0.5)
        ok = abs(quadrature_reference(gaussian_hat, a, 0.5) - want) <= 1e-12 * abs(want)
    except ToleranceNotReached:
        ok = True
    print(a, ok, time.perf_counter() - t0, flush=True)
"""
    try:
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=30)
    except subprocess.TimeoutExpired as exc:
        pytest.fail(f"quadrature still running after 30 s; finished: {exc.stdout!r}")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert [int(a) for a, _, _ in rows] == [18, 20, 30, 60, 100]
    for a, ok, seconds in rows:
        assert ok == "True", a
        assert float(seconds) < 1.0, (a, seconds)


def test_quadrature_raises_at_once_where_the_symbol_overflows():
    # 40^193 overflows double precision, so from order 193 on the default
    # p_cutoff the integrand's symbol raises before f_hat is called
    calls = []

    def f_hat(p):
        calls.append(p.size)
        return gaussian_hat(p)

    for a in (193.0, 200.0, 300.0):
        with pytest.raises(OrderTooLarge, match="overflows"):
            quadrature_reference(f_hat, a, 0.5)
    assert calls == []


def test_quadrature_refuses_a_position_past_the_root_panel_cap():
    # x = 1e8 would need ~5e9 quarter-period root panels
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="root panels"):
        quadrature_reference(gaussian_hat, 0.5, 1e8)
    assert time.perf_counter() - t0 < 0.5
    # past |x| of about 4.5e307 the quarter period was 0 (ZeroDivisionError), and
    # where p_cutoff / width overflows, math.ceil(inf) raised OverflowError
    for x, p_cutoff in ((6e307, 40.0), (-1.7e308, 40.0), (1e10, 1e300)):
        with pytest.raises(ArgumentOutOfRange, match=r"needs inf root panels, past 1048576 "):
            quadrature_reference(gaussian_hat, 0.5, x, p_cutoff)


def test_quadrature_names_the_order_where_the_symbol_overflows():
    # (ip)^a at an order past DBL_MAX/pi: the phase i^a is 1 there, and |p|^a
    # raises at once; at 1.5e308 forming the phase raised ValueError first
    for a in (1e308, 1.5e308):
        with pytest.raises(OrderTooLarge) as info:
            quadrature_reference(gaussian_hat, a, 0.5)
        assert str(info.value) == (f"|p|^{a:g} overflows double precision at |p| = 39.9991: "
                                   f"the order is too large for this grid")


# --- eigenstate construction ----------------------------------------------

def _eigen_error(spec, grid):
    """Sup |P_a f - E f| / sup |f| on the state's samples, as the closedform suite has it."""
    f = eigenstate_signal(spec, grid)
    pf = fractional_momentum(f, spec.alpha)
    return float(np.max(np.abs(pf.values - spec.eigenvalue * f.values))
                 / np.max(np.abs(f.values)))


def test_eigenstate_plane_wave():
    g = make_grid(-4 * math.pi, 4 * math.pi, 1024)
    sig = eigenstate_signal(EigenstateSpec(1.0, 2.0), g)
    np.testing.assert_allclose(sig.values, np.exp(2j * g.x), atol=1e-14)


def test_eigenstate_cubic_root_order():
    g = make_grid(-4 * math.pi, 4 * math.pi, 1024)
    sig = eigenstate_signal(EigenstateSpec(1.0 / 3.0, 1.0), g)
    np.testing.assert_allclose(sig.values, np.exp(1j * g.x), atol=1e-14)


def test_eigenstate_cosine_for_order_two():
    g = make_grid(-4 * math.pi, 4 * math.pi, 1024)
    sig = eigenstate_signal(EigenstateSpec(2.0, 4.0), g)
    np.testing.assert_allclose(sig.values, np.cos(2.0 * g.x) / 2.0, atol=1e-14)


def test_eigenstate_off_grid_frequency_rejected():
    g = make_grid(-4 * math.pi, 4 * math.pi, 1024)
    with pytest.raises(FrequencyOffGrid):
        eigenstate_signal(EigenstateSpec(1.0, 2.3), g)
    with pytest.raises(FrequencyOffGrid):
        # beyond the Nyquist bin
        eigenstate_signal(EigenstateSpec(1.0, 1e6), g)
    for alpha in (0.5, 1.0 / 3.0):
        # q = E^2 or E^3 is past the float range, so past any Nyquist bin
        with pytest.raises(FrequencyOffGrid, match="past any Nyquist bin"):
            eigenstate_signal(EigenstateSpec(alpha, 1e300), g)
    # a plane wave at the Nyquist bin q = 128, which the engine splits
    # between +-pi/dx: P_a of it missed by 1.0 (order 1) and 0.71 (order 0.5)
    for alpha, eigenvalue in ((1.0, 128.0), (1.0, -128.0), (0.5, math.sqrt(128.0))):
        with pytest.raises(FrequencyOffGrid, match="at the Nyquist bin"):
            eigenstate_signal(EigenstateSpec(alpha, eigenvalue), g)
    assert _eigen_error(EigenstateSpec(1.0, 127.75), g) < 1e-10
    # the order-2 cosine has both signs, so it is an eigenstate there
    assert _eigen_error(EigenstateSpec(2.0, 128.0 ** 2), g) < 1e-10


def test_eigenstate_negative_eigenvalue_rules():
    g = make_grid(-4 * math.pi, 4 * math.pi, 1024)
    sig = eigenstate_signal(EigenstateSpec(1.0, -2.0), g)   # q = -2 is fine
    np.testing.assert_allclose(sig.values, np.exp(-2j * g.x), atol=1e-14)
    with pytest.raises(ValueError):
        EigenstateSpec(2.0, -4.0)
    with pytest.raises(ValueError):
        eigenstate_signal(EigenstateSpec(0.5, -1.0), g)
    # only odd integer orders: e^{-ix} was accepted at orders 1/3 and 1/5,
    # but P_a of it is e^{-i*a*pi} times it, a sup error of 1.73 and 1.90
    for alpha in (1.0 / 3.0, 1.0 / 5.0, 2.5, 4.0):
        with pytest.raises(ArgumentOutOfRange, match="odd integer orders"):
            EigenstateSpec(alpha, -1.0)
    for alpha, eigenvalue in ((1.0, -2.0), (3.0, -8.0), (5.0, -1.0), (1.0 / 3.0, 1.0)):
        assert _eigen_error(EigenstateSpec(alpha, eigenvalue), g) < 1e-10, alpha


def test_eigenstate_rejects_order_zero():
    # P_0 is the identity: no frequency to pin
    with pytest.raises(AlphaInForbiddenRange, match="order 0"):
        EigenstateSpec(0.0, 1.0)


@pytest.mark.parametrize("alpha", [1.0, 0.5, 2.0])
@pytest.mark.parametrize("eigenvalue", [math.nan, math.inf, -math.inf])
def test_eigenstate_rejects_non_finite_eigenvalue(alpha, eigenvalue):
    g = make_grid(-4 * math.pi, 4 * math.pi, 1024)
    with pytest.raises(ValueError, match="eigenvalue must be finite"):
        eigenstate_signal(EigenstateSpec(alpha, eigenvalue), g)


@pytest.mark.parametrize("alpha", [math.nan, -1.0])
def test_eigenstate_rejects_bad_order(alpha):
    with pytest.raises(NegativeAlpha):
        EigenstateSpec(alpha, 1.0)
