import cmath
import math
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from fracspectral import oracles
from fracspectral.grid import make_grid, sample
from fracspectral.oracles import (UNDEFINED, EigenstateSpec, FrequencyOffGrid,
                                  NonPositiveK, ToleranceNotReached,
                                  eigenstate_signal, exp_rule, gaussian_deriv,
                                  monomial_deriv, quadrature_reference,
                                  x2gaussian_deriv)
from fracspectral.specfun import ArgumentOutOfRange, OrderTooLarge
from fracspectral.quantum import uncertainty_bound
from fracspectral.spectral import NegativeAlpha, fractional_derivative

F1_HAT = lambda p: np.exp(-p * p / 4.0) / math.sqrt(2.0)


# --- Gaussian closed form --------------------------------------------------

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
                       - quadrature_reference(F1_HAT, a, x)) < 1e-8


def test_gaussian_deriv_domain_cap():
    # the series argument x^2 is capped at 400
    with pytest.raises(ArgumentOutOfRange):
        gaussian_deriv(0.5, 20.5)
    gaussian_deriv(0.5, 19.5)


def test_gaussian_deriv_negative_order_rejected():
    with pytest.raises(ValueError):
        gaussian_deriv(-0.5, 0.0)


@pytest.mark.parametrize("closed_form", [gaussian_deriv, x2gaussian_deriv])
def test_closed_form_overflow_raises_order_too_large(closed_form):
    # 2^a Gamma((1+a)/2) leaves double precision near a = 270, well before
    # Gamma itself overflows (near a = 342)
    assert math.isfinite(closed_form(260.0, 0.5).real)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no numpy overflow warning escapes
        with pytest.raises(OrderTooLarge):
            closed_form(270.0, 0.5)


# --- x^2 Gaussian closed form ---------------------------------------------

def test_x2gaussian_integer_orders():
    for x in (0.5, 1.0, 2.0):
        e = math.exp(-x * x)
        assert x2gaussian_deriv(0.0, x).real == pytest.approx(x * x * e, rel=1e-9)
        assert x2gaussian_deriv(1.0, x).real == pytest.approx(
            (2 * x - 2 * x ** 3) * e, abs=1e-10)
    assert abs(x2gaussian_deriv(1.0, 1.0)) < 1e-10     # stationary point


def test_x2gaussian_agrees_with_quadrature():
    f2_hat = lambda p: (2.0 - p * p) * np.exp(-p * p / 4.0) / (4.0 * math.sqrt(2.0))
    for a in (0.1, 0.5, 1.5):
        for x in (-1.0, 0.0, 1.5):
            assert abs(x2gaussian_deriv(a, x)
                       - quadrature_reference(f2_hat, a, x)) < 1e-8


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
                 lambda: quadrature_reference(F1_HAT, huge, 0.5),
                 lambda: exp_rule(2.0, huge, 1.0),
                 lambda: fractional_derivative(sig, huge),
                 lambda: uncertainty_bound(huge)):
        with pytest.raises(OrderTooLarge):
            call()
    for call in (lambda: gaussian_deriv(0.5, huge),
                 lambda: quadrature_reference(F1_HAT, 0.5, huge),
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
    got = quadrature_reference(F1_HAT, 0.0, 1.0)
    assert abs(got - math.exp(-1.0)) < 1e-10


def test_quadrature_tight_against_closed_form():
    got = quadrature_reference(F1_HAT, 0.5, 0.0)
    assert abs(got - 0.6913673390362934) < 1e-12


def test_quadrature_cutoff_is_honored():
    # a cutoff that chops real mass changes the answer
    full = quadrature_reference(F1_HAT, 0.0, 0.0)
    chopped = quadrature_reference(F1_HAT, 0.0, 0.0, p_cutoff=1.0)
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


def test_quadrature_rejects_non_finite_order_and_position():
    for alpha, x in ((math.nan, 0.0), (math.inf, 0.0), (0.5, math.inf),
                     (0.5, -math.inf), (0.5, math.nan)):
        with pytest.raises(ValueError):
            quadrature_reference(F1_HAT, alpha, x)
    for cutoff in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError):
            quadrature_reference(F1_HAT, 0.5, 0.0, p_cutoff=cutoff)


def test_quadrature_stops_at_the_first_non_finite_value():
    calls = []

    def f_hat(p):
        calls.append(p.size)
        return np.where(np.abs(p - 2.5) < 0.5, np.nan, F1_HAT(p))

    with pytest.raises(ToleranceNotReached):
        quadrature_reference(f_hat, 0.5, 0.0)
    assert len(calls) == 1       # all root panels fit in one batch


def test_quadrature_scalar_only_transform_matches_vectorised():
    def scalar_only(p):
        if np.ndim(p):
            raise TypeError("scalar frequencies only")
        return F1_HAT(p)

    for a, x in ((0.5, 0.0), (1.5, 3.0)):
        want = quadrature_reference(F1_HAT, a, x)
        got = quadrature_reference(scalar_only, a, x)
        assert abs(got - want) <= 1e-15 * abs(want)


def test_quadrature_batch_size_changes_only_the_summation_order(monkeypatch):
    def counting(points):
        def f_hat(p):
            points.append(p.size)
            return F1_HAT(p)
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
            return F1_HAT(p)

        got = quadrature_reference(f_hat, a, 0.3)
        assert len(calls) <= 4, (a, len(calls))
        assert abs(got - gaussian_deriv(a, 0.3)) <= 1e-13


def test_quadrature_far_from_the_origin():
    # |x| = 20 caps the root panels at a quarter period: over 1000 of them
    for a in (0.5, 2.5):
        assert abs(quadrature_reference(F1_HAT, a, 20.0)
                   - gaussian_deriv(a, 20.0)) < 1e-8


def test_quadrature_returns_or_raises_at_high_orders():
    # at these orders |p|^a f_hat(p) is too large for the absolute tolerance;
    # the evaluation budget must stop the bisection, so the calls run in a
    # child process that a timeout can end
    script = """
import math, time
import numpy as np
from fracspectral.oracles import ToleranceNotReached, gaussian_deriv, quadrature_reference
f_hat = lambda p: np.exp(-p * p / 4.0) / math.sqrt(2.0)
for a in (18, 20, 30, 60, 100):
    t0 = time.perf_counter()
    try:
        want = gaussian_deriv(a, 0.5)
        ok = abs(quadrature_reference(f_hat, a, 0.5) - want) <= 1e-12 * abs(want)
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
        return F1_HAT(p)

    for a in (193.0, 200.0, 300.0):
        with pytest.raises(OrderTooLarge, match="overflows"):
            quadrature_reference(f_hat, a, 0.5)
    assert calls == []


def test_quadrature_refuses_a_position_past_the_root_panel_cap():
    # x = 1e8 would need ~5e9 quarter-period root panels
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="root panels"):
        quadrature_reference(F1_HAT, 0.5, 1e8)
    assert time.perf_counter() - t0 < 0.5


# --- eigenstate construction ----------------------------------------------

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


def test_eigenstate_negative_eigenvalue_rules():
    g = make_grid(-4 * math.pi, 4 * math.pi, 1024)
    sig = eigenstate_signal(EigenstateSpec(1.0, -2.0), g)   # q = -2 is fine
    np.testing.assert_allclose(sig.values, np.exp(-2j * g.x), atol=1e-14)
    with pytest.raises(ValueError):
        EigenstateSpec(2.0, -4.0)
    with pytest.raises(ValueError):
        eigenstate_signal(EigenstateSpec(0.5, -1.0), g)


def test_eigenstate_rejects_order_zero():
    # P_0 is the identity: no frequency to pin
    with pytest.raises(ValueError, match="order 0"):
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
