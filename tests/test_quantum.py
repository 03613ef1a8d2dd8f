import cmath
import math
import warnings

import numpy as np
import pytest

import mpmath

from fracspectral.grid import GridMismatch, make_grid, sample
from fracspectral.oracles import gaussian_deriv, x2gaussian_deriv
from fracspectral.quantum import (AlphaInForbiddenRange, InsufficientDecay,
                                  NotNormalized, OrderTooLarge,
                                  UncertaintyReport,
                                  commutator_dx, commutator_ladder, expectation,
                                  gaussian_state, high_res_grid,
                                  symmetry_residual, uncertainty_bound,
                                  uncertainty_check)
from fracspectral.specfun import zeta_negative
from fracspectral.spectral import fractional_momentum

GAUSS = lambda x: np.exp(-x * x)
X2GAUSS = lambda x: x * x * np.exp(-x * x)


def _gap_grid():
    return make_grid(-20.0, 20.0, 8192)


# --- states ----------------------------------------------------------------

def _norm(signal):
    return math.sqrt(np.sum(np.abs(signal.values) ** 2) * signal.grid.dx)


def test_gaussian_state_is_normalized():
    g = make_grid(-16.0, 16.0, 4096)
    state = gaussian_state(g)
    assert _norm(state) == pytest.approx(1.0, abs=1e-12)
    peak = np.max(np.abs(state.values))
    assert peak == pytest.approx((2.0 / math.pi) ** 0.25, rel=1e-12)
    assert _norm(sample(GAUSS, g)) == pytest.approx((math.pi / 2.0) ** 0.25, rel=1e-12)


def test_high_res_grid_is_cached():
    g = high_res_grid()
    assert g is high_res_grid()
    assert g.n == 8192
    assert g.x_min == -20.0


# --- x-commutator ----------------------------------------------------------

def test_commutator_dx_order_one_is_the_identity():
    sig = sample(GAUSS, make_grid(-16.0, 16.0, 4096))
    lhs, rhs, gap = commutator_dx(sig, 1.0)
    assert gap < 1e-8
    w = slice(1024, 3072)
    assert np.max(np.abs(rhs.values[w] - sig.values[w])) < 1e-12
    assert np.max(np.abs(lhs.values[w] - sig.values[w])) < 1e-8


def test_commutator_dx_order_zero_vanishes():
    sig = sample(GAUSS, make_grid(-16.0, 16.0, 4096))
    lhs, rhs, gap = commutator_dx(sig, 0.0)
    assert np.all(rhs.values == 0.0)
    assert np.max(np.abs(lhs.values)) < 1e-14
    assert gap < 1e-14


def test_commutator_dx_high_resolution_fractional():
    # the engine subtracts the wrap-around images of the slowly decaying
    # tail, so the identity holds at fractional orders too
    sig = sample(GAUSS, high_res_grid())
    for a in (1.5, 2.5):
        _, _, gap = commutator_dx(sig, a)
        assert gap < 1e-6, a


def test_commutator_dx_documented_example_order_2p5():
    sig = sample(GAUSS, _gap_grid())
    _, _, gap = commutator_dx(sig, 2.5)
    assert gap < 1e-6, (
        f"gap {gap:.2e} on (-20,20), n=8192: the wrap-around images of the "
        "x-weighted tail contribute ~6e-4 at this domain size unless the "
        "engine subtracts them")


def test_commutator_rejects_order_between_zero_and_one():
    sig = sample(GAUSS, make_grid(-16.0, 16.0, 4096))
    for a in (0.3, 0.5, 0.999):
        with pytest.raises(AlphaInForbiddenRange):
            commutator_dx(sig, a)
        with pytest.raises(AlphaInForbiddenRange):
            commutator_ladder(sig, a)
    with pytest.raises(AlphaInForbiddenRange):
        commutator_dx(sig, -1.0)
    for a in (math.nan, math.inf, -math.inf):
        with pytest.raises(AlphaInForbiddenRange, match="finite and >= 0"):
            commutator_dx(sig, a)
        with pytest.raises(AlphaInForbiddenRange, match="finite and >= 0"):
            commutator_ladder(sig, a)


def test_commutator_requires_decay():
    sig = sample(GAUSS, make_grid(-4.0, 4.0, 64))   # e^{-16} tails
    with pytest.raises(InsufficientDecay):
        commutator_dx(sig, 1.5)


# --- ladder commutator -----------------------------------------------------

def test_ladder_order_one_reproduces_bosonic_commutation():
    sig = sample(GAUSS, make_grid(-16.0, 16.0, 4096))
    lhs, rhs, gap = commutator_ladder(sig, 1.0)
    w = slice(1024, 3072)
    assert np.max(np.abs(rhs.values[w] - sig.values[w])) < 1e-12
    assert gap < 1e-8


def test_ladder_order_zero():
    sig = sample(GAUSS, make_grid(-16.0, 16.0, 4096))
    _, rhs, gap = commutator_ladder(sig, 0.0)
    assert np.all(rhs.values == 0.0)
    assert gap < 1e-10


def test_ladder_order_three_on_x2gaussian():
    sig = sample(X2GAUSS, high_res_grid())
    _, _, gap = commutator_ladder(sig, 3.0)
    assert gap < 1e-6


def test_ladder_fractional_orders_on_the_documented_grid():
    # P_a goes term by term through the ladder, so each term is a line value
    for fn in (GAUSS, X2GAUSS):
        sig = sample(fn, _gap_grid())
        for a in (1.5, 2.5, 3.0):
            _, _, gap = commutator_ladder(sig, a)
            assert gap < 1e-10, a


def test_ladder_agrees_with_commutator_dx_route():
    # A(Bf) - B(Af) reduces algebraically to -i[x, P_a]f
    g = make_grid(-16.0, 16.0, 4096)
    sig = sample(GAUSS, g)
    for a in (1.0, 1.5, 2.0):
        lhs, _, _ = commutator_ladder(sig, a)
        pf = fractional_momentum(sig, a)
        xpf = g.x * pf.values
        pxf = fractional_momentum(
            sample(lambda t: t * np.exp(-t * t), g), a).values
        direct = -1j * (xpf - pxf)
        w = slice(1024, 3072)
        assert np.max(np.abs(lhs.values[w] - direct[w])) < 1e-9, a


# --- expectation values ----------------------------------------------------

def test_expectation_examples():
    g = make_grid(-16.0, 16.0, 4096)
    state = gaussian_state(g)
    phi = state
    from fracspectral.grid import SampledSignal
    x_phi = SampledSignal(g, g.x * phi.values)
    assert abs(expectation(x_phi, state)) < 1e-12
    assert expectation(phi, state).real == pytest.approx(1.0, abs=1e-10)
    p_phi = fractional_momentum(phi, 1.0)
    assert abs(expectation(p_phi, state)) < 1e-10


def test_expectation_requires_normalized_state():
    g = make_grid(-16.0, 16.0, 4096)
    raw = sample(GAUSS, g)
    with pytest.raises(NotNormalized):
        expectation(raw, raw)


def test_expectation_requires_same_grid():
    g = make_grid(-16.0, 16.0, 4096)
    state = gaussian_state(g)
    other = sample(GAUSS, make_grid(-16.0, 16.0, 2048))
    with pytest.raises(GridMismatch):
        expectation(other, state)


# --- uncertainty -----------------------------------------------------------

def test_uncertainty_bound_pinned_values():
    assert abs(uncertainty_bound(1.0) - 0.5) < 1e-12
    assert abs(uncertainty_bound(2.0)) < 1e-12
    assert abs(uncertainty_bound(3.0) - 1.5) < 1e-12
    assert uncertainty_bound(0.0) == 0.0


def test_uncertainty_bound_forbidden_range():
    with pytest.raises(AlphaInForbiddenRange):
        uncertainty_bound(-1.0)
    for a in (math.nan, math.inf, -math.inf):
        with pytest.raises(AlphaInForbiddenRange, match="finite and >= 0"):
            uncertainty_bound(a)
    assert uncertainty_bound(0.5) > 0.0


def test_uncertainty_check_order_one_sits_on_the_bound():
    state = gaussian_state(high_res_grid())
    report = uncertainty_check(1.0, state)
    assert report.delta_x == pytest.approx(0.5, abs=1e-9)
    assert report.delta_p_alpha == pytest.approx(1.0, abs=1e-9)
    assert report.product == pytest.approx(report.rhs_bound, abs=1e-9)
    assert report.satisfied


def test_uncertainty_check_matches_analytic_bound():
    state = gaussian_state(high_res_grid())
    for a in (1.0, 1.5, 3.0):
        report = uncertainty_check(a, state)
        ref = uncertainty_bound(a)
        assert abs(report.rhs_bound - ref) / ref < 1e-6, a
        assert report.satisfied


def test_uncertainty_check_even_order_trivial_bound():
    state = gaussian_state(high_res_grid())
    report = uncertainty_check(2.0, state)
    assert report.rhs_bound < 1e-10
    assert report.satisfied


def test_uncertainty_check_matches_closed_form_moments():
    # P ~ N(0, 1) on the Gaussian state, so E|P|^b = 2^(b/2) Gamma((b+1)/2) / sqrt(pi)
    state = gaussian_state(high_res_grid())

    def moment(b):
        return 2 ** (b / 2) * mpmath.gamma((b + 1) / 2) / mpmath.sqrt(mpmath.pi)

    for order, tol in ((1.02, 1e-13), (1.25, 1e-13), (1.5, 1e-13), (2.5, 1e-13),
                       (3.7, 1e-13), (5.5, 1e-13), (10.5, 1e-13), (20.5, 1e-10)):
        report = uncertainty_check(order, state)
        with mpmath.workdps(30):
            a = mpmath.mpf(order)
            delta_p = mpmath.sqrt(moment(2 * a) - (moment(a) * mpmath.cos(mpmath.pi * a / 2)) ** 2)
            bound = a / 2 * moment(a - 1) * abs(mpmath.cos(mpmath.pi * (a - 1) / 2))
            assert abs(report.delta_p_alpha - delta_p) / delta_p < tol, order
            assert abs(report.rhs_bound - bound) / bound < tol, order


def test_order_too_large_is_typed():
    state = gaussian_state(high_res_grid())
    for a in (150.0, 400.0):
        with pytest.raises(OrderTooLarge):
            uncertainty_check(a, state)
    with pytest.raises(OrderTooLarge):
        uncertainty_bound(400.0)
    report = uncertainty_check(140.0, state)     # below the overflow the report is finite
    assert math.isfinite(report.delta_p_alpha) and report.satisfied
    # the report's largest power is |p|^(2a), and the error names it
    with pytest.raises(OrderTooLarge, match=r"\|p\|\^800 overflows"):
        uncertainty_check(400.0, state)
    # past order about 2051 the float power 2^((a-3)/2) overflows before Gamma
    for a in (2060.0, 1e300):
        with pytest.raises(OrderTooLarge, match="uncertainty_bound"):
            uncertainty_bound(a)


def test_every_order_is_finite_or_order_too_large():
    # the shared Gamma and overflow guard: nothing returns inf or nan on the
    # way up to and past double precision
    def finite_or_too_large(value_at):
        try:
            value = value_at()
        except OrderTooLarge:
            return True
        return cmath.isfinite(value)

    orders = list(np.arange(0.0, 400.5, 0.5)) + [284.6, 141.3]
    for a in map(float, orders):
        for name, value_at in (("uncertainty_bound", lambda: uncertainty_bound(a)),
                               ("gaussian_deriv", lambda: gaussian_deriv(a, 0.5)),
                               ("x2gaussian_deriv", lambda: x2gaussian_deriv(a, 0.5)),
                               ("zeta_negative", lambda: zeta_negative(a / 2))):
            assert finite_or_too_large(value_at), (name, a)
    state = gaussian_state(high_res_grid())
    for a in (133.25, 134.25):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert finite_or_too_large(lambda: uncertainty_check(a, state).product), a


def test_uncertainty_check_forbidden_and_unnormalized():
    state = gaussian_state(high_res_grid())
    with pytest.raises(AlphaInForbiddenRange):
        uncertainty_check(0.5, state)
    for a in (math.nan, math.inf, -math.inf):
        with pytest.raises(AlphaInForbiddenRange, match="finite and >= 0"):
            uncertainty_check(a, state)
    g = make_grid(-16.0, 16.0, 4096)
    with pytest.raises(NotNormalized):
        uncertainty_check(1.0, sample(GAUSS, g))


def test_uncertainty_report_validation():
    with pytest.raises(ValueError):
        UncertaintyReport(alpha=1.0, delta_x=-0.1, delta_p_alpha=1.0,
                          product=0.5, rhs_bound=0.5, satisfied=True)
    with pytest.raises(ValueError):
        UncertaintyReport(alpha=1.0, delta_x=math.nan, delta_p_alpha=1.0,
                          product=0.5, rhs_bound=0.5, satisfied=True)


# --- momentum symmetry -----------------------------------------------------

def test_symmetry_residual_integer_orders():
    g = make_grid(-16.0, 16.0, 4096)
    f = sample(GAUSS, g)
    h = sample(X2GAUSS, g)
    assert abs(symmetry_residual(f, h, 1.0)) < 1e-10
    assert abs(symmetry_residual(f, h, 2.0)) < 1e-10


def test_symmetry_residual_half_order_reported_nonzero():
    g = make_grid(-16.0, 16.0, 4096)
    f = sample(GAUSS, g)
    h = sample(X2GAUSS, g)
    assert abs(symmetry_residual(f, h, 0.5)) > 1e-6


def test_symmetry_residual_requires_same_grid():
    f = sample(GAUSS, make_grid(-16.0, 16.0, 4096))
    h = sample(X2GAUSS, make_grid(-8.0, 8.0, 4096))
    with pytest.raises(GridMismatch):
        symmetry_residual(f, h, 1.0)
