import cmath
import math
import pickle
import re
import warnings

import numpy as np
import pytest

from fracspectral import quantum, specfun, spectral
from fracspectral.grid import GridMismatch, SampledSignal, central_gap, make_grid, sample
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


def test_gaussian_state_is_zero_without_warnings_where_x2_overflows():
    # on (-1e200, 1e200) x^2 overflows at every sample but x = 0
    g = make_grid(-1e200, 1e200, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = gaussian_state(g)
    expected = np.where(g.x == 0.0, (2.0 / np.pi) ** 0.25, 0.0)
    assert np.array_equal(state.values, expected)


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


def test_commutators_refuse_f_whose_x_f_does_not_decay():
    # e^{-0.0657 x^2} passes the decay test (5.0e-11 of max|f| at the edge), but x f
    # reads 5.7e-10 of max|x f| there: the engine would take x f as periodic, and the
    # gaps at 1.5, 2.5 and 3 read 4.3e-4, 5.0e-5 and 2.6e-6
    g = high_res_grid()
    sig = sample(lambda x: np.exp(-0.0657 * x * x), g)
    assert spectral._evidence(sig).decays
    for a in (1.5, 2.5, 3.0):
        for commutator in (commutator_dx, commutator_ladder):
            with pytest.raises(InsufficientDecay, match=r"^boundary decay 5\.699e-10 of "
                                                        r"max\|x f\| is not below 1\.0e-10"):
                commutator(sig, a)
    # e^{-0.08 x^2}: x f at 3.6e-12 of its max, and the gap at 2.5 is 7.4e-12
    sig = sample(lambda x: np.exp(-0.08 * x * x), g)
    for commutator in (commutator_dx, commutator_ladder):
        assert commutator(sig, 2.5)[2] < 1e-11


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

def _counting(monkeypatch, *names):
    """The list that gets the name of each call of np.fft.<name> from now on, for
    each of names, or for every entry point of np.fft where none is given."""
    calls = []

    def counter(name, function):
        def counted(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return counted
    for name in names or np.fft.__all__:
        monkeypatch.setattr(np.fft, name, counter(name, getattr(np.fft, name)))
    return calls


@pytest.mark.parametrize("f", [GAUSS, X2GAUSS], ids=["gaussian", "x2-gaussian"])
def test_commutators_take_each_rfft_once_per_signal(monkeypatch, f):
    # the memo of f keeps x f and the half-spectra of f and x f, so a second
    # order takes no rfft, and P_a(P_a f) at 2.5 is P_5 f from that memo; the
    # results are the bits of fresh signals
    g = _gap_grid()
    kept = sample(f, g)
    calls = _counting(monkeypatch, "rfft")
    got = [commutator_dx(kept, a) for a in (2.5, 3.0)]
    assert len(calls) == 2                  # f and x f
    got += [commutator_ladder(kept, a) for a in (2.5, 3.0)]
    assert len(calls) == 2 + 2              # P_3 f, complex, at order 3 alone
    want = [commutator_dx(sample(f, g), a) for a in (2.5, 3.0)]
    want += [commutator_ladder(sample(f, g), a) for a in (2.5, 3.0)]
    assert pickle.dumps(got) == pickle.dumps(want)


@pytest.mark.parametrize("commutator, order, calls", [
    (commutator_dx, 2.5, 2), (commutator_ladder, 2.5, 2), (commutator_ladder, 3.7, 3)],
    ids=["dx_2.5", "ladder_2.5", "ladder_3.7"])
def test_commutators_take_one_zeta_table_per_order(monkeypatch, commutator, order, calls):
    # D^a (or P_a) of f and of x f is one engine call: their records share one
    # zeta table at the larger column count (x f's 36 holds f's 33).  The rest
    # is one table per fractional order: a (P_{a-1} f) and, at 3.7, P_7.4 f.
    # A second call forms the tables again: its records keep them, but no later
    # call looks one up
    f = sample(GAUSS, high_res_grid())
    columns = []
    body = specfun._zeta_one_plus

    def counted(t, q, factor):
        columns.append(t.size)
        return body(t, q, factor)

    monkeypatch.setattr(specfun, "_zeta_one_plus", counted)
    for _ in range(2):
        columns.clear()
        commutator(f, order)
        assert len(columns) == calls, columns
    if commutator is commutator_dx:
        assert columns[0] == 36


def _composed(commutator, f, alpha):
    """(lhs, rhs, gap) of a commutator from one-signal engine calls, as they were written
    before f and x f shared a call."""
    g, xf = f.grid, SampledSignal(f.grid, f.grid.x * f.values)
    if commutator is commutator_dx:
        lhs = (spectral.fractional_derivative(xf, alpha).values
               - g.x * spectral.fractional_derivative(f, alpha).values)
        rhs = alpha * spectral.fractional_derivative(f, alpha - 1).values
    else:
        pf = fractional_momentum(f, alpha)
        ppf = fractional_momentum(pf, alpha).values
        pxf = fractional_momentum(xf, alpha).values
        b_f, a_f = xf.values - 1j * pf.values, xf.values + 1j * pf.values
        pb_f, pa_f = pxf - 1j * ppf, pxf + 1j * ppf
        lhs = ((g.x * b_f + 1j * pb_f) - (g.x * a_f - 1j * pa_f)) / 2
        rhs = alpha * fractional_momentum(f, alpha - 1).values
    return lhs, rhs, central_gap(lhs, rhs)


@pytest.mark.parametrize("f", [GAUSS, X2GAUSS], ids=["gaussian", "x2-gaussian"])
@pytest.mark.parametrize("commutator", [commutator_dx, commutator_ladder])
def test_commutators_are_bitwise_the_composed_one_signal_calls(commutator, f):
    g = high_res_grid()
    for alpha in (1.0, 1.5, 2.0, 2.5, 3.0, 3.7):
        lhs, rhs, gap = commutator(sample(f, g), alpha)
        want = _composed(commutator, sample(f, g), alpha)
        assert (lhs.values.tobytes(), rhs.values.tobytes(), gap) == (
            want[0].tobytes(), want[1].tobytes(), want[2]), alpha


def test_an_overflowing_x_f_raises_on_every_call():
    # one sample of 1.5e307 at x = 18: x f overflows, and the memo keeps no error
    g = _gap_grid()
    values = np.zeros(g.n)
    values[int(np.searchsorted(g.x, 18.0))] = 1.5e307
    f = SampledSignal(g, values)
    for commutator in (commutator_dx, commutator_ladder, commutator_dx):
        with pytest.raises(OrderTooLarge, match="multiplication by x overflows"):
            commutator(f, 0.0)
    assert "x_times" not in f._memo


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
    # the pairing names the state's grid first
    with pytest.raises(GridMismatch, match=r"^Grid\(-16.0, 16.0, n=4096\) vs "
                                           r"Grid\(-16.0, 16.0, n=2048\)$"):
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


def test_uncertainty_bound_at_subnormal_orders_tends_to_zero():
    # a*Gamma(a/2) is 2 Gamma(1 + a/2) where a/2 rounds to 0 or Gamma(a/2)
    # overflows; the bound's cosine factor then leaves a value near 0
    for a in (5e-324, 1e-310, 1e-300):
        assert 0.0 <= uncertainty_bound(a) < 1e-15, a


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
    mpmath = pytest.importorskip("mpmath")
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


@pytest.mark.parametrize("k", [6, -10, 25])
def test_uncertainty_check_on_a_boosted_state(k):
    # e^{iqx} times the Gaussian state, q = k dp on the grid: P ~ N(q, 1) off
    # p = 0, so the spreads at orders 1, 2 and 3 follow from the raw moments of
    # N(q, 1), and the density's rows R + iI and conj(R - iI) differ
    g = high_res_grid()
    q = k * g.dp
    state = SampledSignal(g, np.exp(1j * q * g.x) * gaussian_state(g).values)
    for order, delta_p in ((1.0, 1.0), (2.0, math.sqrt(4 * q ** 2 + 2)),
                           (3.0, math.sqrt(9 * q ** 4 + 36 * q ** 2 + 15))):
        report = uncertainty_check(order, state)
        assert report.delta_p_alpha == pytest.approx(delta_p, rel=1e-14, abs=0), order
        assert report.delta_x == pytest.approx(0.5, rel=1e-14, abs=0)


@pytest.mark.parametrize("s", [3.0, 7.5, 10.0])
def test_uncertainty_check_does_not_depend_on_the_centre(s):
    # a shift is a phase of phi_hat, so the momentum sums and the Taylor
    # coefficients of |phi_hat|^2, taken about the box centre, are the centred state's
    g = high_res_grid()
    shifted = SampledSignal(g, (2.0 / np.pi) ** 0.25 * np.exp(-(g.x - s) ** 2))
    centred = gaussian_state(g)
    for order in (1.02, 1.5, 2.5, 5.5, 10.5):
        got, want = uncertainty_check(order, shifted), uncertainty_check(order, centred)
        assert got.delta_p_alpha == pytest.approx(want.delta_p_alpha, rel=1e-13, abs=0), order
        assert got.rhs_bound == pytest.approx(want.rhs_bound, rel=1e-13, abs=0), order


def _momentum_moment_per_term(density, b, signed, taylor, dp):
    """The reference of quantum._momentum_moment: one scalar zeta_negative call
    per Navot term, stopping at the first that overflows."""
    power = spectral._abs_power(b, np.arange(density.shape[1]) * dp)
    plus, minus = np.sum(density * power, axis=1)
    phase = complex(np.exp(-1j * np.pi * b)) if signed else 1.0
    total = plus + phase * minus
    if b == int(b) and (signed or b % 2 == 0):
        return total
    for j, c in enumerate(taylor):
        both = c * (1 + phase * (-1) ** j)
        try:
            total -= zeta_negative(b + j) * dp ** (b + j + 1) * both
        except OrderTooLarge:
            break
    return total


def test_uncertainty_reports_keep_the_bits_of_the_per_term_sums(monkeypatch):
    # orders 1 to 133.25: past about 81 the Gamma limit cuts the rows of the
    # |p|^(2a) sum, and at 85.5 and 100.5 it drops the whole row
    state = gaussian_state(high_res_grid())
    orders = np.arange(1.0, 133.5, 0.25).tolist()
    got = [uncertainty_check(a, state) for a in orders]
    monkeypatch.setattr(quantum, "_momentum_moment", _momentum_moment_per_term)
    want = [uncertainty_check(a, state) for a in orders]
    differ = [a for a, r, w in zip(orders, got, want) if pickle.dumps(r) != pickle.dumps(w)]
    assert not differ


def test_uncertainty_check_takes_one_fft_per_state(monkeypatch):
    # |phi_hat|^2 comes from the engine's half-spectra of the state and its
    # Taylor coefficients from the engine's moment record, so four orders on
    # a fresh state take one rfft and no other transform, a state the engine
    # has transformed takes none, and both keep the bits
    state = gaussian_state(high_res_grid())
    orders = (1.0, 1.5, 2.0, 3.0)
    calls = _counting(monkeypatch)
    got = [uncertainty_check(a, state) for a in orders]
    assert calls == ["rfft"]
    assert set(state._memo) == {"norm", "evidence", "spectra", "moments", "spread"}
    transformed = gaussian_state(high_res_grid())
    fractional_momentum(transformed, 1.5)
    calls.clear()
    reused = [uncertainty_check(a, transformed) for a in orders]
    assert calls == []
    assert pickle.dumps(reused) == pickle.dumps(got)
    want = [uncertainty_check(a, gaussian_state(high_res_grid())) for a in orders]
    assert pickle.dumps(got) == pickle.dumps(want)
    # the gates still run on every call
    with pytest.raises(AlphaInForbiddenRange):
        uncertainty_check(0.5, state)
    raw = sample(GAUSS, high_res_grid())
    for _ in range(2):
        with pytest.raises(NotNormalized):
            uncertainty_check(1.5, raw)


def test_uncertainty_check_takes_one_zeta_call_per_sum(monkeypatch):
    state = gaussian_state(high_res_grid())
    calls = []

    body = specfun._zeta_one_plus

    def counted(t, q, factor):
        calls.append(t)
        return body(t, q, factor)

    monkeypatch.setattr(specfun, "_zeta_one_plus", counted)
    for a in (a for a in np.arange(1.0, 133.5, 0.25).tolist() if a != int(a)):
        calls.clear()
        uncertainty_check(a, state)
        assert len(calls) <= 3, a


def test_order_too_large_is_typed():
    state = gaussian_state(high_res_grid())
    for a in (150.0, 400.0):
        with pytest.raises(OrderTooLarge):
            uncertainty_check(a, state)
    with pytest.raises(OrderTooLarge):
        uncertainty_bound(400.0)
    report = uncertainty_check(140.0, state)     # below the overflow the report is finite
    assert math.isfinite(report.delta_p_alpha) and report.satisfied
    # the report's largest power is |p|^(2a), and the error names it, or the
    # order as given where 2a is past the float range
    for a, text in ((400.0, r"\|p\|\^800 overflows"),
                    (1e308, r"order 1e\+308 is too large: 2a overflows")):
        with pytest.raises(OrderTooLarge, match=text):
            uncertainty_check(a, state)
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
    with pytest.raises(AlphaInForbiddenRange, match="no operator meaning"):
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
    # the order through require_order, as EigenstateSpec's, and kept as its float
    for alpha in (math.nan, -1.0, math.inf, "1.5"):
        with pytest.raises(spectral.NegativeAlpha):
            UncertaintyReport(alpha=alpha, delta_x=1.0, delta_p_alpha=1.0,
                              product=1.0, rhs_bound=1.0, satisfied=True)
    report = UncertaintyReport(alpha=np.float32(1.5), delta_x=1.0, delta_p_alpha=1.0,
                               product=1.0, rhs_bound=1.0, satisfied=True)
    assert type(report.alpha) is float and report.alpha == 1.5
    for satisfied in ("no", 1, None, np.bool_(True)):
        with pytest.raises(specfun.ArgumentOutOfRange,
                           match=rf"^satisfied must be a bool, got {re.escape(repr(satisfied))}$"):
            UncertaintyReport(alpha=1.0, delta_x=1.0, delta_p_alpha=1.0,
                              product=1.0, rhs_bound=1.0, satisfied=satisfied)


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
