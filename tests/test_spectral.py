import cmath
import math

import numpy as np
import pytest

from fracspectral.grid import GridMismatch, SampledSignal, make_grid, sample
from fracspectral.oracles import gaussian_deriv
from fracspectral.specfun import OrderTooLarge
from fracspectral.spectral import (MinusOneBranch, NegativeAlpha, Pairing,
                                   duality_residual, forward,
                                   fractional_derivative, fractional_momentum,
                                   inverse, ip_power, order_continuity_gap,
                                   p_power, pairing_continuity_gap,
                                   product_rule)

GAUSS = lambda x: np.exp(-x * x)
X2GAUSS = lambda x: x * x * np.exp(-x * x)


# --- multiplier branch -----------------------------------------------------

def test_ip_power_branch_values():
    # |p|^a * exp(i*sign(p)*a*pi/2)
    assert ip_power(1.0, np.array([3.0]))[0] == pytest.approx(3j, abs=1e-15)
    assert ip_power(1.0, np.array([-3.0]))[0] == pytest.approx(-3j, abs=1e-15)
    assert ip_power(0.5, np.array([1.0]))[0] == pytest.approx(
        cmath.exp(1j * math.pi / 4), abs=1e-15)
    assert ip_power(0.5, np.array([-1.0]))[0] == pytest.approx(
        cmath.exp(-1j * math.pi / 4), abs=1e-15)
    assert ip_power(2.0, np.array([2.0]))[0] == pytest.approx(-4.0, abs=1e-14)


def test_ip_power_zero_frequency():
    p = np.array([0.0])
    assert ip_power(0.7, p)[0] == 0.0      # no zero-mode contribution
    assert ip_power(0.0, p)[0] == 1.0      # identity operator keeps it


def test_p_power_branch_values():
    assert p_power(1.0, np.array([2.0]))[0] == pytest.approx(2.0, abs=1e-15)
    # negative axis continues through exp(-i*alpha*pi)
    assert p_power(1.0, np.array([-2.0]))[0] == pytest.approx(-2.0, abs=1e-14)
    assert p_power(0.5, np.array([-4.0]))[0] == pytest.approx(
        2.0 * cmath.exp(-1j * math.pi / 2), abs=1e-14)
    assert p_power(0.0, np.array([-9.0, 0.0, 9.0]))[1] == 1.0


def test_negative_order_rejected():
    g = make_grid(-8.0, 8.0, 256)
    sig = sample(GAUSS, g)
    with pytest.raises(NegativeAlpha):
        ip_power(-0.5, g.p)
    with pytest.raises(NegativeAlpha):
        p_power(-1.0, g.p)
    with pytest.raises(NegativeAlpha):
        fractional_derivative(sig, -0.5)
    for a in (math.nan, math.inf, -math.inf):
        for call in (lambda: ip_power(a, g.p), lambda: p_power(a, g.p),
                     lambda: fractional_derivative(sig, a),
                     lambda: fractional_momentum(sig, a),
                     lambda: product_rule(sig, sig, a)):
            with pytest.raises(NegativeAlpha, match="finite and >= 0"):
                call()


def test_order_too_large_is_typed():
    # on (-1, 1) with n = 8, |p|^a overflows at the Nyquist bin (4 pi) above
    # order 280.4 and at the largest sum of product_rule (8 pi) above 220.1
    sig = sample(GAUSS, make_grid(-1.0, 1.0, 8))
    for op in (fractional_derivative, fractional_momentum):
        assert np.all(np.isfinite(op(sig, 280.0).values))
        with pytest.raises(OrderTooLarge):
            op(sig, 281.0)
    assert np.all(np.isfinite(product_rule(sig, sig, 220.0).values))
    with pytest.raises(OrderTooLarge):
        product_rule(sig, sig, 221.0)
    # the symbols form |p|^a through the same guard: 1e5^300 raises
    # OrderTooLarge, not numpy's overflow warning
    for symbol in (ip_power, p_power):
        with pytest.raises(OrderTooLarge, match=r"\|p\|\^300 overflows"):
            symbol(300.0, np.array([-1.0, 1e5]))
        assert symbol(0.5, np.array([])).shape == (0,)
        assert np.all(np.isfinite(symbol(280.0, np.array([-4 * math.pi, 4 * math.pi]))))


# --- transform pair --------------------------------------------------------

def test_forward_matches_analytic_transform():
    # e^{-x^2} -> e^{-p^2/4}/sqrt(2) under the symmetric convention
    g = make_grid(-16.0, 16.0, 4096)
    spec = forward(sample(GAUSS, g))
    mask = np.abs(g.p) <= 8.0
    ref = np.exp(-g.p[mask] ** 2 / 4.0) / math.sqrt(2.0)
    assert np.max(np.abs(spec.coeffs[mask] - ref)) < 1e-10


def test_round_trip_and_energy():
    g = make_grid(-16.0, 16.0, 4096)
    for f in (GAUSS, X2GAUSS):
        sig = sample(f, g)
        back = inverse(forward(sig))
        assert np.max(np.abs(back.values - sig.values)) < 1e-12
        ex = np.sum(np.abs(sig.values) ** 2) * g.dx
        ep = np.sum(np.abs(forward(sig).coeffs) ** 2) * g.dp
        assert ex == pytest.approx(ep, rel=1e-12)


def test_zero_order_returns_the_same_object():
    g = make_grid(-8.0, 8.0, 256)
    sig = sample(GAUSS, g)
    assert fractional_derivative(sig, 0.0) is sig
    assert fractional_momentum(sig, 0.0) is sig


def test_order_additivity():
    g = make_grid(-16.0, 16.0, 4096)
    sig = sample(GAUSS, g)
    once = fractional_derivative(fractional_derivative(sig, 0.4), 0.8)
    at_once = fractional_derivative(sig, 1.2)
    scale = np.max(np.abs(at_once.values))
    assert np.max(np.abs(once.values - at_once.values)) / scale < 1e-10


def test_first_derivative_of_gaussian():
    g = make_grid(-16.0, 16.0, 4096)
    d = fractional_derivative(sample(GAUSS, g), 1.0)
    mask = np.abs(g.x) <= 4.0
    ref = -2 * g.x[mask] * np.exp(-g.x[mask] ** 2)
    assert np.max(np.abs(d.values[mask] - ref)) < 1e-10


def test_momentum_differs_from_derivative_at_fractional_order():
    # same |multiplier|, different phase on the negative-p half
    g = make_grid(-16.0, 16.0, 4096)
    sig = sample(GAUSS, g)
    d = fractional_derivative(sig, 0.5)
    m = fractional_momentum(sig, 0.5)
    assert np.max(np.abs(d.values - m.values)) > 1e-2
    # and they are the i^alpha rotation of each other only for plane waves,
    # not in general: check the multiplier relation instead
    np.testing.assert_allclose(
        ip_power(0.5, g.p), cmath.exp(1j * math.pi / 4) * p_power(0.5, g.p),
        atol=1e-14)


def test_decay_warning_for_wide_function():
    g = make_grid(-8.0, 8.0, 256)
    sig = sample(lambda x: 1.0 / (1.0 + x * x), g)
    d = fractional_derivative(sig, 0.5)
    assert d.warning is not None
    assert "decay" in d.warning
    clean = fractional_derivative(sample(GAUSS, make_grid(-16.0, 16.0, 256)), 0.5)
    assert clean.warning is None


# --- real transforms -------------------------------------------------------

def test_real_signal_gives_an_exactly_real_derivative():
    g = make_grid(-16.0, 16.0, 4096)
    sig = sample(GAUSS, g)
    for a in (0.3, 1.0, 2.5, 4.8):
        d = fractional_derivative(sig, a)
        assert np.all(d.values.imag == 0.0)
        m = fractional_momentum(sig, a)
        want = cmath.exp(-0.5j * math.pi * a) * d.values
        assert np.max(np.abs(m.values - want)) <= 1e-15 * np.max(np.abs(d.values))


def test_complex_signal_splits_into_real_and_imaginary_parts():
    g = make_grid(-16.0, 16.0, 4096)
    u = np.exp(-g.x ** 2)
    v = g.x * np.exp(-g.x ** 2 / 2)
    for a in (0.3, 1.7):
        whole = fractional_derivative(SampledSignal(g, u + 1j * v), a).values
        parts = (fractional_derivative(SampledSignal(g, u), a).values
                 + 1j * fractional_derivative(SampledSignal(g, v), a).values)
        assert np.max(np.abs(whole - parts)) < 1e-14


def test_nyquist_cosine_splits_the_nyquist_bin():
    # cos(pi x / dx) on the samples is (+-1)^j: its first derivative there is 0
    g = make_grid(-4.0, 4.0, 16)
    sig = SampledSignal(g, np.cos(np.pi * g.x / g.dx))
    assert np.max(np.abs(fractional_derivative(sig, 1.0).values)) < 1e-14
    d2 = fractional_derivative(sig, 2.0).values
    np.testing.assert_allclose(d2, -(np.pi / g.dx) ** 2 * sig.values, rtol=0, atol=1e-13)


def test_transform_count_per_part(monkeypatch):
    calls = []

    def counted(name):
        fn = getattr(np.fft, name)

        def wrapper(a, *args, **kwargs):
            calls.append(name)
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(name))
    g = make_grid(-16.0, 16.0, 256)
    real = sample(GAUSS, g)
    fractional_derivative(real, 0.5)
    assert sorted(calls) == ["irfft", "rfft"]
    calls.clear()
    fractional_momentum(SampledSignal(g, real.values * np.exp(1j * g.x)), 0.5)
    assert sorted(calls) == ["irfft", "irfft", "rfft", "rfft"]


# --- wrap-around images ----------------------------------------------------

def _short_box_gaussian():
    g = make_grid(-8.0, 8.0, 1024)
    mask = np.abs(g.x) <= 4.0
    return g, sample(GAUSS, g), mask


def test_engine_gives_the_line_derivative_on_a_short_box():
    # on (-8, 8) the periodic images of the x^(-1-a) tail are 3e-4 .. 5e-2
    g, sig, mask = _short_box_gaussian()
    for a in (0.3, 0.5, 1.7, 2.5):
        ref = np.array([gaussian_deriv(a, float(x)) for x in g.x[mask]])
        d = fractional_derivative(sig, a)
        m = fractional_momentum(sig, a)
        assert d.warning is None and d.images.order == a
        assert np.max(np.abs(d.values[mask] - ref)) < 1e-12, a
        assert np.max(np.abs(m.values[mask] - cmath.exp(-0.5j * math.pi * a) * ref)) < 1e-12, a


def test_images_restore_the_periodic_result():
    g, sig, mask = _short_box_gaussian()
    d = fractional_derivative(sig, 0.5)
    periodic = d.values + d.images.values(g)
    ref = np.array([gaussian_deriv(0.5, float(x)) for x in g.x[mask]])
    assert np.max(np.abs(periodic[mask] - ref)) > 1e-2


def test_chained_result_carries_order_and_phase():
    g, sig, _ = _short_box_gaussian()
    chained = fractional_momentum(fractional_derivative(sig, 0.4), 0.8)
    assert chained.images.order == pytest.approx(1.2)
    assert chained.images.phase == pytest.approx(cmath.exp(-0.4j * math.pi))
    direct = cmath.exp(-0.4j * math.pi) * fractional_derivative(sig, 1.2).values
    assert np.max(np.abs(chained.values - direct)) < 1e-12


def test_integer_total_order_drops_the_images():
    g, sig, _ = _short_box_gaussian()
    twice = fractional_derivative(fractional_derivative(sig, 0.5), 0.5)
    assert twice.images is None
    ref = -2 * g.x * np.exp(-g.x ** 2)
    assert np.max(np.abs(twice.values - ref)) < 1e-12


def test_zero_signal_stays_zero():
    g = make_grid(-8.0, 8.0, 256)
    d = fractional_derivative(SampledSignal(g, np.zeros(256)), 0.5)
    assert np.all(d.values == 0.0)


def test_integer_order_never_warns():
    g = make_grid(-8.0, 8.0, 256)
    sig = sample(lambda x: 1.0 / (1.0 + x * x), g)
    assert fractional_derivative(sig, 1.0).warning is None


# --- continuity in the order ----------------------------------------------

def test_order_continuity_gap_decreases():
    g = make_grid(-16.0, 16.0, 4096)
    sig = sample(GAUSS, g)
    g10 = order_continuity_gap(sig, 1, 10)
    g100 = order_continuity_gap(sig, 1, 100)
    assert g100 < g10
    assert g100 / g10 < 0.15


def test_order_continuity_gap_validation():
    g = make_grid(-8.0, 8.0, 256)
    sig = sample(GAUSS, g)
    with pytest.raises(ValueError):
        order_continuity_gap(sig, -1, 10)
    with pytest.raises(ValueError):
        order_continuity_gap(sig, 1, 0)


# --- duality ---------------------------------------------------------------

def test_duality_residual_integer_orders():
    g = make_grid(-16.0, 16.0, 4096)
    f = sample(GAUSS, g)
    h = sample(X2GAUSS, g)
    for a in (1.0, 2.0, 3.0):
        res = duality_residual(f, h, a, Pairing.SESQUILINEAR,
                               MinusOneBranch.E_PLUS_I_PI)
        assert abs(res) < 1e-10, a


def test_duality_residual_branch_is_irrelevant_at_even_order():
    g = make_grid(-16.0, 16.0, 4096)
    f = sample(GAUSS, g)
    h = sample(X2GAUSS, g)
    r1 = duality_residual(f, h, 2.0, Pairing.BILINEAR, MinusOneBranch.E_PLUS_I_PI)
    r2 = duality_residual(f, h, 2.0, Pairing.BILINEAR, MinusOneBranch.E_MINUS_I_PI)
    assert abs(r1) < 1e-10 and abs(r2) < 1e-10


def test_duality_residual_nonzero_at_half_order():
    g = make_grid(-16.0, 16.0, 4096)
    f = sample(GAUSS, g)
    h = sample(X2GAUSS, g)
    assert abs(duality_residual(f, h, 0.5, Pairing.SESQUILINEAR,
                                MinusOneBranch.E_PLUS_I_PI)) > 1e-3


def test_duality_requires_matching_grids():
    f = sample(GAUSS, make_grid(-16.0, 16.0, 4096))
    h = sample(X2GAUSS, make_grid(-16.0, 16.0, 2048))
    with pytest.raises(GridMismatch):
        duality_residual(f, h, 1.0, Pairing.SESQUILINEAR,
                         MinusOneBranch.E_PLUS_I_PI)


def test_pairing_continuity_gap_scales_like_1_over_n():
    g = make_grid(-16.0, 16.0, 4096)
    psi = sample(GAUSS, g)
    h = sample(X2GAUSS, g)
    g10 = pairing_continuity_gap(psi, psi, h, 0.5, 10)
    g100 = pairing_continuity_gap(psi, psi, h, 0.5, 100)
    assert g10 / g100 == pytest.approx(10.0, rel=1e-6)


# --- product rule ----------------------------------------------------------

def test_product_rule_matches_leibniz_at_order_one():
    g = make_grid(-16.0, 16.0, 256)
    f = sample(GAUSS, g)
    h = sample(X2GAUSS, g)
    got = product_rule(f, h, 1.0)
    df = fractional_derivative(f, 1.0)
    dh = fractional_derivative(h, 1.0)
    ref = df.values * h.values + f.values * dh.values
    w = slice(64, 192)
    assert np.max(np.abs(got.values[w] - ref[w])) < 1e-6


def test_product_rule_fractional_self_consistency():
    # D^a(f*h) from the double-spectrum route vs the plain engine
    g = make_grid(-16.0, 16.0, 256)
    f = sample(GAUSS, g)
    h = sample(X2GAUSS, g)
    got = product_rule(f, h, 0.5)
    direct = fractional_derivative(sample(lambda x: GAUSS(x) * X2GAUSS(x), g), 0.5)
    num = np.linalg.norm(got.values - direct.values)
    den = np.linalg.norm(direct.values)
    assert num / den < 1e-4


def test_product_rule_with_constant_factor():
    g = make_grid(-16.0, 16.0, 256)
    one = sample(lambda x: np.ones_like(x), g)
    f = sample(GAUSS, g)
    got = product_rule(one, f, 2.0)
    ref = fractional_derivative(f, 2.0)
    w = slice(64, 192)
    assert np.max(np.abs(got.values[w] - ref.values[w])) < 1e-6


def _dense_product_rule(f, h, alpha):
    """The literal double sum over both frequency grids, O(n^3) here.

    (i^a / 2pi) sum_s sum_q e^{i(s+q)x} hhat(s) fhat(q) (s+q)^a dp^2, with
    (s+q)^a on the momentum branch.
    """
    g = f.grid
    u = g.p[:, None] + g.p[None, :]                       # s + q
    weights = forward(h).coeffs[:, None] * forward(f).coeffs[None, :] * p_power(alpha, u)
    sums = np.einsum("jsq,sq->j", np.exp(1j * g.x[:, None, None] * u), weights)
    return cmath.exp(0.5j * math.pi * alpha) / (2 * np.pi) * sums * g.dp * g.dp


def test_product_rule_matches_the_dense_double_sum():
    g = make_grid(-16.0, 16.0, 64)
    f = sample(GAUSS, g)
    h = sample(X2GAUSS, g)
    for a in (0.5, 1.5, 2.5):
        got = product_rule(f, h, a)
        periodic = got.values + got.images.values(g)
        ref = _dense_product_rule(f, h, a)
        assert np.max(np.abs(periodic - ref)) <= 1e-12 * np.max(np.abs(ref)), a


def test_product_rule_warns_like_the_engine():
    small = make_grid(-2.0, 2.0, 64)
    f = sample(GAUSS, small)
    got = product_rule(f, f, 0.5)
    ref = fractional_derivative(SampledSignal(small, f.values * f.values), 0.5)
    assert ref.warning is not None
    assert got.warning == ref.warning
    f = sample(GAUSS, make_grid(-16.0, 16.0, 4096))
    assert product_rule(f, f, 0.5).warning is None


def test_product_rule_guards():
    for n in (1024, 4096):
        big = make_grid(-16.0, 16.0, n)
        f = sample(GAUSS, big)
        h = sample(X2GAUSS, big)
        fh = sample(lambda x: GAUSS(x) * X2GAUSS(x), big)
        for a in (0.5, 2.5):
            got = product_rule(f, h, a).values
            direct = fractional_derivative(fh, a).values
            assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct)), (n, a)
    g = make_grid(-16.0, 16.0, 256)
    f = sample(GAUSS, g)
    h = sample(GAUSS, make_grid(-8.0, 8.0, 256))
    with pytest.raises(GridMismatch):
        product_rule(f, h, 0.5)
    with pytest.raises(NegativeAlpha):
        product_rule(f, f, -1.0)
