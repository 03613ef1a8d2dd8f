import cmath
import copy as copy_module
import math
import pickle
import warnings

import numpy as np
import pytest

from fracspectral import specfun, spectral
from fracspectral.grid import (EvaluationFailure, GridMismatch, SampledSignal, Spectrum,
                               make_grid, sample)
from fracspectral.oracles import gaussian_deriv, x2gaussian_deriv
from fracspectral.quantum import high_res_grid, symmetry_residual
from fracspectral.specfun import OrderTooLarge
from fracspectral.spectral import (AlphaInForbiddenRange, MinusOneBranch,
                                   NegativeAlpha, Pairing, duality_residual, forward,
                                   fractional_derivative, fractional_momentum,
                                   inverse, ip_power, order_continuity_gap,
                                   p_power, pairing_continuity_gap,
                                   product_rule)

from test_quantum import _counting    # the np.fft call counter

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


def test_engine_symbol_has_the_bits_of_the_symbols(monkeypatch):
    # the engine forms (ip)^a on its rfft bins p = k dp, k = 0..n/2, as |p|^a times
    # the p > 0 phase i^a, without the gates of ip_power: the bits of ip_power on
    # those bins, its |p|^a the bits of p_power there; where those raise
    # OrderTooLarge, D^a and P_a of a sample on the grid raise the same text before
    # any transform (the engine's one test of |p|^a, at the Nyquist bin)
    orders = (0.0, 5e-324, 1e-12, 0.3, 1.0, 2.0, 2.5, 5.2, 60.5, 170.0)
    calls = _counting(monkeypatch)
    for box in ((-8.0, 8.0), (-16.0, 16.0)):
        for n in (2 ** k for k in range(3, 16)):
            g = make_grid(*box, n)
            bins = np.arange(n // 2 + 1) * g.dp
            assert spectral._half_bins(n, g.dp).tobytes() == bins.tobytes()
            for a in orders:
                try:
                    want = ip_power(a, bins), p_power(a, bins)
                except OrderTooLarge as exc:
                    sig = sample(GAUSS, g)
                    calls.clear()   # make_grid's fftfreq
                    for op in (fractional_derivative, fractional_momentum):
                        with pytest.raises(OrderTooLarge) as raised:
                            op(sig, a)
                        assert str(raised.value) == str(exc), (box, n, a)
                    assert calls == [], (box, n, a)
                    continue
                assert spectral._half_symbol(a, g).tobytes() == want[0].tobytes(), (box, n, a)
                modulus = spectral._abs_power(a, spectral._half_bins(n, g.dp))
                assert modulus.astype(complex).tobytes() == want[1].tobytes(), (box, n, a)
    # on (-1, 1) with n = 8 the Nyquist bin 4 pi overflows |p|^281: the engine
    # raises before any transform, with the text of the guard
    sig = sample(GAUSS, make_grid(-1.0, 1.0, 8))
    calls.clear()
    for op in (fractional_derivative, fractional_momentum):
        with pytest.raises(OrderTooLarge) as raised:
            op(sig, 281.0)
        assert str(raised.value) == ("|p|^281 overflows double precision at |p| = 12.5664: "
                                     "the order is too large for this grid")
    assert calls == []


def test_tiny_orders_match_the_closed_forms():
    # D^a tends to the identity as a -> 0: zeta(1 + a, q) ~ 1/a in the image
    # sum takes its pole term at the order itself, so the rounding of 1 + a
    # costs nothing down to the smallest order the images accept
    orders = [10.0 ** -k for k in range(2, 15, 2)] + [1e-15, 2e-16, 1.2e-16]
    for box, n in (((-8.0, 8.0), 256), ((-16.0, 16.0), 4096)):
        g = make_grid(*box, n)
        inner = np.abs(g.x) <= 4.0
        for fn, closed in ((lambda x: np.exp(-x * x), gaussian_deriv),
                           (lambda x: x * x * np.exp(-x * x), x2gaussian_deriv)):
            f = SampledSignal(g, fn(g.x))
            for a in orders:
                want = closed(a, g.x[inner])
                for op, phase in ((fractional_derivative, 1.0),
                                  (fractional_momentum, cmath.exp(-0.5j * math.pi * a))):
                    error = np.max(np.abs(op(f, a).values[inner] - phase * want))
                    assert error < 1e-15, (box, op.__name__, a, error)
        f = SampledSignal(g, np.exp(-g.x * g.x))
        product = product_rule(f, SampledSignal(g, np.ones(n)), 1e-14)
        error = np.max(np.abs(product.values[inner] - gaussian_deriv(1e-14, g.x[inner])))
        assert error < 1e-15, (box, "product_rule", error)


def test_smallest_orders_return_the_signal():
    # D^a tends to the identity: the symbol is 1 off the p = 0 bin and the
    # images give back the mean that bin deletes, -nu_0/P, since the image sum
    # takes the factor a into zeta(1 + a, q), whose pole term is then a/a = 1.
    # Down to the smallest subnormal order no call raises or warns, and each
    # result is the closed form on |x| <= 4 and f itself on the whole grid
    orders = (1e-16, 1e-17, 1e-100, 1e-300, 1e-310, 5e-324)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for box, n in (((-8.0, 8.0), 256), ((-16.0, 16.0), 4096)):
            g = make_grid(*box, n)
            inner = np.abs(g.x) <= 4.0
            one = SampledSignal(g, np.ones(n))
            for fn, closed in ((GAUSS, gaussian_deriv), (X2GAUSS, x2gaussian_deriv)):
                f = SampledSignal(g, fn(g.x))
                bound = 1e-15 * np.max(np.abs(f.values))
                for a in orders:
                    want = closed(a, g.x[inner])
                    for name, result in (("D", fractional_derivative(f, a)),
                                         ("P", fractional_momentum(f, a)),
                                         ("product_rule", product_rule(f, one, a))):
                        closed_error = np.max(np.abs(result.values[inner] - want))
                        identity_error = np.max(np.abs(result.values - f.values))
                        assert closed_error < bound, (box, name, a, closed_error)
                        assert identity_error < bound, (box, name, a, identity_error)
        # a periodic signal has no images, so any order returns
        wide = sample(lambda x: np.ones_like(x), make_grid(-8.0, 8.0, 256))
        assert np.all(np.isfinite(fractional_derivative(wide, 5e-324).values))


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
    periodic = d.values + d.images.values
    ref = np.array([gaussian_deriv(0.5, float(x)) for x in g.x[mask]])
    assert np.max(np.abs(periodic[mask] - ref)) > 1e-2


def test_image_record_is_read_only():
    # the record states what the result subtracted: a write to its moments or
    # to its image sum would leave it describing other values than the
    # result's (d.values + d.images.values no longer the periodic value)
    g = make_grid(-16.0, 16.0, 1024)
    d = fractional_derivative(sample(GAUSS, g), 0.5)
    again = fractional_derivative(d, 0.5).values
    images = d.images.values
    for array in (d.images.moments, images):
        with pytest.raises(ValueError, match="read-only"):
            array[0] *= 2
    assert np.array_equal(fractional_derivative(d, 0.5).values, again)
    # the record holds its own copy of the moments it is given
    moments = np.array([1.0, 0.5])
    record = spectral.ImageCorrection(g, 0.5, moments)
    moments[0] = 2.0
    assert record.moments[0] == 1.0 and not record.moments.flags.writeable
    for copy in (pickle.loads(pickle.dumps(d.images)), copy_module.deepcopy(d.images)):
        assert not copy.moments.flags.writeable
        assert np.array_equal(copy.values, images)
    # the engine subtracts the image sum straight into its result, and its record
    # forms the values on first read from the same table: the bits of a record
    # built directly, from a table of its own
    for op in (fractional_derivative, fractional_momentum):
        for a in (0.02, 0.5, 2.5, 5.2):
            record = op(sample(GAUSS, g), a).images
            direct = spectral.ImageCorrection(g, record.order, record.moments)
            assert record.values.tobytes() == direct.values.tobytes(), (op, a)
            assert record.values is record.values and not record.values.flags.writeable


def test_an_engine_record_reads_its_values_from_the_table_of_its_call(monkeypatch):
    # the record keeps the _ImageTable its result's image sum was subtracted with,
    # so reading its values forms no second zeta table
    g = make_grid(-16.0, 16.0, 1024)
    f, h = sample(GAUSS, g), sample(lambda x: np.exp(-x * x / 3.0), g)
    calls = []
    body = specfun._zeta_one_plus

    def counted(t, q, factor):
        calls.append(t.size)
        return body(t, q, factor)

    monkeypatch.setattr(specfun, "_zeta_one_plus", counted)
    for a in (0.02, 0.5, 2.5, 5.2):
        for result in (fractional_derivative(f, a), fractional_momentum(f, a),
                       product_rule(f, h, a)):
            calls.clear()
            assert np.isfinite(result.images.values).all()
            assert calls == [], a


def _result_bits(signal):
    """The values, warning and image record of an engine result, as bytes and text."""
    images = signal.images
    record = images and (images.order, images.moments.tobytes(), images.values.tobytes())
    return signal.values.tobytes(), signal.warning, record


def test_image_record_gates_its_inputs():
    g = make_grid(-8.0, 8.0, 256)
    with pytest.raises(GridMismatch, match="needs a Grid"):
        spectral.ImageCorrection(0.5, 1.0, [1.0])
    for moments, message in (([math.nan], "non-finite value at j=0"),
                             ([1.0, math.inf], "non-finite value at j=1"),
                             ([10 ** 400], "moments hold an int past the float range")):
        with pytest.raises(EvaluationFailure) as err:
            spectral.ImageCorrection(g, 0.5, moments)
        assert str(err.value) == message
    # the orders _images gives no record, the record refuses
    for order in (0, 1, 2.0, 170.5, 300.0):
        with pytest.raises(AlphaInForbiddenRange, match="leaves no image tail"):
            spectral.ImageCorrection(g, order, [1.0])
    # the smallest orders have a record: -nu_0/P, the limit as a -> 0
    for order in (1e-17, 5e-324):
        record = spectral.ImageCorrection(make_grid(-16.0, 16.0, 256), order, [1.0, 0.5])
        np.testing.assert_allclose(record.values, -1.0 / 32.0, rtol=1e-15, atol=0)
    with pytest.raises(NegativeAlpha):
        spectral.ImageCorrection(g, -0.5, [1.0])
    # the table holds 40 moment weights: a 41st is refused, not broadcast
    with pytest.raises(specfun.ArgumentOutOfRange) as err:
        spectral.ImageCorrection(g, 0.5, np.full(41, 0.5))
    assert str(err.value) == "an image record takes at most 40 moments, got 41"
    assert np.isfinite(spectral.ImageCorrection(g, 0.5, np.full(40, 0.5)).values).all()
    # an image sum past the float range: the typed error alone, without numpy's
    # overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for grid, order, moments, where in ((g, 60.5, [1e300, 0.5], "-8.0"),
                                            (make_grid(-1.0, 1.0, 256), 0.5,
                                             [1.7e308, 1.7e308], "-1.0")):
            with pytest.raises(EvaluationFailure) as err:
                spectral.ImageCorrection(grid, order, moments)
            assert str(err.value) == f"non-finite value at x={where}"


@pytest.mark.parametrize("op", [fractional_derivative, fractional_momentum])
def test_image_record_and_result_survive_pickle_and_deepcopy(op):
    g = make_grid(-16.0, 16.0, 1024)
    d = op(sample(GAUSS, g), 0.5)
    chain = _result_bits(op(d, 0.7))
    for copy in (pickle.loads(pickle.dumps(d)), copy_module.deepcopy(d)):
        assert _result_bits(copy) == _result_bits(d)
        for array in (copy.values, copy.images.moments, copy.images.values):
            assert not array.flags.writeable
        assert copy.images.grid == g
        assert _result_bits(op(copy, 0.7)) == chain
    for record in (pickle.loads(pickle.dumps(d.images)), copy_module.deepcopy(d.images)):
        assert not record.values.flags.writeable
        assert np.array_equal(record.values, d.images.values)
        assert np.array_equal(record.moments, d.images.moments)
    # a record copied before its values were read forms them on the way: the bits of
    # the original's, read-only
    fresh = op(sample(GAUSS, g), 0.5).images
    for record in (pickle.loads(pickle.dumps(fresh)), copy_module.deepcopy(fresh)):
        assert not (record.values.flags.writeable or record.moments.flags.writeable)
        assert record.values.tobytes() == fresh.values.tobytes()
        assert record.moments.tobytes() == fresh.moments.tobytes()


@pytest.mark.parametrize("f", [GAUSS, lambda x: np.exp(-(x - 3) ** 2 + 0.5j * x)],
                         ids=["gaussian", "off-centre complex"])
def test_a_reused_signal_gives_the_bits_of_fresh_ones(f):
    # the signal's memo keeps its half-spectra, its support record and all
    # _MAX_MOMENTS moments, formed at its first fractional order
    g = make_grid(-16.0, 16.0, 4096)
    kept = sample(f, g)
    taken = []
    for a in (0.3, 5.2, 0.02, 2.5):
        for op in (fractional_derivative, fractional_momentum):
            assert _result_bits(op(kept, a)) == _result_bits(op(sample(f, g), a)), (a, op)
            chained = op(op(kept, a), 0.7)
            assert _result_bits(chained) == _result_bits(op(op(sample(f, g), a), 0.7)), (a, op)
        taken.append(len(kept._memo["moments"]))
    assert taken == [spectral._MAX_MOMENTS] * 4
    assert set(kept._memo) == {"spectra", "evidence", "moments"}
    assert not any(c.flags.writeable for c in kept._memo["spectra"])


@pytest.mark.parametrize("n", [8, 16, 256, 4096, 2 ** 15])
def test_block_moments_match_direct_sums(n):
    # the block product of _moments against sum_k t_k^j f_k dx over the
    # support, t_k the offset from the box centre in periods, both in the
    # signal's unit (n = 8 and 16 give blocks of one sample).  Each kept
    # moment's error, times the stop test's bound on its image term, stays
    # below 1e-16 max|f|, also at scales where dx unit t^j is subnormal
    g = make_grid(-16.0, 16.0, n)
    t = np.arange(n) / n - 0.5
    period = g.x_max - g.x_min
    for f in (GAUSS, X2GAUSS, lambda x: np.exp(-(x - 6) ** 2), lambda x: np.exp(-(x - 9) ** 2),
              lambda x: np.exp(-(x - 10) ** 2 + 0.5j * x)):
        for scale in (1.0, 1e-300, 1e300):
            signal = sample(lambda x: scale * f(x), g)
            top, unit, lo, hi = spectral._evidence(signal)[:4]
            for order in (0.5, 5.2):
                table = spectral._ImageTable(order, g)
                j = np.arange(len(spectral._moments(signal, table)))
                s = 1.0 + order + j
                bound = table.per_moment[:j.size] * (2.0 ** s + 1.0 / (s - 1.0))
                direct = t[lo:hi] ** j[:, None] @ (signal.values[lo:hi] * unit) * g.dx
                error = np.abs(signal._memo["moments"][:j.size] - direct) * bound
                assert error.max() <= 1e-16 * top * unit, (f, scale, order)


def test_engine_results_are_read_only_and_their_own():
    g = make_grid(-16.0, 16.0, 256)
    f, h = sample(GAUSS, g), sample(lambda x: x * np.exp(-x * x), g)
    spectrum = forward(f)
    results = [fractional_derivative(f, 0.5).values, fractional_momentum(f, 1.5).values,
               spectrum.coeffs, inverse(spectrum).values, product_rule(f, h, 0.5).values]
    for values in results:
        assert not values.flags.writeable and values.flags.owndata
    assert not np.shares_memory(f.values, results[0])


def test_pickles_and_copies_carry_no_memo():
    g = make_grid(-16.0, 16.0, 1024)
    s = sample(GAUSS, g)
    before = pickle.dumps(s)
    d = fractional_derivative(s, 0.5)
    assert s._memo
    assert pickle.dumps(s) == before
    assert fractional_derivative(s, 0) is s
    for other in (pickle.loads(before), copy_module.copy(s), copy_module.deepcopy(s)):
        assert other._memo == {} and not other.values.flags.writeable
        assert np.array_equal(other.values, s.values)
    again = pickle.loads(pickle.dumps(d))
    assert _result_bits(again) == _result_bits(d)
    assert _result_bits(fractional_derivative(again, 0.5)) == _result_bits(
        fractional_derivative(d, 0.5))


_CENTRED = lambda x: np.exp(-x * x)
_DELTA = lambda x: np.where(np.arange(x.size) == x.size // 2, 1.0, 0.0)


@pytest.mark.parametrize("f, order, count", [
    (_CENTRED, 0.02, 17), (_CENTRED, 0.5, 19), (_CENTRED, 2.5, 19), (_CENTRED, 5.2, 19),
    # off-centre input: moments about the box centre reach the cap
    (lambda x: np.exp(-(x - 6) ** 2), 0.5, 40),
    (lambda x: np.exp(-(x - 9) ** 2), 0.5, 40),
    (lambda x: np.exp(-(x - 10) ** 2), 0.5, 40),
    (_DELTA, 0.5, 3),
    (np.zeros_like, 0.5, 40),                   # no moment is ever below a limit of 0
    (lambda x: 1e-300 * np.exp(-x * x), 0.5, 19),
], ids=["gauss_0.02", "gauss_0.5", "gauss_2.5", "gauss_5.2", "shift_6", "shift_9",
        "shift_10", "delta", "zero", "gauss_1e-300"])
def test_image_record_moment_count(f, order, count):
    # where the stop of the moment list falls: two moments in a row whose
    # image term is bounded below the limit, checked once per chunk
    g = make_grid(-16.0, 16.0, 4096)
    d = fractional_derivative(SampledSignal(g, f(g.x)), order)
    assert len(d.images.moments) == count


def test_image_record_moment_count_of_f_and_xf_on_high_res_grid():
    # the operator layer's grid at order 2.5: f takes 15 moments and x*f 18
    g = high_res_grid()
    f = sample(GAUSS, g)
    xf = SampledSignal(g, g.x * f.values)
    assert [len(fractional_derivative(s, 2.5).images.moments) for s in (f, xf)] == [15, 18]


@pytest.mark.parametrize("box, n", [((-8.0, 8.0), 256), ((-16.0, 16.0), 4096),
                                    ((-20.0, 20.0), 8192)], ids=["256", "4096", "8192"])
def test_image_sum_matches_direct_zeta_summation(box, n):
    # the block Taylor kernel against sum_j terms_j zeta(1+a+j, q_i) at every
    # grid point, for every decaying Gaussian and x^2-Gaussian centred at 0 to
    # 10 (up to 40 moments): its truncation stays at roundoff of max|f|.  The
    # reference takes a zeta(1+a+j, q), its pole term a/a at the order itself,
    # as the kernel does, through the same body
    g = make_grid(*box, n)
    q = 0.5 + np.arange(n) / n
    signals = [SampledSignal(g, np.exp(-(g.x - c) ** 2) * (g.x - c) ** k)
               for c in (0.0, 3.0, 6.0, 9.0, 10.0) for k in (0, 2)]
    signals = [f for f in signals if spectral._evidence(f).decays]
    for order in (0.02, 0.3, 0.5, 1.5, 2.5, 3.7, 5.2):
        t = (1.0 + order + np.arange(spectral._MAX_MOMENTS)) - 1.0
        t[0] = order
        zeta = specfun._zeta_one_plus(t, q[:, None], order)
        table = spectral._ImageTable(order, g)
        for f in signals:
            record = spectral.ImageCorrection(g, order, spectral._moments(f, table))
            terms = table.scale * record.moments * table.weights[:len(record.moments)]
            direct = zeta[:, :len(terms)] @ terms
            error = np.max(np.abs(record.values - direct))
            assert error < 2e-16 * np.max(np.abs(f.values)), (order, len(terms), error)


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150])
def test_moment_count_does_not_depend_on_the_scale(scale):
    # the stop test is taken relative to max|f|: c*f keeps the moment count of
    # f where its moments and bounds would underflow (or grow) with c
    for box, n in (((-8.0, 8.0), 256), ((-16.0, 16.0), 4096)):
        g = make_grid(*box, n)
        f = np.exp(-g.x * g.x).astype(complex)
        for order in (0.02, 0.5, 2.5, 5.2):
            table = spectral._ImageTable(order, g)
            counts = [len(spectral._moments(SampledSignal(g, c * f), table))
                      for c in (1.0, scale)]
            assert counts[0] == counts[1], (box, order, counts)


def test_image_record_of_a_gaussian_near_the_float_minimum():
    # 1e-300 e^{-x^2} on (-8, 8) stopped at 25 moments where e^{-x^2} takes
    # 29: the bound of moment 24 underflowed to 0
    g = make_grid(-8.0, 8.0, 256)
    d = [fractional_derivative(SampledSignal(g, c * np.exp(-g.x * g.x)), 0.02) for c in (1.0, 1e-300)]
    assert [len(r.images.moments) for r in d] == [29, 29]


def test_chained_result_carries_order_and_phase():
    g, sig, _ = _short_box_gaussian()
    first = fractional_derivative(sig, 0.4)
    chained = fractional_momentum(first, 0.8)
    assert chained.images.order == pytest.approx(1.2)
    # the record's moments carry the momentum phase of the chain
    assert chained.images.moments == pytest.approx(cmath.exp(-0.4j * math.pi)
                                                   * first.images.moments)
    direct = cmath.exp(-0.4j * math.pi) * fractional_derivative(sig, 1.2).values
    assert np.max(np.abs(chained.values - direct)) < 1e-12


def test_chains_meet_the_direct_route_and_the_closed_forms():
    # D^b D^a f = D^(a+b) f: a further order of a corrected result is taken
    # from its source at a + b, so a chain meets the direct call at a + b (with
    # its phase) on the whole grid, and after a tiny first order the closed
    # form at a + b (through the order's full moment list, not the first one's)
    ops = {"D": (fractional_derivative, lambda a: 1.0),
           "P": (fractional_momentum, lambda a: cmath.exp(-0.5j * math.pi * a))}
    chains = (("D", "D"), ("D", "P"), ("P", "P"))        # (first, second) operator
    for box, n in (((-8.0, 8.0), 256), ((-16.0, 16.0), 4096), ((-20.0, 20.0), 8192)):
        g = make_grid(*box, n)
        window = np.abs(g.x) <= 4.0
        for f, closed in ((GAUSS, gaussian_deriv), (X2GAUSS, x2gaussian_deriv)):
            sig = sample(f, g)
            for a in (1e-17, 1e-12, 1e-8, 0.02, 0.3, 0.7):
                for b in (0.5, 1.5, 2.5):
                    direct = fractional_derivative(sig, a + b).values
                    top = np.max(np.abs(direct))
                    line = closed(a + b, g.x[window]) if a < 1e-7 else None
                    for first, second in chains:
                        (op_a, phase_a), (op_b, phase_b) = ops[first], ops[second]
                        got = op_b(op_a(sig, a), b).values
                        phase = phase_a(a) * phase_b(b)
                        want = (fractional_momentum(sig, a + b).values if first == "P"
                                else phase * direct)
                        where = (box, f, a, b, first, second)
                        assert np.max(np.abs(got - want)) <= 1e-15 * top, where
                        if line is not None:
                            error = np.max(np.abs(got[window] - phase * line))
                            assert error <= 1e-13 * top, where
                    # product_rule's result keeps the sampled f*1 as its source
                    chained = fractional_derivative(product_rule(sig, sample(np.ones_like, g), a), b)
                    assert _result_bits(chained) == _result_bits(
                        fractional_derivative(sample(f, g), a + b)), (box, a, b)
    # a chain refuses where the direct call at a + b refuses
    sig = sample(GAUSS, make_grid(-16.0, 16.0, 4096))
    for call in (lambda: fractional_derivative(sig, 121.0),
                 lambda: fractional_derivative(fractional_derivative(sig, 60.5), 60.5)):
        with pytest.raises(OrderTooLarge, match=r"\|p\|\^121 overflows"):
            call()


@pytest.mark.parametrize("n, second", [(1024, 0.5), (256, 169.9)],
                         ids=["total_order_1", "past_order_170"])
def test_integer_total_order_drops_the_images(n, second):
    # an integer order leaves no tail; past order 170 Gamma(-a) underflows
    g = make_grid(-8.0, 8.0, n)
    chained = fractional_derivative(fractional_derivative(sample(GAUSS, g), 0.5), second)
    assert chained.images is None and chained.warning is None
    assert np.isfinite(chained.values).all()
    if second == 0.5:
        ref = -2 * g.x * np.exp(-g.x ** 2)
        assert np.max(np.abs(chained.values - ref)) < 1e-12
    else:
        assert 0.5 + second > spectral._MAX_IMAGE_ORDER


def test_image_power_past_double_precision_is_order_too_large():
    # on a box 2e-300 wide, P^(-1-a) of the image correction overflows
    narrow = sample(lambda x: np.exp(-(x / 1e-301) ** 2), make_grid(-1e-300, 1e-300, 64))
    with pytest.raises(OrderTooLarge, match=r"box width P = 2e-300, order 0\.5"):
        fractional_derivative(narrow, 0.5)
    # 2e-150 wide: P^(-1.5) is finite, P^(-2.2) of the chained images is not
    box = sample(lambda x: np.exp(-(x / 1e-151) ** 2), make_grid(-1e-150, 1e-150, 64))
    half = fractional_derivative(box, 0.5)
    assert np.isfinite(half.values).all()
    with pytest.raises(OrderTooLarge, match=r"box width P = 2e-150, order 1\.2"):
        fractional_derivative(half, 0.7)


def test_transform_overflow_is_order_too_large_without_warnings():
    # samples near the float range: the transform's sums, or their products
    # with the symbol, overflow double precision, on the periodic route and
    # on the image route
    g = make_grid(-8.0, 8.0, 64)
    flat = SampledSignal(g, np.full(64, 1e308))
    decaying = SampledSignal(g, 1e308 * GAUSS(4.0 * g.x))
    assert decaying.boundary_decay == 0.0
    message = r"transform overflows double precision at order 0\.5: samples up to \|f\| = 1e\+308"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sig in (flat, decaying):
            for op in (fractional_derivative, fractional_momentum):
                with pytest.raises(OrderTooLarge, match=message):
                    op(sig, 0.5)
        # order 0 makes no transform; at 1e300 the sums stay finite
        assert fractional_derivative(flat, 0.0) is flat
        large = fractional_derivative(SampledSignal(g, 1e300 * GAUSS(g.x)), 0.5)
        assert np.isfinite(large.values).all()


def test_image_route_stays_finite_near_the_float_range():
    # 1e300 e^{-x^2} decays at the box edge: it takes the image route, whose
    # sum is formed in units of its largest moment, and meets the closed form
    g = make_grid(-8.0, 8.0, 64)
    d = fractional_derivative(SampledSignal(g, 1e300 * GAUSS(g.x)), 0.5)
    assert d.images is not None and d.warning is None
    window = np.abs(g.x) <= 4.0
    want = np.array([1e300 * gaussian_deriv(0.5, float(x)) for x in g.x[window]])
    assert np.max(np.abs(d.values[window] - want)) <= 1e-14 * np.max(np.abs(want))


def test_transforms_pairings_and_product_rule_overflow_typed_without_warnings():
    # every sample is finite, but a transform, a product or a pairing sum of
    # them is not: each raises OrderTooLarge that names the samples
    g = make_grid(-8.0, 8.0, 64)
    flat = SampledSignal(g, np.full(64, 1e308))
    big = SampledSignal(g, 1e200 * GAUSS(g.x))
    sesq, plus = Pairing.SESQUILINEAR, MinusOneBranch.E_PLUS_I_PI
    cases = [
        (lambda: forward(flat), r"the forward transform overflows .* 1e\+308 are too large$"),
        (lambda: inverse(Spectrum(g, flat.values)),
         r"the inverse transform overflows .* 1e\+308 are too large$"),
        (lambda: product_rule(big, big, 0.5),
         r"the product rule overflows .* at order 0\.5: samples up to \|f\| = 1e\+200"),
        (lambda: duality_residual(big, big, 1.0, sesq, plus), "the pairing sum overflows"),
        (lambda: symmetry_residual(big, big, 1.0), "the pairing sum overflows"),
        (lambda: pairing_continuity_gap(big, big, big, 0.5, 3), "the pairing sum overflows"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, message in cases:
            with pytest.raises(OrderTooLarge, match=message):
                call()


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


def test_inner_pairs_two_signals_on_one_grid():
    # dx is the grid's: two grids that differ raise before any sum (a raw-array
    # pairing took arrays of two lengths to numpy's broadcast error)
    g = make_grid(-16.0, 16.0, 4096)
    f, h = sample(GAUSS, g), sample(X2GAUSS, g)
    assert spectral.inner(f, h, Pairing.BILINEAR) == complex(np.sum(f.values * h.values) * g.dx)
    assert (spectral.inner(f, h, Pairing.SESQUILINEAR)
            == complex(np.sum(np.conj(f.values) * h.values) * g.dx))
    other = sample(X2GAUSS, make_grid(-16.0, 16.0, 2048))
    with pytest.raises(GridMismatch, match=r"^Grid\(-16.0, 16.0, n=4096\) vs "
                                           r"Grid\(-16.0, 16.0, n=2048\)$"):
        spectral.inner(f, other, Pairing.SESQUILINEAR)


def test_pairing_continuity_gap_requires_matching_grids():
    f = sample(GAUSS, make_grid(-16.0, 16.0, 1024))
    h = sample(X2GAUSS, make_grid(-16.0, 16.0, 512))
    for psi, ff, hh in ((h, f, f), (f, h, f), (f, f, h)):
        with pytest.raises(GridMismatch, match=r"n=1024\) vs Grid\(-16.0, 16.0, n=512|"
                                               r"n=512\) vs Grid\(-16.0, 16.0, n=1024"):
            pairing_continuity_gap(psi, ff, hh, 0.5, 10)


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
        periodic = got.values + got.images.values
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
