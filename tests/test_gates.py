"""The input gates: every public function with a numeric parameter either
returns finite numbers or raises a typed error on a bad number, and the
engine and the operator layer share one decay test."""
import cmath
import dataclasses
import math
import numbers
import pickle
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import fracspectral as fs
from fracspectral.oracles import gaussian_hat
from fracspectral.specfun import zeta_negative

GAUSS = lambda x: np.exp(-x * x)
X2GAUSS = lambda x: x * x * np.exp(-x * x)

BAD_NUMBERS = (10 ** 400, -10 ** 400, math.nan, math.inf, -math.inf)
# finite, but large enough that a power, a product or a frequency built from
# them overflows double precision; pi a overflows past 5.7e307, pi a/2 past 1.1e308
LARGE_NUMBERS = (300.0, 1e300, -1e300, 6e307, 1.5e308)
# zero, and numbers finite but so small that 1 + a rounds to 1 or a quotient by
# them overflows; 5e-324 is the smallest subnormal
TINY_NUMBERS = (0.0, 1e-300, 5e-324)
# not numbers: text, which float() would parse, and object arrays holding text
# or a complex number
NON_NUMBERS = ("0.5", b"0.5", np.array("0.5", dtype=object), np.array(1 + 1j, dtype=object))


def _numbers(result):
    """Every number a public function returned, however it is wrapped."""
    if isinstance(result, (tuple, list)):
        for item in result:
            yield from _numbers(item)
    elif isinstance(result, fs.SampledSignal):
        yield from result.values
    elif isinstance(result, fs.Spectrum):
        yield from result.coeffs
    elif isinstance(result, fs.Grid):
        yield from (result.dx, *result.x)
    elif isinstance(result, np.ndarray):
        yield from result.ravel()
    elif isinstance(result, slice):
        yield from (result.start, result.stop)
    elif dataclasses.is_dataclass(result):
        for field in dataclasses.fields(result):
            yield from _numbers(getattr(result, field.name))
    elif isinstance(result, numbers.Number):
        yield result


def _scan_table():
    """(name, function, one valid call's arguments, the numeric slots)."""
    g = fs.make_grid(-8.0, 8.0, 256)
    f = fs.sample(GAUSS, g)
    h = fs.sample(X2GAUSS, g)
    state = fs.gaussian_state(g)
    p = np.array([-2.0, 0.0, 1.5])
    eigenstate = lambda alpha, e: fs.eigenstate_signal(fs.EigenstateSpec(alpha, e), g)
    # one sample (or coefficient) set to the number under test
    signal = lambda v: fs.SampledSignal(g, [*f.values[:7], v, *f.values[8:]])
    spectrum = lambda v: fs.Spectrum(g, [*f.values[:7], v, *f.values[8:]])
    sesq, plus = fs.Pairing.SESQUILINEAR, fs.MinusOneBranch.E_PLUS_I_PI
    # every bin below 1 (dp = pi/1000), so |p|^a underflows to 0 at a large order
    # and does not raise: the phase alone decides the result
    wide = fs.sample(lambda x: np.exp(-(x / 100) ** 2), fs.make_grid(-1000.0, 1000.0, 8))
    return [
        ("make_grid", fs.make_grid, (-8.0, 8.0, 256), (0, 1, 2)),
        ("SampledSignal", signal, (0.5,), (0,)),
        ("Spectrum", spectrum, (0.5,), (0,)),
        ("central_window", fs.central_window, (256,), (0,)),
        ("gamma", fs.gamma, (2.5,), (0,)),
        ("hurwitz_zeta", fs.hurwitz_zeta, (2.0, 1.0), (0, 1)),
        ("kummer_1f1", fs.kummer_1f1, (0.5, 1.5, 2.0), (0, 1, 2)),
        ("kummer_1f1_series", fs.kummer_1f1_series, (0.5, 1.5, 2.0), (0, 1, 2)),
        ("kummer_1f1 over an array", lambda a, b, z: fs.kummer_1f1(a, b, np.array([-2.0, z])),
         (0.5, 1.5, 2.0), (0, 1, 2)),
        ("kummer_1f1 over rows of a and b",
         lambda a, b, z: fs.kummer_1f1(np.array([0.75, a])[:, None], np.array([0.5, b])[:, None],
                                       np.array([-2.0, z])),
         (0.5, 1.5, 2.0), (0, 1, 2)),
        ("zeta_negative", zeta_negative, (2.5,), (0,)),
        ("zeta_negative over an array", lambda t: zeta_negative(np.array([1.5, t])),
         (2.5,), (0,)),
        ("forward", fs.forward, (f,), ()),
        ("inverse", fs.inverse, (fs.forward(f),), ()),
        ("fractional_derivative", fs.fractional_derivative, (f, 0.5), (1,)),
        ("fractional_momentum", fs.fractional_momentum, (f, 0.5), (1,)),
        ("ip_power", fs.ip_power, (0.5, p), (0, 1)),
        ("p_power", fs.p_power, (0.5, p), (0, 1)),
        ("ip_power on bins below 1", lambda a: fs.ip_power(a, np.array([0.5, -0.5])),
         (0.5,), (0,)),
        ("p_power on bins below 1", lambda a: fs.p_power(a, np.array([0.5, -0.5])),
         (0.5,), (0,)),
        ("D^a and P_a on bins below 1",
         lambda a: [fs.fractional_derivative(wide, a), fs.fractional_momentum(wide, a)],
         (0.5,), (0,)),
        ("duality_residual on bins below 1",
         lambda a: [fs.duality_residual(wide, wide, a, fs.Pairing.BILINEAR, branch)
                    for branch in fs.MinusOneBranch], (0.5,), (0,)),
        ("order_continuity_gap", fs.order_continuity_gap, (f, 1, 10), (1, 2)),
        # an image record of the given order and leading moment
        ("ImageCorrection", lambda a, m: fs.ImageCorrection(g, a, [m, 0.5]), (0.5, 1.0), (0, 1)),
        ("pairing_continuity_gap", fs.pairing_continuity_gap, (f, f, h, 0.5, 10), (3, 4)),
        ("product_rule", fs.product_rule, (f, h, 0.5), (2,)),
        # the pairing and the branch take their enums' members alone
        ("duality_residual", fs.duality_residual, (f, h, 0.5, sesq, plus), (2, 3, 4)),
        ("inner", fs.spectral.inner, (f, h, sesq), (2,)),
        ("gaussian_deriv", fs.gaussian_deriv, (0.5, 1.0), (0, 1)),
        ("x2gaussian_deriv", fs.x2gaussian_deriv, (0.5, 1.0), (0, 1)),
        ("gaussian_deriv over an array",
         lambda a, x: fs.gaussian_deriv(a, np.array([-2.0, x])), (0.5, 1.0), (0, 1)),
        ("x2gaussian_deriv over an array",
         lambda a, x: fs.x2gaussian_deriv(a, np.array([-2.0, x])), (0.5, 1.0), (0, 1)),
        ("exp_rule", fs.exp_rule, (2.0, 0.5, 1.0), (0, 1, 2)),
        ("monomial_deriv", fs.monomial_deriv, (3, 1.0, 2.0), (0, 1, 2)),
        ("quadrature_reference", fs.quadrature_reference, (gaussian_hat, 0.5, 0.3, 40.0),
         (1, 2, 3)),
        ("EigenstateSpec", fs.EigenstateSpec, (1.0, 2.0), (0, 1)),
        # order 0.5: q = E^2 lands on bin 4
        ("eigenstate_signal", eigenstate, (0.5, math.sqrt(4 * g.dp)), (0, 1)),
        ("commutator_dx", fs.commutator_dx, (f, 1.5), (1,)),
        ("commutator_ladder", fs.commutator_ladder, (f, 1.5), (1,)),
        ("expectation", fs.expectation, (f, state), ()),
        ("symmetry_residual", fs.symmetry_residual, (f, h, 0.5), (2,)),
        ("uncertainty_bound", fs.uncertainty_bound, (1.5,), (0,)),
        ("uncertainty_check", fs.uncertainty_check, (1.5, state), (0,)),
        ("UncertaintyReport", fs.UncertaintyReport, (1.5, 1.0, 1.0, 1.0, 0.5, True),
         (0, 1, 2, 3, 4, 5)),
    ]


def _outcome(function, args):
    """None if the call returns finite numbers or raises a fracspectral error, else why not."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = function(*args)
        except Exception as exc:
            if type(exc).__module__.startswith("fracspectral."):
                return None
            return f"{type(exc).__name__}: {exc}"[:120]
    values = list(_numbers(result))
    if not all(isinstance(v, numbers.Integral) or cmath.isfinite(v) for v in values):
        return f"returned {result!r}"[:120]
    return None


def _scan(values, finite):
    """The cases of the scan table, with each value in each slot, that break the rule.

    A finite number may return; a non-finite float, and anything that is not a
    number, must raise.
    """
    cases = []
    for name, function, valid, slots in _scan_table():
        assert _outcome(function, valid) is None, name
        for slot in slots:
            for bad in values:
                args = list(valid)
                args[slot] = bad
                why = _outcome(function, args)
                if why is None and (not finite and isinstance(bad, float)
                                    or not isinstance(bad, numbers.Number)):
                    try:
                        function(*args)
                    except Exception:
                        continue
                    why = "a non-finite argument or a non-number returned"
                if why is not None:
                    shown = (f"{'-' if bad < 0 else ''}10**400" if isinstance(bad, int)
                             else repr(bad))
                    cases.append(f"{name} slot {slot} = {shown}: {why}")
    return cases


def test_public_functions_reject_bad_numbers():
    cases = _scan(BAD_NUMBERS, finite=False)
    assert not cases, f"{len(cases)} cases:\n" + "\n".join(cases)


def test_public_functions_survive_large_finite_numbers():
    cases = _scan(LARGE_NUMBERS, finite=True)
    assert not cases, f"{len(cases)} cases:\n" + "\n".join(cases)


def test_public_functions_survive_tiny_finite_numbers():
    cases = _scan(TINY_NUMBERS, finite=True)
    assert not cases, f"{len(cases)} cases:\n" + "\n".join(cases)


def test_public_functions_reject_non_numbers():
    cases = _scan(NON_NUMBERS, finite=True)
    assert not cases, f"{len(cases)} cases:\n" + "\n".join(cases)


# the signal (or spectrum) slots of each function of the scan table that takes one
SIGNAL_SLOTS = {
    "fractional_derivative": (0,), "fractional_momentum": (0,), "forward": (0,),
    "inverse": (0,), "order_continuity_gap": (0,), "pairing_continuity_gap": (0, 1, 2),
    "product_rule": (0, 1), "duality_residual": (0, 1), "commutator_dx": (0,),
    "commutator_ladder": (0,), "expectation": (0, 1), "symmetry_residual": (0, 1),
    "uncertainty_check": (1,), "inner": (0, 1),
}


@pytest.mark.parametrize("huge", ["1e200 exp(-x^2)", "1e308"])
def test_public_functions_survive_huge_samples(huge):
    # samples near the float range: a sum, a product or a transform of them
    # overflows, which must raise a typed error, with no warning
    table = {name: (function, valid) for name, function, valid, _ in _scan_table()}
    assert set(SIGNAL_SLOTS) <= set(table)
    g = fs.make_grid(-8.0, 8.0, 256)
    values = 1e200 * GAUSS(g.x) if huge == "1e200 exp(-x^2)" else np.full(g.n, 1e308)
    cases = []
    for name, slots in SIGNAL_SLOTS.items():
        function, valid = table[name]
        args = list(valid)
        for slot in slots:
            args[slot] = type(valid[slot])(g, values)
        why = _outcome(function, args)
        if why is not None:
            cases.append(f"{name}: {why}")
    assert not cases, "\n".join(cases)


# the order slot of each function of the scan table that takes an order
ORDER_SLOTS = {
    "fractional_derivative": 1, "fractional_momentum": 1, "ip_power": 0, "p_power": 0,
    "order_continuity_gap": 1, "ImageCorrection": 0, "pairing_continuity_gap": 3,
    "product_rule": 2, "duality_residual": 2, "gaussian_deriv": 0, "x2gaussian_deriv": 0,
    "gaussian_deriv over an array": 0, "x2gaussian_deriv over an array": 0,
    "exp_rule": 1, "monomial_deriv": 1, "quadrature_reference": 1, "EigenstateSpec": 0,
    "eigenstate_signal": 0, "commutator_dx": 1, "commutator_ladder": 1,
    "symmetry_residual": 2, "uncertainty_bound": 0, "uncertainty_check": 0,
    "UncertaintyReport": 0,
}


def _bits(function, args):
    """The pickled result of the call, or the type and message of what it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return pickle.dumps(function(*args))
        except Exception as exc:
            return type(exc).__name__, str(exc)


@pytest.mark.parametrize("order", [Decimal("0.5"), Fraction(1, 2)], ids=repr)
def test_every_order_is_the_float_its_gate_returns(order):
    table = {name: (function, valid) for name, function, valid, _ in _scan_table()}
    assert set(ORDER_SLOTS) <= set(table)
    differ = []
    for name, slot in ORDER_SLOTS.items():
        function, valid = table[name]
        calls = [[*valid[:slot], a, *valid[slot + 1:]] for a in (0.5, order)]
        want, got = (_bits(function, args) for args in calls)
        if got != want:
            differ.append(f"{name}: {got if isinstance(got, tuple) else 'other bits'}"[:120])
    assert not differ, "\n".join(differ)


@pytest.mark.parametrize("bad", ["sesquilinear", "e_plus_i_pi", "SESQUILINEAR", None],
                         ids=repr)
def test_pairing_and_branch_are_members_of_their_enums(bad):
    # a member's value or name, or None, is not a member: each was taken as the
    # enum's second member (a residual of 0.0984-0.0984j, the bilinear one, for
    # "sesquilinear"), with no error
    g = fs.make_grid(-8.0, 8.0, 256)
    f = fs.sample(lambda x: np.exp(-x * x + 0.5j * x), g)
    h = fs.sample(X2GAUSS, g)
    sesq, plus = fs.Pairing.SESQUILINEAR, fs.MinusOneBranch.E_PLUS_I_PI
    pairing = "pairing must be Pairing.SESQUILINEAR or Pairing.BILINEAR"
    branch = ("minus_one_branch must be MinusOneBranch.E_PLUS_I_PI or "
              "MinusOneBranch.E_MINUS_I_PI")
    for call, message in ((lambda: fs.duality_residual(f, h, 0.5, bad, plus), pairing),
                          (lambda: fs.duality_residual(f, h, 0.5, sesq, bad), branch),
                          (lambda: fs.spectral.inner(f, h, bad), pairing)):
        with pytest.raises(fs.ArgumentOutOfRange) as err:
            call()
        assert str(err.value) == f"{message}, got {bad!r}"


def test_complex_input_is_rejected_without_warnings():
    # a float cast would keep the real part alone, with a ComplexWarning
    calls = (lambda: fs.hurwitz_zeta(np.array([2 + 5j]), 1.0),
             lambda: fs.hurwitz_zeta(2.0, np.array([1.0, 1 + 0j])),
             lambda: fs.kummer_1f1(0.5, 1.5, np.array([-1.0, 2j])),
             lambda: fs.gaussian_deriv(0.5, np.array([1 + 1j, 0.0])),
             lambda: fs.gaussian_deriv(0.5, 1 + 1j),            # the scalar gate
             lambda: fs.ip_power(0.5, np.array([1.0 + 0.5j])),
             # an object array: each element through the scalar gate
             lambda: fs.gaussian_deriv(0.5, np.array([1 + 1j, None], dtype=object)),
             lambda: fs.hurwitz_zeta(np.array([2.0, np.complex128(3 + 0j)], dtype=object), 1.0),
             lambda: fs.gamma(np.complex128(2.5)))
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fs.ArgumentOutOfRange, match="must be real"):
                call()


def test_array_gate_names_the_first_bad_element():
    with pytest.raises(fs.ArgumentOutOfRange, match=r"got -1\.0$"):
        fs.hurwitz_zeta(2.0, np.array([1.0, 0.5, -1.0, np.nan]))
    with pytest.raises(fs.ArgumentOutOfRange, match=r"got -inf$") as info:
        fs.kummer_1f1(0.5, 1.5, -np.full(4096, np.inf))
    assert "\n" not in str(info.value) and len(str(info.value)) < 80


# bounds and sizes that are each finite, but whose width, spacing dx or
# frequency spacing dp = 2 pi/(n dx) is not finite and > 0, whose largest
# frequency sum n dp = 2 pi/dx is not finite (its Nyquist bin -pi/dx too at
# 1.2e-307), or whose samples round to the same double
DEGENERATE_GRIDS = ((-1.7e308, 1.7e308, 8), (0.0, 1e-310, 8), (0.0, 5e-324, 8),
                    (1.0, 1.0 + 2.2e-16, 8), (0.0, 1.2e-307, 8), (0.0, 2.4e-307, 8))


@pytest.mark.parametrize("bounds", DEGENERATE_GRIDS)
def test_degenerate_grids_are_typed(bounds):
    assert _outcome(fs.make_grid, bounds) is None
    with pytest.raises(fs.DegenerateInterval):
        fs.make_grid(*bounds)


def test_the_grid_keeps_its_frequency_sums_finite():
    # dx >= 2 pi/DBL_MAX, about 3.5e-308: on (0, 2.4e-307) with n = 8, Grid.p was
    # finite but product_rule's sums reached n dp = inf, and it named a p that no
    # caller passed; on (0, 1.2e-307) Grid.p itself held -inf
    for width in (1.2e-307, 2.4e-307):
        with pytest.raises(fs.DegenerateInterval,
                           match=r"with n = 8 has spacing dx = \S+ and dp = \S+: need dp > 0 "
                                 r"and n dp = 2 pi/dx finite \(dx >= 3.5e-308\)$"):
            fs.make_grid(0.0, width, 8)
    # dx = 4.5e-308 is accepted, and every frequency and sum of two is finite
    g = fs.make_grid(0.0, 3.6e-307, 8)
    assert np.isfinite(g.p).all() and g.n * g.dp < math.inf
    f = fs.sample(GAUSS, g)
    for function, args in ((fs.forward, (f,)), (fs.fractional_derivative, (f, 0.5)),
                           (fs.product_rule, (f, f, 0.5))):
        assert _outcome(function, args) is None, function.__name__


def test_counts_must_be_whole():
    with pytest.raises(fs.ArgumentOutOfRange, match="whole number"):
        fs.monomial_deriv(2.5, 1.0, 3.0)
    assert fs.monomial_deriv(2.0, 1.0, 3.0) == 6.0
    assert fs.monomial_deriv(np.int64(2), 1.0, 3.0) == 6.0
    with pytest.raises(fs.NonPowerOfTwo, match="whole number"):
        fs.make_grid(-1.0, 1.0, 8.5)
    assert fs.make_grid(-1.0, 1.0, 8.0) == fs.make_grid(-1.0, 1.0, 8)
    with pytest.raises(fs.DegenerateInterval):
        fs.make_grid(-1.0, 10 ** 400, 8)


def test_monomial_power_keeps_its_parity_past_the_float_range():
    assert fs.monomial_deriv(10 ** 400, 0.0, 1.0) == 1.0
    assert fs.monomial_deriv(10 ** 400, 0.0, 0.5) == 0.0
    assert fs.monomial_deriv(10 ** 400 + 1, 0.0, -1.0) == -1.0
    assert fs.monomial_deriv(2 ** 53 + 1, 0.0, -1.0) == -1.0
    assert fs.monomial_deriv(2 ** 53, 0.0, -1.0) == 1.0
    assert math.copysign(1.0, fs.monomial_deriv(3, 0.0, -0.0)) == -1.0
    assert fs.monomial_deriv(5, 2.0, -1.5) == 20.0 * (-1.5) ** 3
    for n in (10 ** 400, 2000):
        with pytest.raises(fs.ArgumentOutOfRange, match="overflows") as info:
            fs.monomial_deriv(n, 0.0, -2.0)
        assert len(str(info.value)) < 100


def test_one_decay_test_for_engine_and_operator_layer():
    # boundary decay exactly at the threshold: the engine treats the signal
    # as periodic, so the operator layer must refuse to multiply it by x
    g = fs.make_grid(-8.0, 8.0, 256)
    values = GAUSS(g.x)
    values[0] = 1e-10
    sig = fs.SampledSignal(g, values)
    assert sig.boundary_decay == 1e-10
    assert fs.fractional_derivative(sig, 1.5).warning is not None
    with pytest.raises(fs.InsufficientDecay):
        fs.commutator_dx(sig, 1.5)
    # one ulp below the threshold: images and no warning; x f reads above it there
    values[0] = np.nextafter(1e-10, 0.0)
    sig = fs.SampledSignal(g, values)
    d = fs.fractional_derivative(sig, 1.5)
    assert d.images is not None and d.warning is None
    with pytest.raises(fs.InsufficientDecay, match=r"^boundary decay 1\.867e-09 of max\|x f\| "
                                                   r"is not below 1\.0e-10"):
        fs.commutator_dx(sig, 1.5)
    # a Gaussian at the box edge stays periodic
    d = fs.fractional_derivative(fs.sample(lambda x: np.exp(-(x - 7.9) ** 2), g), 1.5)
    assert d.warning == ("boundary decay 1.000e+00 of max|f| above threshold 1.0e-10; "
                         "wrap-around may contaminate order 1.5")
    # the test is edge < 1e-10 max|f|, a product: at max|f| = 1e-300 an edge of 1e-310
    # is not below 1e-10 max|f| (which rounds to 1e-310), though edge / max|f| is
    values = 1e-300 * GAUSS(g.x)
    values[0] = 1e-310
    sig = fs.SampledSignal(g, values)
    assert fs.fractional_derivative(sig, 1.5).warning.startswith(
        "boundary decay 1.000e-10 of max|f| above threshold 1.0e-10")
    with pytest.raises(fs.InsufficientDecay):
        fs.commutator_dx(sig, 1.5)


def test_the_decay_test_does_not_depend_on_the_scale():
    # D^a(c f) = c D^a f: the decay test is taken against max|f|, so c f takes
    # the branch of f (the image route, for these signals) at every scale
    for box, n in (((-8.0, 8.0), 256), ((-16.0, 16.0), 4096)):
        g = fs.make_grid(*box, n)
        window = np.abs(g.x) <= 4.0
        for f in (GAUSS, lambda x: x * x * GAUSS(x)):
            for a in (0.02, 0.5, 2.5):
                for op in (fs.fractional_derivative, fs.fractional_momentum):
                    ref = op(fs.SampledSignal(g, f(g.x)), a)
                    for c in (1e-300, 1e-150, 1e150, 1e300):
                        got = op(fs.SampledSignal(g, c * f(g.x)), a)
                        assert (got.images is None) == (ref.images is None), (box, a, c)
                        want = c * ref.values[window]
                        err = np.max(np.abs(got.values[window] - want)) / np.max(np.abs(want))
                        assert err < 1e-13, (box, a, c, err)


def test_a_small_plane_wave_stays_periodic():
    # 1e-12 e^{ix} does not decay at the box edge, whatever its scale: the
    # engine warns and keeps it periodic, so it meets its P_{1/3} eigenvalue
    g = fs.make_grid(-4 * math.pi, 4 * math.pi, 1024)
    spec = fs.EigenstateSpec(1.0 / 3.0, 1.0)
    sig = fs.SampledSignal(g, 1e-12 * fs.eigenstate_signal(spec, g).values)
    d = fs.fractional_momentum(sig, spec.alpha)
    assert d.images is None
    assert d.warning.startswith("boundary decay 1.000e+00 of max|f| above threshold 1.0e-10")
    want = spec.eigenvalue * sig.values
    assert np.max(np.abs(d.values - want)) <= 1e-13 * np.max(np.abs(want))


def test_commutator_refuses_a_small_cosine():
    # the operator layer's decay test is the engine's, against max|f|; its
    # message states the relative figure it tests
    g = fs.make_grid(-4 * math.pi, 4 * math.pi, 1024)
    with pytest.raises(fs.InsufficientDecay, match=r"boundary decay 1\.000e\+00 of max\|f\| "
                                                    r"is not below 1\.0e-10"):
        fs.commutator_dx(fs.SampledSignal(g, 1e-12 * np.cos(g.x)), 1.5)


def test_product_rule_takes_the_branch_of_its_factors():
    g = fs.make_grid(-8.0, 8.0, 256)
    f, h = fs.sample(GAUSS, g), fs.sample(lambda x: x * x * GAUSS(x), g)
    ref = fs.product_rule(f, h, 0.5)
    got = fs.product_rule(fs.SampledSignal(g, 1e150 * f.values), h, 0.5)
    assert ref.images is not None and got.images is not None and got.warning is None
    np.testing.assert_allclose(got.values, 1e150 * ref.values, rtol=0,
                               atol=1e-13 * 1e150 * np.max(np.abs(ref.values)))
