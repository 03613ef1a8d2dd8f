"""The input gates: every public function with a numeric parameter either
returns finite numbers or raises a typed error on a bad number, and the
engine and the operator layer share one decay test."""
import cmath
import dataclasses
import math
import numbers
import warnings

import numpy as np
import pytest

import fracspectral as fs
from fracspectral.specfun import zeta_negative

GAUSS = lambda x: np.exp(-x * x)
X2GAUSS = lambda x: x * x * np.exp(-x * x)
F_HAT = lambda p: np.exp(-p * p / 4) / math.sqrt(2)

BAD_NUMBERS = (10 ** 400, -10 ** 400, math.nan, math.inf, -math.inf)
# finite, but large enough that a power, a product or a frequency built from
# them overflows double precision
LARGE_NUMBERS = (300.0, 1e300, -1e300)


def _numbers(result):
    """Every number a public function returned, however it is wrapped."""
    if isinstance(result, (tuple, list)):
        for item in result:
            yield from _numbers(item)
    elif isinstance(result, fs.SampledSignal):
        yield from result.values
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
    sesq, plus = fs.Pairing.SESQUILINEAR, fs.MinusOneBranch.E_PLUS_I_PI
    return [
        ("make_grid", fs.make_grid, (-8.0, 8.0, 256), (0, 1, 2)),
        ("central_window", fs.central_window, (256,), (0,)),
        ("gamma", fs.gamma, (2.5,), (0,)),
        ("hurwitz_zeta", fs.hurwitz_zeta, (2.0, 1.0), (0, 1)),
        ("kummer_1f1", fs.kummer_1f1, (0.5, 1.5, 2.0), (0, 1, 2)),
        ("kummer_1f1_series", fs.kummer_1f1_series, (0.5, 1.5, 2.0), (0, 1, 2)),
        ("zeta_negative", zeta_negative, (2.5,), (0,)),
        ("fractional_derivative", fs.fractional_derivative, (f, 0.5), (1,)),
        ("fractional_momentum", fs.fractional_momentum, (f, 0.5), (1,)),
        ("ip_power", fs.ip_power, (0.5, p), (0, 1)),
        ("p_power", fs.p_power, (0.5, p), (0, 1)),
        ("order_continuity_gap", fs.order_continuity_gap, (f, 1, 10), (1, 2)),
        ("pairing_continuity_gap", fs.pairing_continuity_gap, (f, f, h, 0.5, 10), (3, 4)),
        ("product_rule", fs.product_rule, (f, h, 0.5), (2,)),
        ("duality_residual", fs.duality_residual, (f, h, 0.5, sesq, plus), (2,)),
        ("gaussian_deriv", fs.gaussian_deriv, (0.5, 1.0), (0, 1)),
        ("x2gaussian_deriv", fs.x2gaussian_deriv, (0.5, 1.0), (0, 1)),
        ("exp_rule", fs.exp_rule, (2.0, 0.5, 1.0), (0, 1, 2)),
        ("monomial_deriv", fs.monomial_deriv, (3, 1.0, 2.0), (0, 1, 2)),
        ("quadrature_reference", fs.quadrature_reference, (F_HAT, 0.5, 0.3, 40.0), (1, 2, 3)),
        ("EigenstateSpec", fs.EigenstateSpec, (1.0, 2.0), (0, 1)),
        # order 0.5: q = E^2 lands on bin 4
        ("eigenstate_signal", eigenstate, (0.5, math.sqrt(4 * g.dp)), (0, 1)),
        ("commutator_dx", fs.commutator_dx, (f, 1.5), (1,)),
        ("commutator_ladder", fs.commutator_ladder, (f, 1.5), (1,)),
        ("symmetry_residual", fs.symmetry_residual, (f, h, 0.5), (2,)),
        ("uncertainty_bound", fs.uncertainty_bound, (1.5,), (0,)),
        ("uncertainty_check", fs.uncertainty_check, (1.5, state), (0,)),
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


def _scan(numbers, finite):
    """The cases of the scan table, with each number in each slot, that break the rule.

    A finite number may return; a non-finite float must raise.
    """
    cases = []
    for name, function, valid, slots in _scan_table():
        assert _outcome(function, valid) is None, name
        for slot in slots:
            for bad in numbers:
                args = list(valid)
                args[slot] = bad
                why = _outcome(function, args)
                if why is None and not finite and isinstance(bad, float):
                    try:
                        function(*args)
                    except Exception:
                        continue
                    why = "a non-finite argument returned"
                if why is not None:
                    shown = bad if isinstance(bad, float) else f"{'-' if bad < 0 else ''}10**400"
                    cases.append(f"{name} slot {slot} = {shown}: {why}")
    return cases


def test_public_functions_reject_bad_numbers():
    cases = _scan(BAD_NUMBERS, finite=False)
    assert not cases, f"{len(cases)} cases:\n" + "\n".join(cases)


def test_public_functions_survive_large_finite_numbers():
    cases = _scan(LARGE_NUMBERS, finite=True)
    assert not cases, f"{len(cases)} cases:\n" + "\n".join(cases)


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
