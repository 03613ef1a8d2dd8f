"""Special functions: Gamma, the confluent hypergeometric 1F1,
the Hurwitz zeta function and the Riemann zeta function at negative
arguments.

Gamma is the standard library's gamma function behind typed errors; 1F1 and the
zeta functions are implemented here (plain power series, Euler-Maclaurin
summation), so the closed forms and the image correction they feed are
auditable and need nothing beyond numpy and the standard library.  A value
that overflows double precision raises OrderTooLarge (see require_finite).

Over arrays, a function raises what its scalar call on the first failing
element raises, first in C order over the broadcast shape.  kummer_1f1 and
hurwitz_zeta gate each whole argument before anything else, as their scalar
calls do: a value that is not real and finite (or, for hurwitz_zeta, not
s > 1 and q > 0) raises with the scalar gate's words, naming the argument's
first such value.
"""
import cmath
import functools
import math
import operator

import numpy as np


class PoleAtNonPositiveInteger(ValueError):
    pass


class BParameterPole(ValueError):
    pass


class ArgumentOutOfRange(ValueError):
    pass


class OrderTooLarge(ValueError):
    """A value at this order (or argument) overflows double precision."""


class SeriesNotConverged(ValueError):
    """A 1F1 power series that did not meet its stopping rule within its cap of terms."""


# 1F1 power-series stopping rule: next term at most this relative size, with
# a cap on the number of terms.  The closed forms' Kummer-transformed series
# need up to 579 terms at |z| = MAX_ABS_Z (orders 0 to 270), so the cap
# leaves room; a series past it raises SeriesNotConverged.
_SERIES_RTOL = 1e-17
_SERIES_MAX_TERMS = 1000

#: Largest |z| accepted by kummer_1f1 (covers x up to 20 in the closed forms).
MAX_ABS_Z = 400.0

# Hurwitz zeta by Euler-Maclaurin (Johansson, arXiv:1309.2877): the first
# _ZETA_DIRECT terms are summed directly and the tail from q + _ZETA_DIRECT
# on is replaced by its integral, half its first term and the Bernoulli
# corrections B_2 .. B_16.  Against mpmath this reaches relative error
# below 6e-16 for 1 < s <= 1000 and 0.5 <= q <= 1.5 (2e-16 past s = 40).
_ZETA_DIRECT = 8
_BERNOULLI_EVEN = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730),
                   (7, 6), (-3617, 510))
# B_2k / (2k)!, k = 1 .. 8, each correctly rounded (integer true division)
_ZETA_TAIL = np.array([num / (den * math.factorial(2 * k))
                       for k, (num, den) in enumerate(_BERNOULLI_EVEN, start=1)])
# the offsets of the direct terms, the steps of the rising factorials
# (s)_1 .. (s)_15 and the even powers 0 .. 14 of 1/w, made once
_DIRECT_OFFSETS = np.arange(float(_ZETA_DIRECT))
_RISING_STEPS = np.arange(2.0 * len(_ZETA_TAIL) - 1)
_EVEN_POWERS = np.arange(0.0, 2 * len(_ZETA_TAIL), 2.0)
# The tail is scaled by w^(-t), t = s - 1, with w = q + _ZETA_DIRECT > 8, and
# 8^(-t) underflows to 0 from t of about 358.4 on.  Its Bernoulli corrections
# are formed with s capped here, so their rising factorials stay finite where
# they are multiplied by that 0; below the cap s is used as it is.
_ZETA_TAIL_MAX_S = 400.0
# Below this t, zeta(-t) is its Taylor polynomial -1/2 + t ln(2 pi)/2: the next
# term, zeta''(0) t^2 / 2 with zeta''(0) = -2.006, is below 1e-17 of the value.
_ZETA_TAYLOR_T = 1e-9
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)     # -zeta'(0), DLMF 25.6.11


#: Message of require_finite for a function of an order: name, order.
ORDER_OVERFLOW = "{} at order {:g} overflows double precision: the order is too large"


def require_finite(value, message, *args):
    """The value, or OrderTooLarge(message.format(*args)) where it is inf or nan.

    Python floats and complexes overflow to inf without a warning; the
    closed forms, 1F1 and the uncertainty bound return through here.  An
    array must be finite in every element.  The message is formatted only
    when it is raised.
    """
    if not (np.isfinite(value).all() if isinstance(value, np.ndarray) else cmath.isfinite(value)):
        raise OrderTooLarge(message.format(*args))
    return value


def _real_float(value):
    """float(value) for a real number; TypeError for text, a complex number or an
    array of neither ints nor floats, where float() would parse the text or keep
    the real part alone.  The OverflowError of an int past the float range and
    the TypeError or ValueError of a failed conversion pass through."""
    if isinstance(value, float):        # the common case, checked first
        return float(value)
    if isinstance(value, (str, bytes, complex)) or (
            isinstance(value, np.ndarray) and value.dtype.kind not in "biuf"):
        raise TypeError
    return float(value)


def require_real(name, value, error=ArgumentOutOfRange, least=-math.inf):
    """The one finite-real gate: value as a float >= least, else error (pure Python)."""
    try:
        value = _real_float(value)
    except OverflowError:
        raise error(f"{name} is past the float range") from None
    except (TypeError, ValueError):
        raise error(f"{name} must be real, got {value!r}") from None
    if not math.isfinite(value):
        raise error(f"{name} must be finite, got {value}")
    if value < least:
        raise error(f"{name} must be >= {least:g}, got {value}")
    return value


def require_count(name, value, error=ArgumentOutOfRange):
    """The value as an int of any size, or error: a float must be finite and whole."""
    try:
        return operator.index(value)
    except TypeError:
        value = require_real(name, value, error)
    if not value.is_integer():
        raise error(f"{name} must be a whole number, got {value}")
    return int(value)


def require_reals(name, values, above=-math.inf):
    """The values as a float array: ArgumentOutOfRange, naming the first bad one,
    unless all are real, finite and > above."""
    values = np.asarray(values)
    kind = values.dtype.kind
    if kind == "O":                     # each element through the scalar gate
        values = np.fromiter((require_real(name, v) for v in values.flat), float,
                             values.size).reshape(values.shape)
    elif kind not in "biuf":            # a float cast would parse text or drop an imaginary part
        raise ArgumentOutOfRange(f"{name} must be real, got an array of {values.dtype}")
    values = values.astype(float, copy=False)
    good = (values > above) & (values < math.inf)
    if not good.all():
        bound = f" and > {above:g}" if above > -math.inf else ""
        raise ArgumentOutOfRange(f"{name} must be finite{bound}, got {values[~good][0]}")
    return values


def gamma(x):
    """Gamma function for real x: the standard library's, with typed errors.

    Raises PoleAtNonPositiveInteger at 0, -1, -2, ..., ArgumentOutOfRange
    for a non-finite x and OrderTooLarge where Gamma overflows double
    precision (x above about 171.62, or x within about 1e-308 of 0).
    """
    x = require_real("gamma argument", x)
    if x <= 0.0 and x == math.floor(x):
        raise PoleAtNonPositiveInteger(f"gamma pole at x={x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise OrderTooLarge(f"gamma({x:g}) overflows double precision: "
                            f"the order or argument is too large") from None


def _order_gamma_half(alpha):
    """(c, g) with c * g = alpha * Gamma(alpha/2) at an order alpha > 0: (alpha, Gamma(alpha/2)),
    or (2, Gamma(1 + alpha/2)) where alpha is so small that Gamma(alpha/2) is not finite."""
    try:
        return alpha, gamma(alpha / 2)
    except (PoleAtNonPositiveInteger, OrderTooLarge):
        if alpha > 1.0:
            raise
        return 2.0, gamma(1.0 + alpha / 2)


def _series(a, b, z):
    """Plain 1F1 power series; an overflow returns inf for require_finite.  Its float step
    counter j takes the IEEE operations of an int one (exact below 2^53) without their int
    to float conversions; the cap is _SERIES_MAX_TERMS as it reads at the call."""
    term = 1.0
    total = 1.0
    j = 0.0
    for _ in range(_SERIES_MAX_TERMS):
        term *= (a + j) * z / ((b + j) * (j + 1.0))
        total += term
        if abs(term) <= _SERIES_RTOL * abs(total):
            return total
        j += 1.0
    raise SeriesNotConverged(f"1F1({a:g}; {b:g}; {z:g}) power series not converged "
                             f"after {_SERIES_MAX_TERMS} terms")


def _series_array(a, b, z):
    """_series at each element of a, b and z broadcast together (b may stay a float).

    All elements run the scalar recurrence in lock-step, each seeing the
    operations of a scalar call on it: (b + j) * (j + 1) is the same IEEE
    operation on a float64 element as on a float.  At its stopping step an
    element's partial sum is kept in place and it leaves the live mask.
    Returns (total, live), live marking the elements that did not stop
    within _SERIES_MAX_TERMS terms.  Call it under np.errstate: an overflow
    gives inf, as in _series.
    """
    shape = np.broadcast_shapes(np.shape(a), np.shape(b), z.shape)
    term, partial, total = np.ones(shape), np.ones(shape), np.ones(shape)
    live = np.ones(shape, dtype=bool)
    for j in range(_SERIES_MAX_TERMS):
        term *= (a + j) * z / ((b + j) * (j + 1))
        partial += term
        done = live & (np.abs(term) <= _SERIES_RTOL * np.abs(partial))
        np.copyto(total, partial, where=done)
        live ^= done
        if not live.any():
            break
    return total, live


def _kummer_args(a, b, z):
    """(a, b, z) as floats; a non-finite argument or a pole at b is rejected."""
    a = require_real("1F1 parameter a", a)
    b = require_real("1F1 parameter b", b)
    z = require_real("1F1 argument z", z)
    if b <= 0.0 and b == math.floor(b):
        raise BParameterPole(f"1F1 undefined at non-positive integer b={b}")
    return a, b, z


_KUMMER_OVERFLOW = "1F1({:g}; {:g}; {:g}) overflows double precision"


def kummer_1f1(a, b, z):
    """1F1(a; b; z) to relative error < 1e-10 on the admissible range.

    Negative arguments are routed through the Kummer transformation
    1F1(a,b,z) = e^z 1F1(b-a, b, -z) so the series that actually runs has a
    positive argument and no catastrophic cancellation.  z may also be a
    numpy array of any shape, and then a and b may be arrays too: the three
    broadcast against each other like numpy arrays, and one series runs over
    all the elements, each stopping in place at its own step, bitwise the
    scalar call on it.  So a and b of shape (R, 1) against z of shape (n,)
    give R rows of n values from one series.  A scalar call is the gates, then
    _kummer, which the scalar closed forms call past gates they already passed.
    A non-finite argument raises ArgumentOutOfRange; a series that overflows
    raises OrderTooLarge, and one that does not converge within
    _SERIES_MAX_TERMS terms SeriesNotConverged.
    """
    if isinstance(z, np.ndarray):
        return _kummer_1f1_array(a, b, z)
    return _kummer(*_kummer_args(a, b, z))


def _kummer(a, b, z):
    """kummer_1f1 at floats a, b and z that passed its gates (finite, no pole at b): the
    scalar route past them, which refuses a |z| past MAX_ABS_Z and an overflow alone."""
    if abs(z) > MAX_ABS_Z:
        raise ArgumentOutOfRange(f"|z| = {abs(z)} exceeds {MAX_ABS_Z}")
    if z < 0.0:
        value = math.exp(z) * _series(b - a, b, -z)
    else:
        value = _series(a, b, z)
    return require_finite(value, _KUMMER_OVERFLOW, a, b, z)


def _require_parameter(name, value):
    """A 1F1 parameter as a float, or as a float array where it is an array."""
    return require_reals(name, value) if isinstance(value, np.ndarray) else require_real(name, value)


def _kummer_1f1_array(a, b, z):
    """kummer_1f1 over an array z, a and b floats or arrays.  Past the gates, an element
    with a pole at b or a |z| past MAX_ABS_Z is refused before any series: the series
    runs on the elements before the first refused one alone, in C order, and the scalar
    call on the first element that fails raises, the refused one where none before it does."""
    a = _require_parameter("1F1 parameter a", a)
    b = _require_parameter("1F1 parameter b", b)
    z = require_reals("1F1 argument z", z)
    refused = np.broadcast_to((b <= 0.0) & (b == np.floor(b)) | (np.abs(z) > MAX_ABS_Z),
                              np.broadcast_shapes(np.shape(a), np.shape(b), z.shape))
    if refused.any():
        stop = int(refused.argmax())
        a, b, z = (np.broadcast_to(v, refused.shape).flat[:stop + 1] for v in (a, b, z))
        if stop:
            _kummer_values(a[:stop], b[:stop], z[:stop])
        kummer_1f1(a[stop].item(), b[stop].item(), z[stop].item())
    return _kummer_values(a, b, z)


def _kummer_values(a, b, z):
    """kummer_1f1 on elements that pass its gates: one series for all elements, and e^z
    from math.exp once per element of z, as a scalar call has it (np.exp can differ in the
    last bit).  A series that did not stop and a value that is not finite mark an element,
    and the scalar call on the first one raises."""
    neg = z < 0.0
    growth = np.ones(z.shape)       # e^z where z < 0; elsewhere 1, and v * 1.0 is v
    growth[neg] = np.fromiter(map(math.exp, z[neg].tolist()), float)
    series_a = np.where(neg, b - a, a)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value, live = _series_array(series_a, b, np.abs(z))
        value *= growth
    failed = live | ~np.isfinite(value)
    if failed.any():                # the scalar call on the first marked element raises
        kummer_1f1(*(np.broadcast_to(v, failed.shape).flat[failed.argmax()].item()
                     for v in (a, b, z)))
    return value


def kummer_1f1_series(a, b, z):
    """Direct power series at the given argument, no transformation.

    Only sensible for small |z| (alternating cancellation grows with |z|);
    restricted to |z| <= 4.  Exists as an independent route for
    consistency checks against the transformed evaluation.  Errors as in
    kummer_1f1.
    """
    a, b, z = _kummer_args(a, b, z)
    if abs(z) > 4.0:
        raise ArgumentOutOfRange(f"direct series limited to |z| <= 4, got {abs(z)}")
    return require_finite(_series(a, b, z), _KUMMER_OVERFLOW, a, b, z)


def _sum_rows(stack):
    """The sum over the leading axis, row after row in order, for every shape.

    np.sum(axis=0) adds an (8,) or (8, 1) stack pairwise but an (8, n) one
    row by row, so a scalar and an array call on the same (s, q) would
    differ in the last bits.
    """
    return functools.reduce(operator.add, stack)


def _zeta_one_plus(t, q, factor):
    """factor zeta(1 + t, q) on gated float arrays t > 0, q > 0: the one body of hurwitz_zeta
    and zeta_negative (factor 1.0, and 1.0 * x is x) and of the image sum (factor a).  The
    direct and Bernoulli terms take s = 1.0 + t, the tail w^(-t) (factor/t + factor (1/2 +
    B/w)/w), w = q + _ZETA_DIRECT, takes t itself: by zeta(s, q) = 1/(s-1) - psi(q) + O(s-1)
    (DLMF 25.11) only the pole term needs the exact t, and at factor = t it is 1 where 1/t
    overflows.  w^(-t) <= 1, so only a direct term q^(-s) can overflow."""
    s = 1.0 + t
    column = (-1,) + (1,) * max(s.ndim, q.ndim)    # a leading axis to sum over
    w = q + _ZETA_DIRECT
    # sum_i B_2i/(2i)! (s)_(2i-1) w^(-s-2i+1) = w^(-s-1) sum_i c_i(s) w^(-2i+2)
    capped = np.minimum(s, _ZETA_TAIL_MAX_S)
    rising = np.cumprod(capped + _RISING_STEPS.reshape(column),
                        axis=0)[::2]                               # (s)_1, (s)_3, ...
    even = _EVEN_POWERS.reshape(column)
    bernoulli = _sum_rows(_ZETA_TAIL.reshape(column) * rising * w ** -even)
    direct = _sum_rows((q + _DIRECT_OFFSETS.reshape(column)) ** -s)
    return factor * direct + w ** -t * (factor / t + factor * (0.5 + bernoulli / w) / w)


def hurwitz_zeta(s, q):
    """Hurwitz zeta function zeta(s, q) = sum_{k>=0} (q + k)^(-s).

    Defined here for finite s > 1 and q > 0; s and q broadcast against each other
    like numpy arrays, and a pair of scalars gives a float, bitwise the
    element of an array call on the same pair.  Euler-Maclaurin
    summation with a fixed number of direct terms and Bernoulli corrections
    (see _ZETA_DIRECT and _zeta_one_plus), accurate to a few ulp for s up to
    1000 on the q range 0.5 .. 1.5 that the engine's image correction uses,
    and at large q (zeta(2, 1e300) is about 1e-300).  Raises OrderTooLarge
    where a direct term q^(-s) overflows (large s with q < 1).
    """
    s = require_reals("hurwitz_zeta s", s, above=1.0)
    q = require_reals("hurwitz_zeta q", q, above=0.0)
    # a pair of scalars runs as 1-element arrays: numpy's ** on scalars (and
    # its fast paths for exponents such as -1) can differ in the last bit
    # from the pow of the array loop
    scalar = s.ndim == q.ndim == 0
    s, q = np.atleast_1d(s, q)
    with np.errstate(over="ignore"):
        total = _zeta_one_plus(s - 1.0, q, 1.0)     # s - 1 is exact for s <= 2^53
    overflow = ~np.isfinite(total)
    if overflow.any():
        s, q = (np.broadcast_to(v, total.shape).flat[overflow.argmax()] for v in (s, q))
        raise OrderTooLarge(f"hurwitz_zeta overflows double precision for s in "
                            f"[{s:.12g}, {s:.12g}], q in [{q:g}, {q:g}]: "
                            f"the order or argument is too large")
    return float(total[0]) if scalar else total


def zeta_negative(t):
    """Riemann zeta at a non-positive argument: zeta(-t) for real t >= 0.

    The functional equation (DLMF 25.4.1) gives

        zeta(-t) = -2 (2 pi)^(-1-t) sin(pi t/2) Gamma(1+t) zeta(1+t),

    with zeta(1+t) = hurwitz_zeta(1+t, 1).  The sine is taken about the
    nearest integer m, sin(pi t/2) = sin(pi m/2) cos(pi d/2) +
    cos(pi m/2) sin(pi d/2) with d = t - m exact, so the trivial zeros at
    even t > 0 are exact and the value keeps its relative accuracy next to
    them.  zeta(1+t) is _zeta_one_plus at t itself, so the rounding of 1 + t
    costs no relative accuracy next to the pole.  Below _ZETA_TAYLOR_T, a
    range that holds every t too small to change 1.0 + t, zeta(-t) is -1/2 + t ln(2 pi)/2
    (zeta(0) = -1/2, zeta'(0) = -ln(2 pi)/2).  Raises OrderTooLarge where
    Gamma(1+t) overflows (t above about 170.6, except at the even t, whose
    zeros need no Gamma).

    t may also be a numpy array of any shape, each element bitwise the
    scalar call; anything else runs as a one-element row and gives a float.
    Each element is gated and its factor before zeta(1+t) formed as above,
    in C order, and one _zeta_one_plus call serves every element that needs
    it.  Where the scalar call on some element would raise, the array raises
    the error of the first such element, before any zeta is computed: a row
    that crosses the Gamma limit raises OrderTooLarge as a whole.
    """
    array = isinstance(t, np.ndarray)
    row = t.ravel().tolist() if array else [t]
    values, needs_zeta = np.empty(len(row)), np.zeros(len(row), dtype=bool)
    for i, x in enumerate(row):
        x = row[i] = require_real("zeta_negative t", x, least=0.0)
        if x < _ZETA_TAYLOR_T:
            values[i] = -0.5 + x * _HALF_LOG_2PI
            continue
        m = round(x)
        d = x - m
        sin_m, cos_m = ((0.0, 1.0), (1.0, 0.0), (0.0, -1.0), (-1.0, 0.0))[m % 4]
        sine = sin_m * math.cos(0.5 * math.pi * d) + cos_m * math.sin(0.5 * math.pi * d)
        # the sine is 0 at the trivial zeros
        needs_zeta[i] = sine != 0.0
        values[i] = (-2.0 * (2.0 * math.pi) ** (-1.0 - x) * sine * gamma(1.0 + x)
                     if needs_zeta[i] else 0.0)
    if needs_zeta.any():
        values[needs_zeta] *= _zeta_one_plus(np.array(row)[needs_zeta], np.ones(1), 1.0)
    return values.reshape(t.shape) if array else float(values[0])
