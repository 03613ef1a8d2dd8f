"""Special functions: Gamma, the confluent hypergeometric 1F1,
the Hurwitz zeta function and the Riemann zeta function at negative
arguments.

Gamma is the standard library's gamma function behind typed errors; 1F1 and the
zeta functions are implemented here (plain power series, Euler-Maclaurin
summation), so the closed forms and the image correction they feed are
auditable and need nothing beyond numpy and the standard library.  A value
that overflows double precision raises OrderTooLarge (see require_finite).
"""
import cmath
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


# 1F1 power-series stopping rule: next term below this relative size, or a
# hard cap of 500 terms (the admissible parameter range converges well
# before that).
_SERIES_RTOL = 1e-17
_SERIES_MAX_TERMS = 500

#: Largest |z| accepted by kummer_1f1 (covers x up to 20 in the closed forms).
MAX_ABS_Z = 400.0

# Hurwitz zeta by Euler-Maclaurin (Johansson, arXiv:1309.2877): the first
# _ZETA_DIRECT terms are summed directly and the tail from q + _ZETA_DIRECT
# on is replaced by its integral, half its first term and the Bernoulli
# corrections B_2 .. B_16.  Against an independent reference this reaches
# relative error below 1e-15 for 1 < s <= 40 and 0.5 <= q <= 1.5.
_ZETA_DIRECT = 8
_BERNOULLI_EVEN = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730),
                   (7, 6), (-3617, 510))
# B_2k / (2k)!, k = 1 .. 8, each correctly rounded (integer true division)
_ZETA_TAIL = tuple(num / (den * math.factorial(2 * k))
                   for k, (num, den) in enumerate(_BERNOULLI_EVEN, start=1))
# The tail is scaled by w^(-s) with w = q + _ZETA_DIRECT > 8, and 8^(-s)
# underflows to 0 from s of about 358.4 on.  Its Bernoulli corrections are
# formed with s capped here, so their rising factorials stay finite where
# they are multiplied by that 0; below the cap s is used as it is.
_ZETA_TAIL_MAX_S = 400.0


#: Message of require_finite for a function of an order: name, order.
ORDER_OVERFLOW = "{} at order {:g} overflows double precision: the order is too large"


def require_finite(value, message, *args):
    """The value, or OrderTooLarge(message.format(*args)) where it is inf or nan.

    Python floats and complexes overflow to inf without a warning; the
    closed forms, 1F1 and the uncertainty bound return through here.  The
    message is formatted only when it is raised.
    """
    if not cmath.isfinite(value):
        raise OrderTooLarge(message.format(*args))
    return value


def require_real(name, value, error=ArgumentOutOfRange, least=-math.inf):
    """The one finite-real gate: value as a float >= least, else error (pure Python)."""
    try:
        value = float(value)
    except OverflowError:
        raise error(f"{name} is past the float range") from None
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
    """The values as a float array: ArgumentOutOfRange unless all are finite and > above."""
    try:
        values = np.asarray(values, dtype=float)
    except OverflowError:
        raise ArgumentOutOfRange(f"{name} is past the float range") from None
    if not ((values > above) & (values < math.inf)).all():
        raise ArgumentOutOfRange(f"{name} must be finite and > {above:g}, got {values}")
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


def _series(a, b, z):
    """Plain 1F1 power series."""
    term = 1.0
    total = 1.0
    for j in range(_SERIES_MAX_TERMS):
        term *= (a + j) * z / ((b + j) * (j + 1))
        total += term
        if abs(term) < _SERIES_RTOL * abs(total):
            break
    return total


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
    positive argument and no catastrophic cancellation.  A non-finite
    argument raises ArgumentOutOfRange; a series that overflows raises
    OrderTooLarge.
    """
    a, b, z = _kummer_args(a, b, z)
    if abs(z) > MAX_ABS_Z:
        raise ArgumentOutOfRange(f"|z| = {abs(z)} exceeds {MAX_ABS_Z}")
    if z < 0.0:
        value = math.exp(z) * _series(b - a, b, -z)
    else:
        value = _series(a, b, z)
    return require_finite(value, _KUMMER_OVERFLOW, a, b, z)


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


def hurwitz_zeta(s, q):
    """Hurwitz zeta function zeta(s, q) = sum_{k>=0} (q + k)^(-s).

    Defined here for finite s > 1 and q > 0; s and q broadcast against each other
    like numpy arrays, and a pair of scalars gives a float.  Euler-Maclaurin
    summation with a fixed number of direct terms and Bernoulli corrections
    (see _ZETA_DIRECT), accurate to a few ulp for s up to 40 on the q range
    0.5 .. 1.5 that the engine's image correction uses.  Raises
    OrderTooLarge where a term q^(-s) overflows double precision (q < 1
    only).
    """
    s = require_reals("hurwitz_zeta s", s, above=1.0)
    q = require_reals("hurwitz_zeta q", q, above=0.0)
    column = (-1,) + (1,) * max(s.ndim, q.ndim)    # a leading axis to sum over
    try:
        with np.errstate(over="raise"):
            direct = np.sum((q + np.arange(_ZETA_DIRECT).reshape(column)) ** -s, axis=0)
    except FloatingPointError:
        raise OrderTooLarge(f"hurwitz_zeta overflows double precision at s up to "
                            f"{s.max():g}, q down to {q.min():g}: the order is too large") from None
    w = q + _ZETA_DIRECT
    # sum_i B_2i/(2i)! (s)_(2i-1) w^(-s-2i+1) = w^(-s-1) sum_i c_i(s) w^(-2i+2)
    capped = np.minimum(s, _ZETA_TAIL_MAX_S)
    rising = np.cumprod(capped + np.arange(2 * len(_ZETA_TAIL) - 1).reshape(column),
                        axis=0)[::2]                               # (s)_1, (s)_3, ...
    even = np.arange(0.0, 2 * len(_ZETA_TAIL), 2.0).reshape(column)
    bernoulli = np.sum(np.reshape(_ZETA_TAIL, column) * rising * w ** -even, axis=0)
    total = direct + w ** -s * (w / (s - 1.0) + 0.5 + bernoulli / w)
    return float(total) if total.ndim == 0 else total


def zeta_negative(t):
    """Riemann zeta at a non-positive argument: zeta(-t) for real t >= 0.

    The functional equation (DLMF 25.4.1) gives

        zeta(-t) = -2 (2 pi)^(-1-t) sin(pi t/2) Gamma(1+t) zeta(1+t),

    with zeta(1+t) = hurwitz_zeta(1+t, 1).  The sine is taken about the
    nearest integer m, sin(pi t/2) = sin(pi m/2) cos(pi d/2) +
    cos(pi m/2) sin(pi d/2) with d = t - m exact, so the trivial zeros at
    even t > 0 are exact and the value keeps its relative accuracy next to
    them; zeta(0) = -1/2 is the limit t -> 0.  Raises OrderTooLarge where
    Gamma(1+t) overflows (t above about 170.6).
    """
    t = require_real("zeta_negative t", t, least=0.0)
    if t == 0.0:
        return -0.5
    m = round(t)
    d = t - m
    sin_m, cos_m = ((0.0, 1.0), (1.0, 0.0), (0.0, -1.0), (-1.0, 0.0))[m % 4]
    sine = sin_m * math.cos(0.5 * math.pi * d) + cos_m * math.sin(0.5 * math.pi * d)
    if sine == 0.0:
        return 0.0
    return (-2.0 * (2.0 * math.pi) ** (-1.0 - t) * sine
            * gamma(1.0 + t) * hurwitz_zeta(1.0 + t, 1.0))
