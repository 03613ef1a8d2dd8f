"""Fractional derivative and momentum operators as Fourier multipliers.

The transform pair uses the symmetric 1/sqrt(2*pi) normalization.  The
fractional power of (ip) takes the principal branch of the purely imaginary
base:

    (ip)^a = |p|^a * exp(i*sign(p)*a*pi/2)

which for p > 0 equals i^a p^a with i^a = cos(a*pi/2) + i*sin(a*pi/2).  The
momentum symbol divides that phase out:

    p^a = (ip)^a / i^a = |p|^a for p > 0,  |p|^a e^{-i*a*pi} for p < 0.

Both are 0 at the p = 0 bin for a > 0 (the limit of |p|^a), 1 for a = 0.

The engine (fractional_derivative, fractional_momentum) applies (ip)^a
with real-to-complex transforms: the real and the imaginary part of the
samples are transformed on their own (the imaginary part only where it is
non-zero), so D^a of a real signal is exactly real.  It forms (ip)^a on the
rfft bins p = k*dp >= 0 alone, as |p|^a times i^a after one test of |p|^a
at the largest bin, the Nyquist bin: the bits of ip_power there, without
its gates of a signed array of frequencies.  The Nyquist bin is split evenly between
p = +-pi/dx, where the grid's frequency layout puts it at -pi/dx alone:
D^1 of the on-grid cosine cos(pi x/dx) is 0, to roundoff, at the samples.
P_a is e^{-i*a*pi/2} D^a, which is exact since p^a = i^(-a) (ip)^a on
every bin.  Coefficients below NOISE_FLOOR times the largest coefficient
of either part are zeroed first.

With this branch D^a is the left-sided (Liouville) derivative on the real
line.  For non-integer a, D^a f has a one-sided tail to the right of f that
falls off only like x^(-1-a)/Gamma(-a), and by Poisson summation a multiplier
on a periodic grid returns the periodisation sum_m g(x + m*P) of g = D^a f,
P = x_max - x_min.  Where boundary_decay is below DECAY_THRESHOLD times max|f|
the engine subtracts the images m >= 1 in closed form from the moments of the
signal (see ImageCorrection), which gives the derivative on the line.  Signals
that do not decay, such as on-grid plane waves, stay periodic and a
non-integer order attaches a warning.
"""
import cmath
import contextlib
import enum
import functools
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import specfun
from .grid import (EvaluationFailure, Grid, GridMismatch, SampledSignal, Spectrum,
                   _finite_samples, _own_samples, _readonly, central_gap, require_same_grid)
from .specfun import ArgumentOutOfRange, OrderTooLarge

SQRT_2PI = float(np.sqrt(2.0 * np.pi))

#: A boundary_decay of 0 or below this times max|f| counts as decaying, so c*f decays
#: where f does: a non-integer order then subtracts the wrap-around images.  Otherwise
#: the result stays periodic with a warning, and the operator layer refuses x*f.
DECAY_THRESHOLD = 1e-10

#: Transform coefficients below this fraction of the largest one are set to
#: zero by zero_noise before a multiplier of positive order is applied.  At
#: double precision such bins hold FFT roundoff rather than signal, and a
#: high order would amplify them by p_max^a (about 5e16 at order 5.2 with
#: n = 2^15 on (-32, 32)).
NOISE_FLOOR = 1e-15

# Image correction.  Moments are taken over the samples above
# _SUPPORT_FLOOR * max|f| and added until two in a row bound an image term
# below _MOMENT_TOL * max|f| (or _MAX_MOMENTS is reached).  Both sides use
# _IMAGE_BLOCKS equal blocks of the grid, every offset h from a block's
# centre q below q / 33: _IMAGE_TAYLOR local moments per block, and as many
# Taylor terms about q for the image sum.  On the moment-weighted sum (at
# s = 1 + a + j near 60 one zeta term converges slowly, but its moment weight
# is below roundoff), for decaying Gaussians and x^2-Gaussians, 40 moments
# and orders up to 5.2, the Taylor remainder stays below 1.1e-18 * max|f|
# (1.3e-16 at 16 terms), and the h^r, r >= 18, that the moments j >= 18 drop
# below 1.5e-21 * max|f| (n = 256 to 2^15).
_SUPPORT_FLOOR = 1e-20
_MOMENT_TOL = 1e-17
_MAX_MOMENTS = 40
_IMAGE_BLOCKS = 32
_IMAGE_TAYLOR = 18
# _box_moments' binomial shift: the weight j!/(j-r)! (-1)^r at (j, r), 0 for r > j, and
# the flat index of (j - r, r), the row clipped at 0, in a (_MAX_MOMENTS, _IMAGE_TAYLOR) table
_SHIFT = np.array([[(-1) ** r * math.perm(j, r) for r in range(_IMAGE_TAYLOR)]
                   for j in range(_MAX_MOMENTS)], dtype=float)
_SHIFT_AT = (np.maximum(np.arange(_MAX_MOMENTS)[:, None] - np.arange(_IMAGE_TAYLOR), 0)
             * _IMAGE_TAYLOR + np.arange(_IMAGE_TAYLOR))
# Beyond this order Gamma(-a) underflows.  |p|^a overflows only where the Nyquist bin
# passes e^(709.78/a), about 65 at this order: the engine tests that on its own.
_MAX_IMAGE_ORDER = 170.0
_LOG_DBL_MAX = math.log(sys.float_info.max)


class AlphaInForbiddenRange(ValueError):
    """An order outside the range an operation is defined for."""


class NegativeAlpha(AlphaInForbiddenRange):
    """An order that is not finite and >= 0; see require_order."""


class Pairing(enum.Enum):
    SESQUILINEAR = "sesquilinear"
    BILINEAR = "bilinear"


class MinusOneBranch(enum.Enum):
    """Which continuation of (-1)^a a duality check uses: e^{+i*a*pi} or e^{-i*a*pi}."""
    E_PLUS_I_PI = "e_plus_i_pi"
    E_MINUS_I_PI = "e_minus_i_pi"


def require_order(alpha):
    """The order as a float: NegativeAlpha unless it is a real number, finite and >= 0.

    An int past the float range raises OrderTooLarge, or NegativeAlpha if
    it is negative; text and complex numbers raise NegativeAlpha, as in
    specfun.require_real.
    """
    try:
        value = specfun._real_float(alpha)
    except OverflowError:
        if alpha < 0:
            raise NegativeAlpha("alpha must be finite and >= 0, got a negative int "
                                "past the float range") from None
        raise OrderTooLarge("the order is past the float range: the order is too large") from None
    except (TypeError, ValueError):
        raise NegativeAlpha(f"alpha must be a real number, got {alpha!r}") from None
    if not (math.isfinite(value) and value >= 0):
        raise NegativeAlpha(f"alpha must be finite and >= 0, got {value}")
    return value


def zero_noise(*coeffs):
    """Zero, in place, every bin below NOISE_FLOOR times the largest |c| of all the arrays."""
    mags = [np.abs(c) for c in coeffs]
    floor = NOISE_FLOOR * max(float(m.max()) for m in mags)
    for c, m in zip(coeffs, mags):
        c[m < floor] = 0.0


def _abs_power(alpha, modulus):
    """|p|^alpha from a float array of |p| (>= 0, left as it is); OrderTooLarge, before
    the power, where its largest overflows (_require_power)."""
    _require_power(alpha, float(modulus.max(initial=0.0)))
    return modulus ** alpha


def _require_power(alpha, p_max):
    """OrderTooLarge where |p|^alpha overflows at |p| = p_max: the one overflow guard
    of a power of |p|."""
    if alpha * math.log(max(p_max, 1.0)) > _LOG_DBL_MAX:
        raise OrderTooLarge(f"|p|^{alpha:g} overflows double precision at "
                            f"|p| = {p_max:.6g}: the order is too large for this grid")


def _phase(exp, unit, alpha):
    """exp(unit * pi * a), i^a, (-i)^a or (-1)^a for unit 0.5j, -0.5j or +-1j; exactly 1 where
    pi * a overflows (exp gives nan or raises): every double past 2^54 is a multiple of 4."""
    return exp(unit * np.pi * alpha) if math.pi * alpha < math.inf else 1.0 + 0.0j


def _branch_power(alpha, p, momentum):
    """(ip)^a, or where momentum p^a, on frequencies p, both gated by the caller: the one
    body of both, |p|^a (_abs_power, which tests it) times the phase on each side of 0."""
    half_turn = _phase(cmath.exp, 0.5j, alpha)
    upper, lower = ((1.0 + 0.0j, _phase(np.exp, -1j, alpha)) if momentum
                    else (half_turn, half_turn.conjugate()))
    modulus = _abs_power(alpha, np.abs(p))  # 0^0 = 1: order 0 is 1 on every bin
    symbol = np.multiply(modulus, upper, out=np.empty(p.shape, dtype=complex))
    np.multiply(modulus, lower, out=symbol, where=p < 0)
    return symbol


def ip_power(alpha, p):
    """Multiplier (ip)^a on an array of frequencies, branch as above."""
    return _branch_power(require_order(alpha), specfun.require_reals("p", p), False)


def p_power(alpha, p):
    """Momentum symbol p^a = (ip)^a / i^a; real on p > 0, e^{-i*a*pi} phase on p < 0."""
    return _branch_power(require_order(alpha), specfun.require_reals("p", p), True)


def _too_large(what, *sources):
    """The OrderTooLarge of a result that overflowed, naming the largest input |value|."""
    top = max(float(np.abs(v).max()) for v in sources)
    return OrderTooLarge(f"{what}: samples up to |f| = {top:.3g} are too large")


@contextlib.contextmanager
def _overflow_is_too_large(what, *sources):
    """numpy's overflow warnings off, and OrderTooLarge (see _too_large) where the
    gate of the result finds a value that is not finite (an EvaluationFailure).

    The one mapping of the engine, the transforms, product_rule and quantum's x f.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            yield
        except EvaluationFailure:
            raise _too_large(what, *sources) from None


def forward(signal):
    """Transform samples to frequency coefficients.

    coeffs[k] = (dx/sqrt(2*pi)) * sum_j e^{-i p_k x_j} values[j], done with
    an FFT plus the e^{-i p_k x_min} phase for the grid offset.  Raises
    OrderTooLarge where the coefficients overflow.
    """
    g = signal.grid
    with _overflow_is_too_large("the forward transform overflows double precision",
                                signal.values):
        return Spectrum(g, (g.dx / SQRT_2PI) * np.exp(-1j * g.p * g.x_min)
                        * np.fft.fft(signal.values))


def inverse(spectrum):
    """Inverse transform; inverse(forward(s)) == s to machine precision.

    Raises OrderTooLarge where the samples overflow.
    """
    g = spectrum.grid
    with _overflow_is_too_large("the inverse transform overflows double precision",
                                spectrum.coeffs):
        values = (SQRT_2PI / g.dx) * np.fft.ifft(spectrum.coeffs * np.exp(1j * g.p * g.x_min))
        return SampledSignal._adopt(g, values)


def _image_order(order):
    """The order, which the caller gates, or None where it leaves no image tail (an integer,
    or past _MAX_IMAGE_ORDER, where Gamma(-a) underflows): the one home of its limits."""
    return None if order == int(order) or order > _MAX_IMAGE_ORDER else order


@dataclass(frozen=True, eq=False)
class ImageCorrection:
    """The wrap-around images subtracted from an engine result, on the grid of its moments.

    For x to the right of a signal f centred in the box, the line derivative
    g = D^a f is (Samko-Kilbas-Marichev 1993, section 7)

        g(x) = 1/Gamma(-a) * sum_j mu_j (1+a)_j / j! * (x - c)^(-1-a-j),

    with mu_j = sum_k (x_k - c)^j f_k dx the moments of f about the box
    centre c.  Summing the images g(x + m*P), m >= 1, over the box gives

        P^(-1-a)/Gamma(-a) * sum_j nu_j (1+a)_j/j! * zeta(1+a+j, 1 + (x-c)/P),

    nu_j = mu_j / P^j, zeta the Hurwitz zeta function.  By 1/Gamma(-a) = -a/Gamma(1-a),
    _ImageTable forms the factors of the terms before a zeta(...), the one home of the
    series, finite at every order (see _image_sum); as a -> 0 the sum tends to -nu_0/P.
    Images m <= -1 fall to the left of f, where g decays like f itself.  A P_a result is
    e^{-i*pi*a/2} D^a f, so its images carry that phase.

    grid    the grid of the moments: c is its box centre, P its period
    order   the order of the multiplier the result was computed at
    moments nu_0, nu_1, ... of the signal it was computed from, times the
            result's phase (e^{-i*pi*a/2} for P_a), a read-only copy
    values  the image sum at the grid's samples, read-only, formed on first read

    The one record of a corrected result: it keeps the _ImageTable of its order (the
    engine's, shared by that order's records in one call, or its own where built here),
    and every image sum, subtracted or read, is _image_sum of that table and the moments.
    An engine record keeps its source (signal, phase), which a copy or a pickle carries:
    a further order of the result is taken from there (see _apply_multiplier).

    Construction refuses a grid that is not a Grid (GridMismatch), moments
    that are not finite (EvaluationFailure) or more than _MAX_MOMENTS of them
    (ArgumentOutOfRange), an order outside _image_order's limits and an image
    sum that is not finite (EvaluationFailure, no warning).
    """
    grid: Grid
    order: float
    moments: np.ndarray
    _table: "_ImageTable" = field(init=False, repr=False)
    _source: tuple = field(init=False, repr=False, default=None)
    _values: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if not isinstance(self.grid, Grid):
            raise GridMismatch(f"an image record needs a Grid, got {type(self.grid).__name__}")
        order = _image_order(require_order(self.order))
        if order is None:
            raise AlphaInForbiddenRange(f"order {self.order:g} leaves no image tail")
        moments = _own_samples(self.moments, np.arange(np.size(self.moments)), "moments", "j")
        if len(moments) > _MAX_MOMENTS:     # the table holds _MAX_MOMENTS weights
            raise ArgumentOutOfRange(f"an image record takes at most {_MAX_MOMENTS} moments, "
                                     f"got {len(moments)}")
        # the fields of a frozen record are set through its __dict__, as an unpickled one's
        self.__dict__.update(order=order, moments=moments, _table=_ImageTable(order, self.grid))
        self.values     # the gate of the image sum, at construction

    @classmethod
    def _of_engine(cls, table, moments, source):
        """The record of an engine result, its moments read-only here: the engine's finite
        gate of the result covers the values."""
        record = cls.__new__(cls)
        record.__dict__.update(grid=source[0].grid, order=table.order, moments=_readonly(moments),
                               _table=table, _source=source, _values=None)
        return record

    @property
    def values(self):
        """The image sum at the grid's samples, read-only (formed here on first read)."""
        if self._values is None:
            values = np.empty(self.grid.n, dtype=complex)
            with np.errstate(over="ignore", invalid="ignore"):  # a sum past the float range
                values.real, values.imag = _image_sum(self._table, self.moments)
            self.__dict__["_values"] = _finite_samples(values, self.grid.x, "images", "x")
        return self._values

    def __reduce__(self):
        # through __init__, so a copy or an unpickled record is read-only too; the state
        # carries the source, so a copied result chains to the bits of the original
        return ImageCorrection, (self.grid, self.order, self.moments), {"_source": self._source}


class _ImageTable:
    """What the image records of one order on one grid share and keep: formed once per
    order in one engine call (see _apply_multiplier), or by a record built by hand.

    scale, weights  -P^(-1-a)/Gamma(1-a) and (1+a)_j/j!, j < _MAX_MOMENTS: the term of
                    moment j is scale nu_j weights_j, each for an a zeta(1+a+j, q), finite
                    at every order _image_order accepts (the one home of the series)
    per_moment, zeta_max  the factors of _moments' bound on the image term of a moment
    columns         the most zeta columns a record of the call asks for (see _images)
    zeta, rising    the zeta table at that many columns and the rising factorials
                    (s)_r, formed at the first _image_sum; every record slices them

    Raises OrderTooLarge where P^(-1-a) overflows.
    """
    __slots__ = ("order", "n", "scale", "weights", "per_moment", "zeta_max", "columns",
                 "zeta", "rising")

    def __init__(self, order, grid):
        period = grid.x_max - grid.x_min
        try:
            self.scale = -period ** (-1.0 - order) / specfun.gamma(1.0 - order)
        except OverflowError:
            raise OrderTooLarge(f"the image correction's P^(-1-a) overflows double precision "
                                f"at box width P = {period:g}, order {order:g}") from None
        j = np.arange(1, _MAX_MOMENTS)
        self.weights = np.concatenate(([1.0], np.cumprod((order + j) / j)))
        self.per_moment = np.abs(self.scale * self.weights)
        j = np.arange(_MAX_MOMENTS)
        self.zeta_max = order * 2.0 ** (1.0 + order + j) + order / (order + j)
        self.order, self.n = order, grid.n
        self.columns, self.zeta, self.rising = 0, None, None


@functools.lru_cache(maxsize=8)
def _taylor_blocks(n):
    """Block centres q_b and the Taylor factors (-h)^r / r! of each block's points.

    The grid point i sits at q = 1/2 + i/n, so every block has the same
    offsets h from its centre and the factors form one (R, L) table: samples
    to block moments in _box_moments, block Taylor terms to samples in _image_sum.
    """
    blocks = min(n, _IMAGE_BLOCKS)
    size = n // blocks
    h = (np.arange(size) - 0.5 * (size - 1)) / n
    r = np.arange(1, _IMAGE_TAYLOR)
    factors = np.cumprod(np.vstack([np.ones(size), -h / r[:, None]]), axis=0)
    centres = 0.5 + (np.arange(blocks) * size + 0.5 * (size - 1)) / n
    return _readonly(centres), _readonly(factors)


def _image_sum(table, moments):
    """(real, imaginary) part of sum_j terms_j a zeta(1+a+j, q) at q = 1/2 + i/n, i = 0..n-1,
    terms_j = scale nu_j weights_j of the table (see _ImageTable), in place of a complex array:
    the engine subtracts each part from its result, a record's values take them.

    Each block uses zeta(s, q_b + h) = sum_r (-h)^r (s)_r / r! zeta(s+r, q_b),
    from d zeta(s, q)/dq = -s zeta(s+1, q) (DLMF 25.11), so zeta is evaluated
    at the block centres only, the factor a inside: column 0's pole term is a/a, not 1/a.
    The first call on a table forms its one zeta table, at the largest column count of
    its records, and every record takes the columns it needs from it: a column is the
    same whatever the table's width.  The sum runs in the unit 2^e next to the largest
    moment, up or down (ldexp, exact).
    """
    centres, factors = _taylor_blocks(table.n)
    n_mom, n_taylor = len(moments), len(factors)
    if table.zeta is None:
        columns = max(table.columns, n_mom + n_taylor)
        s = 1.0 + table.order + np.arange(columns)
        t = s - 1.0
        t[0] = table.order
        table.zeta = specfun._zeta_one_plus(t, centres[:, None], table.order)
        rising = np.ones((columns - n_taylor, n_taylor))
        rising[:, 1:] = s[:len(rising), None] + np.arange(n_taylor - 1)
        table.rising = np.cumprod(rising, axis=1, out=rising)
    zeta = table.zeta
    e = math.frexp(float(np.abs(moments).max(initial=0.0)))[1] - 1
    terms = table.scale * np.ldexp(moments.view(float), -e).view(complex) * table.weights[:n_mom]
    # the windows zeta[b, j:j + n_taylor] of moment j, a view of the table
    windows = np.ndarray((len(centres), n_mom, n_taylor), float, zeta,
                         strides=(zeta.strides[0], zeta.itemsize, zeta.itemsize))
    taylor = np.einsum("jr,bjr->br", terms[:, None] * table.rising[:n_mom], windows)
    # One product per part: the 2n-point temporary of a stacked product made
    # an engine request at n = 2^15 about 7% slower.
    parts = [part @ factors for part in (taylor.real, taylor.imag)]
    return [np.ldexp(part, e, out=part).ravel() for part in parts]


def _subtract_images(out, record):
    """out -= the record's image sum, in place, part by part: the bits of out - record.values."""
    for part, images in zip((out.real, out.imag), _image_sum(record._table, record.moments)):
        part -= images


class _Evidence(NamedTuple):
    """What the engine reads of a signal's samples, in one pass over |f| (see _evidence)."""
    top: float      # max|f|
    unit: float     # 2^-e, 2^e the power of two next to top (2^-e, dx 2^-e <= 2^1000)
    lo: int         # lo:hi spans the samples above _SUPPORT_FLOOR times top
    hi: int
    edge: float     # boundary_decay
    ratio: float    # edge / top, 0 for a signal of zeros (edge <= top)

    @property
    def decays(self):
        """Whether the signal decays (see DECAY_THRESHOLD): the one test of engine and quantum."""
        return self.edge == 0.0 or self.edge < DECAY_THRESHOLD * self.top


def _evidence(signal):
    """The signal's _Evidence, kept in its memo."""
    evidence = signal._memo.get("evidence")
    if evidence is None:
        grid, edge = signal.grid, signal.boundary_decay
        mag = np.abs(signal.values)
        top = float(mag.max())
        above = mag > _SUPPORT_FLOOR * top
        unit = math.ldexp(1.0, -max(math.frexp(top)[1], math.frexp(grid.dx)[1] - 1000, -1000))
        evidence = signal._memo["evidence"] = _Evidence(
            top, unit, int(above.argmax()), grid.n - int(above[::-1].argmax()), edge,
            edge / top if top else 0.0)
    return evidence


def _route(evidence, order):
    """(image order, warning) of a multiplier of this order, the one route decision of the
    engine and product_rule: a signal that decays takes _image_order's (None where the
    order leaves no image tail), any other stays periodic, warned at a non-integer order."""
    if evidence.decays:
        return _image_order(order), None
    if order == int(order):
        return None, None
    return None, (f"boundary decay {evidence.ratio:.3e} of max|f| above threshold "
                  f"{DECAY_THRESHOLD:.1e}; wrap-around may contaminate order {order:g}")


def _box_moments(signal):
    """All _MAX_MOMENTS scaled moments nu_j of the samples about the box centre, in the
    unit of _evidence: read-only, once per signal (its memo keeps them).

    One product forms them all: the blocks of _taylor_blocks(n) hold dx unit f
    over the support (0 elsewhere), its factors give their local moments
    L_br = sum (-h)^r/r! f, and _SHIFT moves these to the box centre,
    nu_j = sum_r j!/(j-r)! (-1)^r sum_b tau_b^(j-r) L_br with tau_b = q_b - 1
    (h and tau_b in periods), nothing underflowing near the float minimum.  Read by
    _moments, for the image correction, and by quantum._spread, for |phi_hat|^2.
    """
    moments = signal._memo.get("moments")
    if moments is None:
        grid = signal.grid
        _, unit, lo, hi = _evidence(signal)[:4]
        centres, factors = _taylor_blocks(grid.n)
        size = factors.shape[1]
        first, last = lo // size, -(-hi // size)
        values, scale = signal.values[first * size:last * size], grid.dx * unit
        parts = np.empty((2, len(values)))      # the real and the imaginary part
        for part, half in zip(parts, (values.real, values.imag)):
            np.multiply(half, scale, out=part)
        parts[:, :lo - first * size] = parts[:, hi - first * size:] = 0.0
        local = parts.reshape(2, last - first, size) @ factors.T
        powers = np.vander(centres[first:last] - 1.0, _MAX_MOMENTS, increasing=True)
        shifted = (powers.T @ local).reshape(2, -1).take(_SHIFT_AT, axis=1)
        real, imag = np.einsum("jr,cjr->cj", _SHIFT, shifted)
        signal._memo["moments"] = moments = _readonly(real + 1j * imag)
    return moments


def _moments(signal, table):
    """The moments nu_j of _box_moments, as many as the table's order needs: the list ends
    at the first two in a row whose image term is bounded below the limit (so c*f keeps
    the moment count of f)."""
    top, unit = _evidence(signal)[:2]
    moments = _box_moments(signal)
    # the image term of moment j is bounded by |nu_j| times its term per unit
    # moment times a zeta(s, 1/2) <= a 2^s + a/(a+j), s = 1 + a + j (as in _image_sum)
    quiet = table.per_moment * np.abs(moments) * table.zeta_max < _MOMENT_TOL * (top * unit)
    stop = np.flatnonzero(quiet[1:] & quiet[:-1])
    return moments[:stop[0] + 2 if stop.size else _MAX_MOMENTS] / unit


def _images(signal, alpha, phase, tables):
    """(images, warning) of a multiplier of order alpha and phase on signal, routed by _route:
    a record of an image order has (signal, phase) as its source and the _ImageTable of its
    order in tables (a dict by order on the signal's grid, which the caller drops when it
    returns), which notes its column count."""
    order, warning = _route(_evidence(signal), alpha)
    if order is None:
        return None, warning
    table = tables.get(order)
    if table is None:
        table = tables[order] = _ImageTable(order, signal.grid)
    moments = _moments(signal, table) * phase
    table.columns = max(table.columns, len(moments) + _IMAGE_TAYLOR)
    return ImageCorrection._of_engine(table, moments, (signal, phase)), None


def _half_spectra(signal):
    """The rfft of the real part of the samples, and of the imaginary part where it
    is non-zero, with the bins of either part below the noise floor of both zeroed:
    read-only, once per signal."""
    spectra = signal._memo.get("spectra")
    if spectra is None:
        values = signal.values
        parts = [values.real, values.imag] if values.imag.any() else [values.real]
        spectra = tuple(np.fft.rfft(v) for v in parts)
        zero_noise(*spectra)
        signal._memo["spectra"] = spectra = tuple(_readonly(c) for c in spectra)
    return spectra


@functools.lru_cache(maxsize=8)
def _half_bins(n, dp):
    """The rfft bins p = k*dp, k = 0..n/2, read-only: once per grid spacing."""
    return _readonly(np.arange(n // 2 + 1) * dp)


def _half_symbol(alpha, grid):
    """(ip)^a on the grid's rfft bins, the bits of ip_power there without its gates and its
    p < 0 side: |p|^a, which the caller tested at the Nyquist bin, times the phase i^a."""
    return _half_bins(grid.n, grid.dp) ** alpha * _phase(cmath.exp, 0.5j, alpha)


def _apply_multiplier(signals, alpha, momentum):
    """irfft(rfft(values) * (ip)^a) times phase for each signal of a tuple, with the images
    handled: a tuple of results, one per signal, each bitwise the call on it alone.

    forward's e^{-ip x_min} and inverse's e^{+ip x_min} cancel here, as do
    their dx and sqrt(2 pi) factors.  The real and the imaginary part of
    the samples go through real transforms on their own (the imaginary one
    only where it is non-zero), so a real signal costs one rfft and one
    irfft and its derivative comes back exactly real.  Both use (ip)^a on
    the bins p = k*dp, k = 0..n/2; irfft keeps the real part of the Nyquist
    bin, which splits that bin evenly between +-pi/dx.  The phase is 1 for
    D^a and, where momentum, e^{-i*pi*a/2} for P_a, since p^a = i^(-a) (ip)^a
    on every bin.  The half-spectra, after the noise floor, are the signal's own
    (_half_spectra), so further orders on one signal take no rfft.
    A further order b of a corrected result of order a is taken from its record's
    source, the signal it was computed from, at order a + b with the two phases
    multiplied: (ip)^a (ip)^b = (ip)^(a+b) on the principal branch, so
    D^b D^a f = D^(a+b) f, its gates and moment count those of order a + b.

    The signals share one grid.  Each order that they resolve to takes one
    _ImageTable, which its records keep, with one zeta table (see _image_sum).
    A first pass gates each signal's symbol and makes its record, a second forms
    the symbol, takes the transforms and subtracts the record's image sum from
    the result in place; the record's values, read later, take the same table.  The
    symbol is formed per signal: one shared by the signals of an order would stay alive
    across the first one's transforms, and a 64 KB buffer more at n = 8192 cost more in
    page faults than the symbol.  The caller gates the order.  Raises OrderTooLarge,
    before any transform, where |p|^a overflows at the Nyquist bin (its one test), and
    after, where a transform or a product overflows (samples near the float range): on
    several signals, the first failure of the first pass, else of the second.
    """
    if alpha == 0:
        return signals
    grid = signals[0].grid
    phase = _phase(cmath.exp, -0.5j, alpha) if momentum else 1.0
    tables, passes, results = {}, [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for signal in signals:
            order, signal_phase = alpha, phase
            if signal.images is not None:
                order += signal.images.order
                signal, first = signal.images._source
                signal_phase = first * phase
            _require_power(order, grid.n // 2 * grid.dp)     # at the Nyquist bin
            images, warning = _images(signal, order, signal_phase, tables)
            passes.append((signal, order, signal_phase, images, warning))
    for signal, order, signal_phase, images, warning in passes:
        with _overflow_is_too_large(f"the engine's transform overflows double precision at "
                                    f"order {order:g}", signal.values):
            symbol = _half_symbol(order, grid)
            spectra = _half_spectra(signal)
            # the kept spectra stay as they are: the last product goes into the
            # symbol's buffer, any other into a fresh one
            products = [c * symbol for c in spectra[:-1]]
            products.append(np.multiply(spectra[-1], symbol, out=symbol))
            del symbol
            # One complex buffer holds the result, and the phase and the images are
            # applied in place: on large grids, n-point temporaries left the heap
            # in a state that depended on the order of earlier calls.
            out = np.empty(grid.n, dtype=complex)
            out.real = np.fft.irfft(products[0], grid.n)
            out.imag = np.fft.irfft(products[1], grid.n) if len(products) == 2 else 0.0
            del products
            if signal_phase != 1.0:
                # phase first: numpy rounds phase * out and out * phase differently
                np.multiply(signal_phase, out, out=out)
            if images is not None:
                _subtract_images(out, images)
            results.append(SampledSignal._adopt(grid, out, warning, images))
    return tuple(results)


def fractional_derivative(signal, alpha):
    """Derivative of real order alpha >= 0 via the (ip)^a multiplier.

    alpha = 0 returns the signal unchanged; integer alpha reproduces
    ordinary derivatives.  For non-integer alpha on a signal whose
    boundary_decay is 0 or below DECAY_THRESHOLD times max|f| the
    wrap-around images are subtracted and the result is the derivative on
    the line; it records them in its `images` attribute (an ImageCorrection,
    which keeps the signal they were computed from), so a further
    fractional_derivative or fractional_momentum of it is that signal's at the
    combined order.  The periodic value is d.values + d.images.values.  On a
    signal that does not decay the result is periodic and carries a warning.
    """
    return _apply_multiplier((signal,), require_order(alpha), False)[0]


def fractional_momentum(signal, alpha):
    """Fractional momentum operator: the p^a multiplier; order 1 is -i d/dx.

    Images, warning and chaining as in fractional_derivative; the images
    of P_a carry the phase e^{-i*a*pi/2} of p^a = (ip)^a / i^a.
    """
    return _apply_multiplier((signal,), require_order(alpha), True)[0]


def order_continuity_gap(signal, n, k):
    """Sup distance, central half, between orders n + 1/k and n.

    As k grows this measures the continuity of the order parameter at the
    integer n; for signals that decay at the box edge it shrinks like 1/k,
    at n = 0 too, since the engine subtracts the wrap-around images.  (On a
    periodic result it stalls at n = 0: there the images sum to about
    -mu_0/P, the mean that the p = 0 bin deletes for every order above 0.)
    """
    n = require_order(n)
    k = specfun.require_real("k", k, least=1.0)
    d_frac = fractional_derivative(signal, n + 1.0 / k)
    d_int = fractional_derivative(signal, n)
    return central_gap(d_frac.values, d_int.values)


def _require_member(name, value, kind):
    """value, where it is a member of the enum kind: else ArgumentOutOfRange naming them."""
    if not isinstance(value, kind):
        members = " or ".join(f"{kind.__name__}.{m.name}" for m in kind)
        raise ArgumentOutOfRange(f"{name} must be {members}, got {value!r}")
    return value


@np.errstate(over="ignore", invalid="ignore")   # a sum past the float range raises below
def inner(u, v, pairing):
    """The discrete pairing sum u_j v_j dx of two signals on one grid, of spacing dx;
    SESQUILINEAR conjugates u.

    Raises GridMismatch where the grids differ, ArgumentOutOfRange where pairing is
    not a Pairing, and OrderTooLarge where the sum overflows double precision.
    """
    dx = require_same_grid(u, v).dx
    u, v = u.values, v.values
    if _require_member("pairing", pairing, Pairing) is Pairing.SESQUILINEAR:
        u = np.conj(u)
    total = complex(np.sum(u * v) * dx)
    if not cmath.isfinite(total):
        raise _too_large("the pairing sum overflows double precision", u, v)
    return total


def duality_residual(f, g, alpha, pairing, minus_one_branch):
    """Residual of moving a fractional derivative across a pairing.

    Returns <D^a f, g> - (-1)^a <f, D^a g> with the selected pairing
    (sesquilinear conjugates the first slot) and the selected continuation
    of (-1)^a.  Exact (to rounding) for integer alpha; for fractional alpha
    no branch/pairing combination vanishes -- callers treat the four
    combinations as a diagnostic table.  A pairing that is not a Pairing, or a
    branch that is not a MinusOneBranch, raises ArgumentOutOfRange first.
    """
    require_same_grid(f, g)
    alpha = require_order(alpha)
    _require_member("pairing", pairing, Pairing)
    _require_member("minus_one_branch", minus_one_branch, MinusOneBranch)
    df = fractional_derivative(f, alpha)
    dg = fractional_derivative(g, alpha)
    phase = _phase(np.exp, 1j if minus_one_branch is MinusOneBranch.E_PLUS_I_PI else -1j, alpha)
    return inner(df, g, pairing) - phase * inner(f, dg, pairing)


def pairing_continuity_gap(psi, f, h, alpha, n):
    """|<psi, D^a (f + h/n)> - <psi, D^a f>| under the sesquilinear pairing.

    Linearity makes this exactly |<psi, D^a h>| / n, so it must scale as
    1/n -- the discrete face of sequential continuity of the dual pairing.
    """
    grid = require_same_grid(psi, f, h)
    n = specfun.require_real("n", n, least=1.0)
    f_n = SampledSignal(grid, f.values + h.values / n)
    a = inner(psi, fractional_derivative(f_n, alpha), Pairing.SESQUILINEAR)
    b = inner(psi, fractional_derivative(f, alpha), Pairing.SESQUILINEAR)
    return abs(a - b)


def product_rule(f, g, alpha):
    """Fractional derivative of a pointwise product via the double frequency sum.

    Evaluates the double Riemann sum over both frequency grids,

        D^a(fg)(x) = (1/2pi) sum_s sum_q e^{i(s+q)x} ghat(s) fhat(q) (i(s+q))^a dq ds,

    by a route of its own, not the engine's multiplier.  Grouping the terms
    by u = s+q is an exact rearrangement: the inner sums are the linear
    convolution of the two spectra, taken through zero-padded FFTs of length 2n,
    and the symbol is applied at each of the 2n-1 sums u_m = (m-n)*dp, finite on
    every Grid, after the engine's noise floor.  The spectra are plain FFTs (the
    grid-offset phases e^{-ip x_min} cancel; the scale is 1/n).  Since
    dx*dp = 2pi/n, e^{i j dx u_m} has period n in m, so the 2n-1 terms fold into
    n bins and one inverse FFT gives every sample; the cost is O(n log n).  The sum is
    periodic in x like the engine, so where the product decays at the box edge
    the same wrap-around images are subtracted, from the moments of f*g, and the
    result matches fractional_derivative of the product, its wrap-around warning
    included.
    A corrected result's record keeps f*g as its source: a further order is f*g's.
    """
    grid = require_same_grid(f, g)
    alpha = require_order(alpha)
    n = grid.n
    symbol = _branch_power(alpha, (np.arange(2 * n - 1) - n) * grid.dp, False)    # at u_m
    with _overflow_is_too_large(f"the product rule overflows double precision at order "
                                f"{alpha:g}", f.values, g.values):
        fg = SampledSignal._adopt(grid, f.values * g.values)
        images, warning = _images(fg, alpha, 1.0, {})
        fs, gs = (np.fft.fft(np.fft.fftshift(np.fft.fft(s.values)), 2 * n) for s in (f, g))
        # after the shift both spectra start at p = -(n/2)*dp, so index m of
        # their convolution holds the sum over s+q = u_m
        conv = np.fft.ifft(gs * fs)[:2 * n - 1]
        # the FFT convolution leaves roundoff of the largest sum in every bin,
        # which the symbol would amplify by |u|^a: the engine's floor applies
        zero_noise(conv)
        terms = symbol * conv
        terms[:n - 1] += terms[n:]
        values = np.fft.ifft(terms[:n]) / n
        if images is not None:
            _subtract_images(values, images)
        return SampledSignal._adopt(grid, values, warning, images)
