"""Uniform periodic grids, their frequency duals, and sampled signals.

Everything downstream works on a uniform grid x_j = x_min + j*dx with the
right endpoint excluded (periodic identification).  The matching frequency
grid follows the standard FFT layout with the Nyquist bin assigned to the
negative side, so the frequency set is symmetric except for that one bin.
"""
import contextlib
import math
import sys

import numpy as np

from .specfun import ArgumentOutOfRange, require_count, require_real


class NonPowerOfTwo(ValueError):
    pass


class DegenerateInterval(ValueError):
    pass


class EvaluationFailure(ValueError):
    pass


class GridMismatch(ValueError):
    pass


#: CSV schema used by the CLI for signal data: one row per sample.
CSV_HEADER = "x,re,im"

# Fraction of samples counted as "boundary" when measuring decay; split
# between the two ends (2.5% per end).
_BOUNDARY_FRACTION = 0.05


def _readonly(a):
    a.setflags(write=False)
    return a


class Grid:
    """Uniform grid on [x_min, x_max) with n samples, n a power of two.

    Attributes
    ----------
    x : ndarray
        Sample positions x_j = x_min + j*dx, j = 0..n-1.
    p : ndarray
        Dual frequencies in FFT order: 2*pi*k/(n*dx) for k = 0..n/2-1,
        then the negative half; the Nyquist bin sits at -pi/dx.
    dp : float
        Frequency spacing 2*pi/(n*dx), > 0 with n*dp = 2*pi/dx finite (dx >= 3.5e-308,
        else DegenerateInterval): p and every sum (m - n)*dp, |m - n| <= n, are finite.
    """

    __slots__ = ("x_min", "x_max", "n", "dx", "dp", "x", "p")

    def __init__(self, x_min, x_max, n):
        x_min = require_real("x_min", x_min, DegenerateInterval)
        x_max = require_real("x_max", x_max, DegenerateInterval)
        n = require_count("n", n, NonPowerOfTwo)
        if not x_max > x_min:
            raise DegenerateInterval(f"need x_max > x_min, got ({x_min}, {x_max})")
        if n < 8 or n & (n - 1):
            raise NonPowerOfTwo(f"n must be a power of two >= 8, got {n}")
        if n * 8 > sys.maxsize:
            raise NonPowerOfTwo(f"n = {n} samples of 8 bytes exceed sys.maxsize bytes")
        self.x_min = x_min
        self.x_max = x_max
        self.n = n
        # a width past the float range gives dx = inf and dp = 0; one too
        # narrow for n samples gives dx = 0, or a largest frequency sum n dp of inf
        self.dx = (x_max - x_min) / n
        self.dp = 2 * np.pi / (n * self.dx) if self.dx else math.inf
        if not 0 < n * self.dp < math.inf:
            raise DegenerateInterval(f"({x_min}, {x_max}) with n = {n} has spacing "
                                     f"dx = {self.dx!r} and dp = {self.dp!r}: need dp > 0 and "
                                     f"n dp = 2 pi/dx finite (dx >= 3.5e-308)")
        self.x = _readonly(x_min + self.dx * np.arange(n))
        if not (self.x[1:] > self.x[:-1]).all():
            raise DegenerateInterval(f"({x_min}, {x_max}) is too narrow for n = {n}: "
                                     f"its samples do not increase in double precision")
        self.p = _readonly(2 * np.pi * np.fft.fftfreq(n, self.dx))

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return (self.x_min, self.x_max, self.n) == (other.x_min, other.x_max, other.n)

    def __hash__(self):
        return hash((self.x_min, self.x_max, self.n))

    def __repr__(self):
        return f"Grid({self.x_min}, {self.x_max}, n={self.n})"


def make_grid(x_min, x_max, n):
    """Build a uniform periodic grid; n must be a power of two, 8 <= n <= sys.maxsize // 8."""
    return Grid(x_min, x_max, n)


def central_window(n):
    """Index slice selecting the central half of an n-point grid.

    Accuracy statements for fractional orders are made on this window.  The
    engine subtracts the wrap-around images of a decaying signal's algebraic
    tail, so the window no longer has to absorb them; it stays the place
    where identities that multiply by x are compared, since x grows towards
    the box edge.  A count below 4 raises ArgumentOutOfRange.
    """
    q = require_count("n", n) // 4
    if q < 1:
        raise ArgumentOutOfRange(f"n must be >= 4, got {n}")
    return slice(q, 3 * q)


def central_gap(u, v):
    """Sup |u - v| over the central half (central_window) of two sample arrays."""
    w = central_window(len(u))
    return float(np.abs(u[w] - v[w]).max())


def _own_samples(values, points, name, axis):
    """values as their own read-only complex copy, one finite value per point (x or p).

    The one gate of sampled data: GridMismatch, naming both shapes, for the
    wrong shape, else EvaluationFailure, naming the point, for a value that is
    not a finite double, and EvaluationFailure for text or a nested array,
    which a complex cast would parse.
    """
    values = np.asarray(values)
    if values.dtype.kind not in "biufcO" or values.dtype.kind == "O" and any(
            isinstance(v, (str, bytes, np.ndarray)) for v in values.flat):
        raise EvaluationFailure(f"{name} must be numbers, not text or nested arrays "
                                f"({values.dtype})")
    try:
        values = np.array(values, dtype=complex)
    except OverflowError:
        raise EvaluationFailure(f"{name} hold an int past the float range") from None
    return _finite_samples(values, points, name, axis)


def _finite_samples(values, points, name, axis):
    """A complex array made read-only, after the shape and finite tests of _own_samples.

    Called alone for an array that its caller has just allocated and holds
    no other reference to, so the gate needs no copy.
    """
    if values.shape != points.shape:
        raise GridMismatch(f"{name} shape {values.shape} != {points.shape}")
    if not np.isfinite(values.view(float)).all():
        raise EvaluationFailure(f"non-finite value at {axis}="
                                f"{points[np.argmin(np.isfinite(values))].item()!r}")
    return _readonly(values)


class SampledSignal:
    """Complex samples on a Grid, with boundary-decay metadata.

    boundary_decay is the max |value| over the outer 5% of samples (split
    between the two ends), recomputed on construction.  Operations that
    assume rapid decay (fractional orders, multiplication by x) test it
    against max|f| (spectral._route) rather than silently wrapping around.

    An engine result of non-integer order on a decaying signal holds the
    derivative on the line and records in `images` the wrap-around images
    it subtracted (a spectral.ImageCorrection on its grid, which also keeps the
    signal the result was computed from); everything else has None.

    A signal never changes, so what depends on it alone, and not on an
    order, is computed at first use and kept in a private memo for the
    signal's lifetime: the evidence record (spectral._evidence), noise-floored
    half-spectra and image moments of the engine, and x times the signal, its
    norm and its spread (quantum).  A copy or a pickle carries no memo.
    """

    __slots__ = ("grid", "values", "boundary_decay", "warning", "images", "_memo")

    def __init__(self, grid, values):
        self._fill(grid, _own_samples(values, grid.x, "values", "x"))

    @classmethod
    def _adopt(cls, grid, values, warning=None, images=None):
        """The signal of a complex array that its caller has just allocated and holds
        no other reference to: the constructor's gate and messages, without its copy."""
        signal = cls.__new__(cls)
        signal._fill(grid, _finite_samples(values, grid.x, "values", "x"), warning, images)
        return signal

    def _fill(self, grid, values, warning=None, images=None):
        self.grid = grid
        self.values = values
        m = max(1, int(round(0.5 * _BOUNDARY_FRACTION * grid.n)))
        self.boundary_decay = float(max(np.abs(values[:m]).max(), np.abs(values[-m:]).max()))
        self.warning = warning
        self.images = images
        self._memo = {}

    def __reduce__(self):
        # through _adopt on a copy, so a copy or an unpickled signal starts with an empty memo
        return SampledSignal._adopt, (self.grid, self.values.copy(), self.warning, self.images)

    def __repr__(self):
        return (f"SampledSignal(n={self.grid.n}, "
                f"boundary_decay={self.boundary_decay:.3e})")


class Spectrum:
    """Transform coefficients on the frequency grid of a Grid (FFT order)."""

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid, coeffs):
        self.grid = grid
        self.coeffs = _own_samples(coeffs, grid.p, "coeffs", "p")

    def __repr__(self):
        return f"Spectrum(n={self.grid.n})"


def require_same_grid(*signals):
    """The grid all the signals share, else GridMismatch naming two that differ."""
    for other in signals:
        if other.grid != signals[0].grid:
            raise GridMismatch(f"{signals[0].grid} vs {other.grid}")
    return signals[0].grid


def _evaluate(f, points, axis):
    """f at the points, as a complex array of its own: one call on the array where f
    maps it to one of its shape, else one call per point, with EvaluationFailure
    naming the point of a failing call.  An array that f returns is copied, never
    taken over, so f's caller may go on writing to it.
    """
    with contextlib.suppress(Exception):
        values = np.array(f(points), dtype=complex)
        if values.shape == points.shape:
            return values
    values = np.empty(points.shape, dtype=complex)
    for j, point in enumerate(points):
        try:
            values[j] = complex(f(point))
        except Exception as exc:
            raise EvaluationFailure(f"evaluation failed at {axis}={point.item()!r}: {exc}") from exc
    return values


def sample(f, grid):
    """Sample the callable f on the grid; f may be vectorized or scalar.

    Raises EvaluationFailure naming the offending x if f fails or returns
    a non-finite value there.
    """
    return SampledSignal._adopt(grid, _evaluate(f, grid.x, "x"))
