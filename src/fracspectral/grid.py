"""Uniform periodic grids, their frequency duals, and sampled signals.

Everything downstream works on a uniform grid x_j = x_min + j*dx with the
right endpoint excluded (periodic identification).  The matching frequency
grid follows the standard FFT layout with the Nyquist bin assigned to the
negative side, so the frequency set is symmetric except for that one bin.
"""
import numpy as np

from .specfun import require_count


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
        Frequency spacing 2*pi/(n*dx).
    """

    __slots__ = ("x_min", "x_max", "n", "dx", "dp", "x", "p")

    def __init__(self, x_min, x_max, n):
        try:
            x_min, x_max = float(x_min), float(x_max)
        except OverflowError:
            raise DegenerateInterval("need finite bounds, got one past the float range") from None
        n = require_count("n", n, NonPowerOfTwo)
        if not (np.isfinite(x_min) and np.isfinite(x_max)):
            raise DegenerateInterval(f"need finite bounds, got ({x_min}, {x_max})")
        if not x_max > x_min:
            raise DegenerateInterval(f"need x_max > x_min, got ({x_min}, {x_max})")
        if n < 8 or n & (n - 1):
            raise NonPowerOfTwo(f"n must be a power of two >= 8, got {n}")
        self.x_min = x_min
        self.x_max = x_max
        self.n = n
        self.dx = (x_max - x_min) / n
        self.dp = 2 * np.pi / (n * self.dx)
        self.x = _readonly(x_min + self.dx * np.arange(n))
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
    """Build a uniform periodic grid; n must be a power of two, n >= 8."""
    return Grid(x_min, x_max, n)


def central_window(n):
    """Index slice selecting the central half of an n-point grid.

    Accuracy statements for fractional orders are made on this window.  The
    engine subtracts the wrap-around images of a decaying signal's algebraic
    tail, so the window no longer has to absorb them; it stays the place
    where identities that multiply by x are compared, since x grows towards
    the box edge.
    """
    q = require_count("n", n) // 4
    return slice(q, 3 * q)


def central_gap(u, v):
    """Sup |u - v| over the central half (central_window) of two sample arrays."""
    w = central_window(len(u))
    return float(np.max(np.abs(u[w] - v[w])))


def _boundary_decay(values, n):
    m = max(1, int(round(0.5 * _BOUNDARY_FRACTION * n)))
    return float(max(np.max(np.abs(values[:m])), np.max(np.abs(values[-m:]))))


class SampledSignal:
    """Complex samples on a Grid, with boundary-decay metadata.

    boundary_decay is the max |value| over the outer 5% of samples (split
    between the two ends), recomputed on construction.  Operations that
    assume rapid decay (fractional orders, multiplication by x) check it
    rather than silently wrapping around.

    An engine result of non-integer order on a decaying signal holds the
    derivative on the line and records in `images` the wrap-around images
    it subtracted (a spectral.ImageCorrection); everything else has None.
    """

    __slots__ = ("grid", "values", "boundary_decay", "warning", "images")

    def __init__(self, grid, values, warning=None, images=None):
        values = np.array(values, dtype=complex)
        if values.shape != (grid.n,):
            raise ValueError(f"values shape {values.shape} != ({grid.n},)")
        self.grid = grid
        self.values = _readonly(values)
        self.boundary_decay = _boundary_decay(values, grid.n)
        self.warning = warning
        self.images = images

    def __repr__(self):
        return (f"SampledSignal(n={self.grid.n}, "
                f"boundary_decay={self.boundary_decay:.3e})")


class Spectrum:
    """Transform coefficients on the frequency grid of a Grid (FFT order)."""

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid, coeffs):
        coeffs = np.array(coeffs, dtype=complex)
        if coeffs.shape != (grid.n,):
            raise ValueError(f"coeffs shape {coeffs.shape} != ({grid.n},)")
        self.grid = grid
        self.coeffs = _readonly(coeffs)

    def __repr__(self):
        return f"Spectrum(n={self.grid.n})"


def sample(f, grid):
    """Sample the callable f on the grid; f may be vectorized or scalar.

    Raises EvaluationFailure naming the offending x if f fails or returns
    a non-finite value there.
    """
    try:
        values = np.asarray(f(grid.x), dtype=complex)
        if values.shape != (grid.n,):
            raise TypeError("not vectorized")
    except EvaluationFailure:
        raise
    except Exception:
        values = np.empty(grid.n, dtype=complex)
        for j, xj in enumerate(grid.x):
            try:
                values[j] = complex(f(xj))
            except Exception as exc:
                raise EvaluationFailure(f"evaluation failed at x={xj!r}: {exc}") from exc
    bad = ~np.isfinite(values)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise EvaluationFailure(f"non-finite value at x={grid.x[j]!r}")
    return SampledSignal(grid, values)
