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
non-zero), so D^a of a real signal is exactly real.  The Nyquist bin is
split evenly between p = +-pi/dx, where the grid's frequency layout puts
it at -pi/dx alone: D^1 of the on-grid cosine cos(pi x/dx) is 0, to
roundoff, at the samples.  P_a is e^{-i*a*pi/2} D^a, which is exact since
p^a = i^(-a) (ip)^a on every bin.  Coefficients below NOISE_FLOOR times
the largest coefficient of either part are zeroed first.

With this branch D^a is the left-sided (Liouville) derivative on the real
line.  For non-integer a, D^a f has a one-sided tail to the right of f that
falls off only like x^(-1-a)/Gamma(-a), and by Poisson summation a multiplier
on a periodic grid returns the periodisation sum_m g(x + m*P) of g = D^a f,
P = x_max - x_min.  When the signal decays at the box edge (boundary_decay
below DECAY_THRESHOLD) the engine subtracts the images m >= 1 in closed form
from the moments of the signal (see ImageCorrection) and so returns the
derivative on the line.  Signals that do not decay, such as on-grid plane
waves, are treated as periodic and a non-integer order attaches a warning.
"""
import cmath
import enum
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import specfun
from .grid import GridMismatch, SampledSignal, Spectrum, central_gap
from .specfun import OrderTooLarge

SQRT_2PI = float(np.sqrt(2.0 * np.pi))

#: Signals whose boundary_decay is below this count as decaying: a
#: non-integer order then subtracts the wrap-around images.  Above it the
#: result stays periodic and carries a wrap-around warning.  The operator
#: layer refuses multiplication by x above it.
DECAY_THRESHOLD = 1e-10

#: Transform coefficients below this fraction of the largest one are set to
#: zero by zero_noise before a multiplier of positive order is applied.  At
#: double precision such bins hold FFT roundoff rather than signal, and a
#: high order would amplify them by p_max^a (about 5e16 at order 5.2 with
#: n = 2^15 on (-32, 32)).
NOISE_FLOOR = 1e-15

# Image correction.  Moments are taken over the samples above
# _SUPPORT_FLOOR * max|f| and added until two in a row bound an image term
# below _MOMENT_TOL * max|f| (or _MAX_MOMENTS is reached).  The image sum is
# evaluated by a Taylor series of _IMAGE_TAYLOR terms about the centre of
# each of _IMAGE_BLOCKS equal blocks of the grid: every ratio |offset| /
# centre stays below 1/129, and each zeta(s, q) term agrees with a direct
# evaluation to 1.3e-15 relative for s up to 32.
_SUPPORT_FLOOR = 1e-20
_MOMENT_TOL = 1e-17
_MAX_MOMENTS = 40
_MOMENT_CHUNK = 8
_IMAGE_BLOCKS = 128
_IMAGE_TAYLOR = 12
# Beyond this order Gamma(-a) underflows (and |p|^a overflows on any grid).
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
    """The order as a float: NegativeAlpha unless it is finite and >= 0.

    An int past the float range raises OrderTooLarge, or NegativeAlpha if
    it is negative.
    """
    try:
        value = float(alpha)
    except OverflowError:
        if alpha < 0:
            raise NegativeAlpha("alpha must be finite and >= 0, got a negative int "
                                "past the float range") from None
        raise OrderTooLarge("the order is past the float range: the order is too large") from None
    if not (math.isfinite(value) and value >= 0):
        raise NegativeAlpha(f"alpha must be finite and >= 0, got {value}")
    return value


def zero_noise(*coeffs):
    """Zero, in place, every bin below NOISE_FLOOR times the largest |c| of all the arrays."""
    mags = [np.abs(c) for c in coeffs]
    floor = NOISE_FLOOR * max(float(m.max()) for m in mags)
    for c, m in zip(coeffs, mags):
        c[m < floor] = 0.0


def _abs_power(alpha, p):
    """|p|^alpha on a float array; OrderTooLarge, before the power, where its largest overflows."""
    modulus = np.abs(p)
    p_max = float(np.max(modulus, initial=0.0))
    if alpha * math.log(max(p_max, 1.0)) > _LOG_DBL_MAX:
        raise OrderTooLarge(f"|p|^{alpha:g} overflows double precision at "
                            f"|p| = {p_max:.6g}: the order is too large for this grid")
    modulus **= alpha
    return modulus


def ip_power(alpha, p):
    """Multiplier (ip)^a on an array of frequencies, branch as above."""
    require_order(alpha)
    p = specfun.require_reals("p", p)
    if alpha == 0:
        return np.ones_like(p, dtype=complex)
    half_turn = cmath.exp(0.5j * np.pi * alpha)
    return _abs_power(alpha, p) * np.where(p < 0, half_turn.conjugate(), half_turn)


def p_power(alpha, p):
    """Momentum symbol p^a = (ip)^a / i^a; real on p > 0, e^{-i*a*pi} phase on p < 0."""
    require_order(alpha)
    p = specfun.require_reals("p", p)
    if alpha == 0:
        return np.ones_like(p, dtype=complex)
    phase = np.where(p < 0, np.exp(-1j * np.pi * alpha), 1.0 + 0.0j)
    return _abs_power(alpha, p) * phase


def forward(signal):
    """Transform samples to frequency coefficients.

    coeffs[k] = (dx/sqrt(2*pi)) * sum_j e^{-i p_k x_j} values[j], done with
    an FFT plus the e^{-i p_k x_min} phase for the grid offset.
    """
    g = signal.grid
    coeffs = (g.dx / SQRT_2PI) * np.exp(-1j * g.p * g.x_min) * np.fft.fft(signal.values)
    return Spectrum(g, coeffs)


def inverse(spectrum):
    """Inverse transform; inverse(forward(s)) == s to machine precision."""
    g = spectrum.grid
    values = (SQRT_2PI / g.dx) * np.fft.ifft(spectrum.coeffs * np.exp(1j * g.p * g.x_min))
    return SampledSignal(g, values)


@dataclass(frozen=True, eq=False)
class ImageCorrection:
    """The wrap-around images subtracted from an engine result.

    For x to the right of a signal f centred in the box, the line derivative
    g = D^a f is (Samko-Kilbas-Marichev 1993, section 7)

        g(x) = 1/Gamma(-a) * sum_j mu_j (1+a)_j / j! * (x - c)^(-1-a-j),

    with mu_j = sum_k (x_k - c)^j f_k dx the moments of f about the box
    centre c.  Summing the images g(x + m*P), m >= 1, over the box gives

        P^(-1-a)/Gamma(-a) * sum_j nu_j (1+a)_j/j! * zeta(1+a+j, 1 + (x-c)/P),

    nu_j = mu_j / P^j, zeta the Hurwitz zeta function.  Images m <= -1 fall
    to the left of f, where g decays like f itself.  A P_a result is
    e^{-i*pi*a/2} D^a f, so its images carry that phase.

    order   total order of the multiplier chain the result represents
    phase   product of the momentum phases e^{-i*pi*b/2} along that chain
    moments nu_0, nu_1, ... of the signal the chain started from

    A further multiplier adds the images back (restoring the periodic
    value), applies its symbol and subtracts the images of the combined
    order, so D^b(D^a f) = D^(a+b) f holds on corrected results.
    """
    order: float
    phase: complex
    moments: np.ndarray

    def values(self, grid):
        """The image sum on the grid's sample points."""
        period = grid.x_max - grid.x_min
        scale = self.phase * period ** (-1.0 - self.order) / specfun.gamma(-self.order)
        return _image_sum(grid.n, self.order, scale * self.moments)


@functools.lru_cache(maxsize=8)
def _taylor_blocks(n):
    """Block centres q_b and the Taylor factors (-h)^r / r! of each block's points.

    The grid point i sits at q = 1/2 + i/n, so every block has the same
    offsets h from its centre and the factors form one (R, L) table.
    """
    blocks = min(n, _IMAGE_BLOCKS)
    size = n // blocks
    h = (np.arange(size) - 0.5 * (size - 1)) / n
    r = np.arange(1, _IMAGE_TAYLOR)
    factors = np.cumprod(np.vstack([np.ones(size), -h / r[:, None]]), axis=0)
    centres = 0.5 + (np.arange(blocks) * size + 0.5 * (size - 1)) / n
    centres.setflags(write=False)
    factors.setflags(write=False)
    return centres, factors


def _image_sum(n, order, coeffs):
    """sum_j coeffs_j (1+a)_j/j! zeta(1+a+j, q) at q = 1/2 + i/n, i = 0..n-1.

    Each block uses zeta(s, q_b + h) = sum_r (-h)^r (s)_r / r! zeta(s+r, q_b),
    so zeta is evaluated at the block centres only.
    """
    centres, factors = _taylor_blocks(n)
    n_mom, n_taylor = len(coeffs), len(factors)
    s = 1.0 + order + np.arange(n_mom + n_taylor)
    zeta = specfun.hurwitz_zeta(s, centres[:, None])                 # (B, J+R)
    j = np.arange(1, n_mom)
    weights = coeffs * np.concatenate(([1.0], np.cumprod((order + j) / j)))
    rising = np.cumprod(np.hstack([np.ones((n_mom, 1)),
                                   s[:n_mom, None] + np.arange(n_taylor - 1)]), axis=1)
    shift = np.arange(n_mom)[:, None] + np.arange(n_taylor)           # (J, R)
    taylor = np.einsum("jr,bjr->br", weights[:, None] * rising, zeta[:, shift])
    # einsum, not matmul: with two OpenBLAS threads on a 2-vCPU machine a
    # product of this shape took 12-14 ms between FFTs, 0.1 ms on one thread
    parts = np.einsum("br,ri->bi", np.vstack([taylor.real, taylor.imag]), factors)
    out = np.empty(n, dtype=complex)
    out.real = parts[:len(centres)].ravel()
    out.imag = parts[len(centres):].ravel()
    return out


def _moments(values, grid, order):
    """Scaled moments nu_j of the samples about the box centre, as many as order needs.

    Moments are taken _MOMENT_CHUNK at a time over the support of the
    samples; the bound of each image term decides where to stop.
    """
    mag = np.abs(values)
    top = float(mag.max())
    above = mag > _SUPPORT_FLOOR * top
    lo = int(above.argmax())
    hi = grid.n - int(above[::-1].argmax())
    period = grid.x_max - grid.x_min
    t = (grid.x[lo:hi] - 0.5 * (grid.x_min + grid.x_max)) / period
    pairs = values[lo:hi].view(float).reshape(-1, 2)
    scale = period ** (-1.0 - order) / abs(specfun.gamma(-order))
    limit = _MOMENT_TOL * top
    powers = np.empty((_MOMENT_CHUNK, hi - lo))
    powers[0] = grid.dx
    moments = []
    rising = 1.0                 # (1+a)_j / j!
    quiet = 0
    while len(moments) < _MAX_MOMENTS:
        for k in range(1, _MOMENT_CHUNK):
            np.multiply(powers[k - 1], t, out=powers[k])
        for re, im in powers @ pairs:
            j = len(moments)
            moments.append(complex(re, im))
            s = 1.0 + order + j
            # zeta(s, q) <= zeta(s, 1/2) <= 2^s + 1/(s-1) on the box
            bound = scale * rising * abs(moments[-1]) * (2.0 ** s + 1.0 / (s - 1.0))
            quiet = quiet + 1 if bound < limit else 0
            if quiet == 2:
                return np.array(moments)
            rising *= (order + j + 1) / (j + 1)
        np.multiply(powers[-1], t, out=powers[0])
    return np.array(moments)


def _has_images(order):
    """An integer order leaves no tail, so no images; see also _MAX_IMAGE_ORDER."""
    return order != int(order) and order <= _MAX_IMAGE_ORDER


def _fresh_images(signal, alpha, phase):
    """(images, warning) for differentiating a plain signal: the one decay decision.

    A signal that decays at the box edge gets an image record where the
    order leaves a tail.  One that does not stays periodic, and a
    non-integer order gets a warning that names it.
    """
    if signal.boundary_decay < DECAY_THRESHOLD:
        if not _has_images(alpha):
            return None, None
        return ImageCorrection(alpha, phase, _moments(signal.values, signal.grid, alpha)), None
    if alpha == int(alpha):
        return None, None
    return None, (f"boundary decay {signal.boundary_decay:.3e} above threshold "
                  f"{DECAY_THRESHOLD:.1e}; wrap-around may contaminate order {alpha:g}")


def _apply_multiplier(signal, alpha, phase):
    """irfft(rfft(values) * (ip)^a) times phase, with the images handled.

    forward's e^{-ip x_min} and inverse's e^{+ip x_min} cancel here, as do
    their dx and sqrt(2 pi) factors.  The real and the imaginary part of
    the samples go through real transforms on their own (the imaginary one
    only where it is non-zero), so a real signal costs one rfft and one
    irfft and its derivative comes back exactly real.  Both use (ip)^a on
    the bins p = k*dp, k = 0..n/2; irfft keeps the real part of the Nyquist
    bin, which splits that bin evenly between +-pi/dx.  The phase is 1 for
    D^a and e^{-i*pi*a/2} for P_a, since p^a = i^(-a) (ip)^a on every
    bin.  Bins of either part below the noise floor, taken against the
    largest coefficient of both, are zeroed before the symbol is applied.
    Raises OrderTooLarge, before any transform, where |p|^a overflows at the Nyquist bin.
    """
    require_order(alpha)
    if alpha == 0:
        return signal
    g = signal.grid
    # (ip)^a on the bins p = k*dp >= 0 is p^a e^{i*pi*a/2}
    half_turn = cmath.exp(0.5j * math.pi * alpha)
    symbol = _abs_power(alpha, np.arange(g.n // 2 + 1) * g.dp) * half_turn
    source = signal.images
    values = signal.values
    if source is not None:
        # back to the periodic value, which the symbol maps to the periodic result
        values = values + source.values(g)
        images = ImageCorrection(source.order + alpha, source.phase * phase, source.moments)
        warning = None
    else:
        images, warning = _fresh_images(signal, alpha, phase)
    parts = [values.real, values.imag] if values.imag.any() else [values.real]
    spectra = [np.fft.rfft(v) for v in parts]
    del parts, values
    zero_noise(*spectra)
    for c in spectra:
        c *= symbol
    del symbol
    # One complex buffer holds the result, and the phase and the images are
    # applied in place: on large grids, n-point temporaries left the heap
    # in a state that depended on the order of earlier calls.
    out = np.empty(g.n, dtype=complex)
    out.real = np.fft.irfft(spectra[0], g.n)
    out.imag = np.fft.irfft(spectra[1], g.n) if len(spectra) == 2 else 0.0
    del spectra
    if phase != 1.0:
        # phase first: numpy rounds phase * out and out * phase differently
        np.multiply(phase, out, out=out)
    if images is not None and not _has_images(images.order):
        images = None
    if images is not None:
        out -= images.values(g)
    return SampledSignal(g, out, warning=warning, images=images)


def fractional_derivative(signal, alpha):
    """Derivative of real order alpha >= 0 via the (ip)^a multiplier.

    alpha = 0 returns the signal unchanged; integer alpha reproduces
    ordinary derivatives.  For non-integer alpha on a signal whose
    boundary_decay is below DECAY_THRESHOLD the wrap-around images are
    subtracted and the result is the derivative on the line; it records
    them in its `images` attribute (an ImageCorrection), and a further
    fractional_derivative or fractional_momentum of it carries the
    correction on whatever its own decay.  The periodic value is
    d.values + d.images.values(d.grid).  On a signal that does not decay
    the result is the periodic one and carries a warning string.
    """
    return _apply_multiplier(signal, alpha, 1.0)


def fractional_momentum(signal, alpha):
    """Fractional momentum operator: the p^a multiplier; order 1 is -i d/dx.

    Images, warning and chaining as in fractional_derivative; the images
    of P_a carry the phase e^{-i*a*pi/2} of p^a = (ip)^a / i^a.
    """
    alpha = require_order(alpha)
    return _apply_multiplier(signal, alpha, cmath.exp(-0.5j * math.pi * alpha))


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


def inner(u, v, dx, pairing):
    """The discrete pairing sum u_j v_j dx; SESQUILINEAR conjugates u."""
    if pairing is Pairing.SESQUILINEAR:
        return complex(np.sum(np.conj(u) * v) * dx)
    return complex(np.sum(u * v) * dx)


def duality_residual(f, g, alpha, pairing, minus_one_branch):
    """Residual of moving a fractional derivative across a pairing.

    Returns <D^a f, g> - (-1)^a <f, D^a g> with the selected pairing
    (sesquilinear conjugates the first slot) and the selected continuation
    of (-1)^a.  Exact (to rounding) for integer alpha; for fractional alpha
    no branch/pairing combination vanishes -- callers treat the four
    combinations as a diagnostic table.
    """
    if f.grid != g.grid:
        raise GridMismatch(f"{f.grid} vs {g.grid}")
    df = fractional_derivative(f, alpha)
    dg = fractional_derivative(g, alpha)
    if minus_one_branch is MinusOneBranch.E_PLUS_I_PI:
        phase = np.exp(1j * np.pi * alpha)
    else:
        phase = np.exp(-1j * np.pi * alpha)
    dx = f.grid.dx
    return (inner(df.values, g.values, dx, pairing)
            - phase * inner(f.values, dg.values, dx, pairing))


def pairing_continuity_gap(psi, f, h, alpha, n):
    """|<psi, D^a (f + h/n)> - <psi, D^a f>| under the sesquilinear pairing.

    Linearity makes this exactly |<psi, D^a h>| / n, so it must scale as
    1/n -- the discrete face of sequential continuity of the dual pairing.
    """
    if psi.grid != f.grid or f.grid != h.grid:
        raise GridMismatch("psi, f, h must share a grid")
    n = specfun.require_real("n", n, least=1.0)
    f_n = SampledSignal(f.grid, f.values + h.values / n)
    dx = f.grid.dx
    a = inner(psi.values, fractional_derivative(f_n, alpha).values, dx, Pairing.SESQUILINEAR)
    b = inner(psi.values, fractional_derivative(f, alpha).values, dx, Pairing.SESQUILINEAR)
    return abs(a - b)


def product_rule(f, g, alpha):
    """Fractional derivative of a pointwise product via the double frequency sum.

    Evaluates the double Riemann sum over both frequency grids,

        D^a(fg)(x) = (1/2pi) sum_s sum_q e^{i(s+q)x} ghat(s) fhat(q) (i(s+q))^a dq ds,

    by a route of its own, not the engine's multiplier.  Grouping the terms
    by u = s+q is an exact rearrangement: the inner sums are the linear
    convolution of the two spectra, taken through zero-padded FFTs of
    length 2n, and the symbol is applied at each of the 2n-1 sums
    u_m = (m-n)*dp, after the engine's noise floor.  Since dx*dp = 2pi/n,
    e^{i j dx u_m} has period n in m, so the 2n-1 terms fold into n bins
    and one inverse FFT gives every sample; the cost is O(n log n).  The
    sum is periodic in x like the engine, so where the product decays at
    the box edge the same wrap-around images are subtracted, from the
    moments of f*g, and the result matches fractional_derivative of the
    product, its wrap-around warning included.
    """
    if f.grid != g.grid:
        raise GridMismatch(f"{f.grid} vs {g.grid}")
    grid = f.grid
    n = grid.n
    u = (np.arange(2 * n - 1) - n) * grid.dp
    symbol = ip_power(alpha, u)
    fs = np.fft.fft(np.fft.fftshift(forward(f).coeffs), 2 * n)
    gs = np.fft.fft(np.fft.fftshift(forward(g).coeffs), 2 * n)
    # after the shift both spectra start at p = -(n/2)*dp, so index m of
    # their convolution holds the sum over s+q = u_m
    conv = np.fft.ifft(gs * fs)[:2 * n - 1]
    # the FFT convolution leaves roundoff of the largest sum in every bin,
    # which the symbol would amplify by |u|^a: the engine's floor applies
    zero_noise(conv)
    terms = np.exp(1j * grid.x_min * u) * symbol * conv
    terms[:n - 1] += terms[n:]
    values = np.fft.ifft(terms[:n]) * (n * grid.dp * grid.dp / (2 * np.pi))
    images, warning = _fresh_images(SampledSignal(grid, f.values * g.values), alpha, 1.0)
    if images is not None:
        values -= images.values(grid)
    return SampledSignal(grid, values, warning=warning, images=images)
