"""Operator layer: commutators, ladder operators, and the uncertainty bound.

Everything here composes the fractional momentum operator P_a (the p^a
multiplier) with multiplication by x on rapidly decaying states.  The
commutator identities are checked by evaluating both sides independently
through the engine; nothing is algebraically pre-simplified.

Orders strictly between 0 and 1 are rejected for the commutators: with
the p^a branch in use, a*P_{a-1} only makes sense for a = 0 or a >= 1.
"""
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .grid import GridMismatch, SampledSignal, central_gap, make_grid
from .specfun import OrderTooLarge
from .spectral import (DECAY_THRESHOLD, SQRT_2PI, AlphaInForbiddenRange, Pairing,
                       _abs_power, fractional_derivative, fractional_momentum, inner,
                       require_order, zero_noise)

_SQRT_PI = math.sqrt(math.pi)

# Taylor terms of |phi_hat|^2 at p = 0 in the momentum-moment correction.
# For the Gaussian state on (-20, 20) the first term left out (j = 10; odd
# j vanish for an even density) is at most about 1e-15 of a sum.
_NAVOT_TERMS = 9

_NORM_TOL = 1e-10


@functools.cache
def high_res_grid():
    """Default grid of the operator checks and the uncertainty report: (-20, 20), n = 8192.

    The engine subtracts the wrap-around images of decaying states, so the
    commutator identities hold to 1e-12 on this box, and uncertainty_check
    removes the error of the kink of |p|^b at p = 0 from its momentum
    sums, so they need no finer dp.  Built once and cached.
    """
    return make_grid(-20.0, 20.0, 8192)


class InsufficientDecay(ValueError):
    pass


class NotNormalized(ValueError):
    pass


@dataclass(frozen=True)
class UncertaintyReport:
    """Position/momentum spreads for one order, against the analytic bound.

    delta_p_alpha uses the modulus-squared symbol for the second moment
    (<|p^a|^2>), which keeps the spread real.
    """
    alpha: float
    delta_x: float
    delta_p_alpha: float
    product: float
    rhs_bound: float
    satisfied: bool

    def __post_init__(self):
        for name in ("delta_x", "delta_p_alpha", "product", "rhs_bound"):
            specfun.require_real(name, getattr(self, name), least=0.0)


def gaussian_state(grid):
    """The normalized Gaussian state (2/pi)^{1/4} e^{-x^2}: a SampledSignal on the grid."""
    values = (2.0 / np.pi) ** 0.25 * np.exp(-grid.x ** 2)
    return SampledSignal(grid, values)


def _require_normalized(state):
    """The one normalisation gate: NotNormalized unless the discrete L2 norm is 1."""
    norm = float(np.sqrt(np.sum(np.abs(state.values) ** 2) * state.grid.dx))
    if abs(norm - 1.0) > _NORM_TOL:
        raise NotNormalized(f"state norm {norm!r} is not 1 within {_NORM_TOL:.1e}")


def _require_commutator_input(f, alpha):
    require_order(alpha)
    if 0 < alpha < 1:
        raise AlphaInForbiddenRange(
            f"commutator identities are only defined for alpha = 0 or alpha >= 1; "
            f"got {alpha} (the order-lowering term has no meaning below order 1)")
    _require_decay(f)


def _require_decay(signal):
    if not signal.boundary_decay < DECAY_THRESHOLD:     # the engine's test, negated
        raise InsufficientDecay(
            f"boundary decay {signal.boundary_decay:.3e} is not below {DECAY_THRESHOLD:.1e}; "
            f"multiplication by x would wrap around")


def commutator_dx(f, alpha):
    """Both sides of [D^a, x] f = a D^{a-1} f, evaluated independently.

    Returns (lhs, rhs, gap): lhs = D^a(x f) - x D^a f, rhs = a D^{a-1} f,
    gap = sup |lhs - rhs| over the central half.
    """
    _require_commutator_input(f, alpha)
    g = f.grid
    xf = SampledSignal(g, g.x * f.values)
    lhs_vals = fractional_derivative(xf, alpha).values - g.x * fractional_derivative(f, alpha).values
    if alpha == 0:
        rhs_vals = np.zeros(g.n, dtype=complex)
    else:
        rhs_vals = alpha * fractional_derivative(f, alpha - 1).values
    gap = central_gap(lhs_vals, rhs_vals)
    return SampledSignal(g, lhs_vals), SampledSignal(g, rhs_vals), gap


def commutator_ladder(f, alpha):
    """Both sides of [A_a, B_a] f = a P_{a-1} f with A/B = (x +- i P_a)/sqrt(2).

    The composed left side reduces algebraically to -i [x, P_a] f, so this
    also exercises the x/P_a commutation relation.  P_a is applied to each
    term of B f = (x f - i P_a f)/sqrt(2) and A f rather than to the sums:
    x P_a f is a line value with a slow tail that the engine would treat as
    periodic, while P_a(x f) and P_a(P_a f) are each corrected for their
    wrap-around images.  Both composed sides reuse P_a f, P_a(x f) and
    P_a(P_a f).  Same return shape as commutator_dx.
    """
    _require_commutator_input(f, alpha)
    g = f.grid
    pf = fractional_momentum(f, alpha)
    ppf = fractional_momentum(pf, alpha).values
    xf = SampledSignal(g, g.x * f.values)
    pxf = fractional_momentum(xf, alpha).values
    b_f = xf.values - 1j * pf.values                   # sqrt(2) B f
    a_f = xf.values + 1j * pf.values                   # sqrt(2) A f
    pb_f = pxf - 1j * ppf                              # sqrt(2) P_a B f
    pa_f = pxf + 1j * ppf                              # sqrt(2) P_a A f
    # 2 A(B f) - 2 B(A f), with sqrt(2) A = x + i P_a and sqrt(2) B = x - i P_a
    lhs_vals = ((g.x * b_f + 1j * pb_f) - (g.x * a_f - 1j * pa_f)) / 2
    if alpha == 0:
        rhs_vals = np.zeros(g.n, dtype=complex)
    else:
        rhs_vals = alpha * fractional_momentum(f, alpha - 1).values
    gap = central_gap(lhs_vals, rhs_vals)
    return SampledSignal(g, lhs_vals), SampledSignal(g, rhs_vals), gap


def expectation(op_result, state):
    """Discrete <state, op_result> = sum conj(state_j) (op result)_j dx; unit-norm state."""
    _require_normalized(state)
    if op_result.grid != state.grid:
        raise GridMismatch(f"{op_result.grid} vs {state.grid}")
    return inner(state.values, op_result.values, state.grid.dx, Pairing.SESQUILINEAR)


def uncertainty_bound(alpha):
    """Analytic lower bound for delta_x * delta_P_a on the Gaussian state.

        alpha * 2^{(alpha-3)/2} / sqrt(pi) * Gamma(alpha/2) * |cos((alpha-1) pi/2)|

    Zero at alpha = 0 (continuous limit) and at even integers, where the
    cosine vanishes.  Any order that require_order accepts is evaluated,
    so the curve can be drawn from 0; only orders >= 1 carry an operator
    meaning (see uncertainty_check).  Raises OrderTooLarge where the bound
    overflows double precision (from order about 305).
    """
    alpha = require_order(alpha)
    if alpha == 0:
        return 0.0
    try:
        bound = (alpha * 2.0 ** ((alpha - 3) / 2) / _SQRT_PI
                 * specfun.gamma(alpha / 2) * abs(math.cos((alpha - 1) * math.pi / 2)))
    except OverflowError:           # the float power, past order about 2051
        bound = math.inf
    return specfun.require_finite(bound, specfun.ORDER_OVERFLOW, "uncertainty_bound", alpha)


def _density_taylor(signal, centre):
    """Taylor coefficients c_0..c_(_NAVOT_TERMS-1) of |phi_hat(p)|^2 at p = 0.

    phi_hat(p) = e^{-ip c} sum_j a_j p^j with a_j = (-i)^j m_j / (j! sqrt(2 pi))
    and m_j = sum (x - c)^j f dx the moments about c; the phase drops out of
    |phi_hat|^2 = sum_k c_k p^k, c_k = sum_{i+l=k} conj(a_i) a_l.
    """
    g = signal.grid
    t = g.x - centre
    a = np.empty(_NAVOT_TERMS, dtype=complex)
    term = signal.values * g.dx
    for j in range(_NAVOT_TERMS):
        a[j] = (-1j) ** j * np.sum(term) / (math.factorial(j) * SQRT_2PI)
        term = term * t
    return np.array([np.sum(np.conj(a[:k + 1]) * a[k::-1]).real
                     for k in range(_NAVOT_TERMS)])


def _momentum_moment(density, b, signed, taylor, dp):
    """Integral of s(p) G(p) dp, G = |phi_hat|^2, from its Riemann sum on the frequency grid.

    density has the rows dp G(+k dp) and dp G(-k dp), k = 0, 1, 2, ...,
    with G(0) counted in the first row only.  s(p) = |p|^b, or the momentum symbol p^b of p_power (phase e^{-i pi b}
    on p < 0) when signed.  The two sides are summed alike, so a signed
    odd power of an even density cancels to the phase's roundoff.  Unless
    s is smooth at p = 0 (b an even integer, or a signed integer power),
    the kink there leaves an error of order dp^(1+b) in the sum.  Navot's
    extension of Euler-Maclaurin to an algebraic singularity (J. Math.
    Phys. 40, 1961) gives it on each side of p = 0 exactly:

        dp sum_{k>=1} (k dp)^b G(+-k dp) - int_0^inf p^b G(+-p) dp
            = sum_j zeta(-b-j) (+-1)^j c_j dp^(b+j+1),

    where c_j are the Taylor coefficients of G at 0.  Terms stop once
    Gamma(1+b+j) overflows; they are far below the roundoff of the sum there.
    """
    power = _abs_power(b, np.arange(density.shape[1]) * dp)     # 0^0 = 1
    plus, minus = np.sum(density * power, axis=1)
    phase = complex(np.exp(-1j * np.pi * b)) if signed else 1.0
    total = plus + phase * minus
    if b == int(b) and (signed or b % 2 == 0):
        return total
    for j, c in enumerate(taylor):
        both = c * (1 + phase * (-1) ** j)
        try:
            total -= specfun.zeta_negative(b + j) * dp ** (b + j + 1) * both
        except OrderTooLarge:
            break
    return total


def uncertainty_check(alpha, state):
    """Measure delta_x, delta_P_a, and the commutator bound on a state.

    Position moments go through multiplication by x; momentum moments are
    diagonal quadratic forms, so they are summed directly in the frequency
    domain against |phi_hat|^2 rather than round-tripped through the
    engine, with the error of the kink of |p|^b at p = 0 removed (see
    _momentum_moment).  Bins that spectral.zero_noise zeroes hold FFT
    roundoff, which |p|^b would amplify; they are left out.  For the
    Gaussian state the resulting bound reproduces uncertainty_bound(alpha).
    The state is a unit-norm SampledSignal.  Raises OrderTooLarge where
    |p|^(2a) overflows on the kept bins.
    """
    alpha = require_order(alpha)
    if alpha < 1:
        raise AlphaInForbiddenRange(f"uncertainty_check requires alpha >= 1, got {alpha}")
    _require_normalized(state)
    _require_decay(state)
    g = state.grid

    mean_x = inner(state.values, g.x * state.values, g.dx, Pairing.SESQUILINEAR).real
    mean_xx = inner(state.values, g.x ** 2 * state.values, g.dx, Pairing.SESQUILINEAR).real
    delta_x = math.sqrt(max(mean_xx - mean_x ** 2, 0.0))

    # |forward(signal).coeffs|^2 dp; the grid-offset phase of forward drops out of |.|^2
    coeffs = np.fft.fft(state.values)
    zero_noise(coeffs)
    weight = np.abs(coeffs) ** 2 * (g.dx ** 2 / (2 * np.pi) * g.dp)
    half = g.n // 2
    density = np.zeros((2, half + 1))
    density[0, :half] = weight[:half]              # p = 0 .. (n/2 - 1) dp
    density[1, 1:] = weight[:half - 1:-1]          # p = -dp .. -(n/2) dp
    kept = int(np.flatnonzero(density.any(axis=0))[-1]) + 1
    density = density[:, :kept]
    taylor = _density_taylor(state, mean_x)

    # |p|^(2a) first: where any power overflows, its OrderTooLarge names 2a
    mean_pp = _momentum_moment(density, 2 * alpha, False, taylor, g.dp)
    mean_p = _momentum_moment(density, alpha, True, taylor, g.dp)
    mean_lower = _momentum_moment(density, alpha - 1, True, taylor, g.dp)
    delta_p = math.sqrt(max(mean_pp - abs(mean_p) ** 2, 0.0))
    rhs_bound = alpha * abs(mean_lower) / 2

    product = delta_x * delta_p
    return UncertaintyReport(
        alpha=alpha,
        delta_x=delta_x,
        delta_p_alpha=delta_p,
        product=product,
        rhs_bound=rhs_bound,
        satisfied=bool(product >= rhs_bound - 1e-9),
    )


def symmetry_residual(f, g, alpha):
    """<P_a f', g'>-style symmetry defect: <P_a g, f> - <g, P_a f>.

    Sesquilinear pairing (first slot conjugated), dx-weighted.  Vanishes to
    rounding for integer orders; for fractional orders the p < 0 phase
    e^{-i a pi} makes the symbol non-real and the residual is reported as a
    diagnostic.
    """
    if f.grid != g.grid:
        raise GridMismatch(f"{f.grid} vs {g.grid}")
    dx = f.grid.dx
    pg = fractional_momentum(g, alpha)
    pf = fractional_momentum(f, alpha)
    return (inner(pg.values, f.values, dx, Pairing.SESQUILINEAR)
            - inner(g.values, pf.values, dx, Pairing.SESQUILINEAR))
