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
from .grid import SampledSignal, _readonly, central_gap, make_grid, require_same_grid
from .oracles import _SQRT_PI, gaussian
from .specfun import OrderTooLarge
from .spectral import (DECAY_THRESHOLD, SQRT_2PI, AlphaInForbiddenRange, Pairing, _abs_power,
                       _apply_multiplier, _box_moments, _evidence, _half_spectra,
                       _overflow_is_too_large, fractional_derivative, fractional_momentum,
                       inner, require_order)

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
    (<|p^a|^2>), which keeps the spread real.  The order is kept as the float of
    require_order; the spreads and bounds must be finite and >= 0, satisfied a bool.
    """
    alpha: float
    delta_x: float
    delta_p_alpha: float
    product: float
    rhs_bound: float
    satisfied: bool

    def __post_init__(self):
        if not isinstance(self.satisfied, bool):
            raise specfun.ArgumentOutOfRange(f"satisfied must be a bool, got {self.satisfied!r}")
        object.__setattr__(self, "alpha", require_order(self.alpha))
        for name in ("delta_x", "delta_p_alpha", "product", "rhs_bound"):
            specfun.require_real(name, getattr(self, name), least=0.0)


def gaussian_state(grid):
    """The normalized Gaussian state (2/pi)^{1/4} e^{-x^2}: a SampledSignal on the grid."""
    return SampledSignal(grid, (2.0 / np.pi) ** 0.25 * gaussian(grid.x))


@np.errstate(over="ignore")     # a norm past the float range is inf, which is not 1
def _require_normalized(state):
    """The one normalisation gate: NotNormalized unless the discrete L2 norm is 1.

    The norm is computed once per state (its memo keeps it); the test runs
    on every call.
    """
    norm = state._memo.get("norm")
    if norm is None:
        norm = state._memo["norm"] = float(np.sqrt(np.sum(np.abs(state.values) ** 2)
                                                   * state.grid.dx))
    if abs(norm - 1.0) > _NORM_TOL:
        raise NotNormalized(f"state norm {norm!r} is not 1 within {_NORM_TOL:.1e}")


def _require_commutator_input(f, alpha):
    """The order as a float, with f and x f checked for decay (the engine takes D^a or
    P_a of both); orders in (0, 1) are refused."""
    alpha = require_order(alpha)
    if 0 < alpha < 1:
        raise AlphaInForbiddenRange(
            f"commutator identities are only defined for alpha = 0 or alpha >= 1; "
            f"got {alpha} (the order-lowering term has no meaning below order 1)")
    _require_decay(f)
    _require_decay(_x_times(f), "x f")
    return alpha


def _require_decay(signal, name="f"):
    evidence = _evidence(signal)
    if not evidence.decays:     # the engine's test, negated
        raise InsufficientDecay(f"boundary decay {evidence.ratio:.3e} of max|{name}| is not below "
                                f"{DECAY_THRESHOLD:.1e}; multiplication by x would wrap around")


def _x_times(f):
    """x f as a SampledSignal, once per signal: f's memo keeps it, and its own memo
    then serves D^a(x f) and P_a(x f) at every order.  Raises OrderTooLarge where
    a product overflows double precision, on every call.
    """
    xf = f._memo.get("x_times")
    if xf is None:
        g = f.grid
        with _overflow_is_too_large("multiplication by x overflows double precision",
                                    f.values):
            xf = f._memo["x_times"] = SampledSignal._adopt(g, g.x * f.values)
    return xf


def commutator_dx(f, alpha):
    """Both sides of [D^a, x] f = a D^{a-1} f, evaluated independently.

    Returns (lhs, rhs, gap): lhs = D^a(x f) - x D^a f, rhs = a D^{a-1} f,
    gap = sup |lhs - rhs| over the central half.  D^a of x f and of f is one
    engine call, so the two image records share one zeta table.
    """
    alpha = _require_commutator_input(f, alpha)
    g = f.grid
    dxf, df = _apply_multiplier((_x_times(f), f), alpha, False)
    lhs_vals = dxf.values - g.x * df.values
    del dxf, df     # before the right side, as temporaries of one expression were
    return _commutator_sides(f, alpha, lhs_vals, fractional_derivative)


def commutator_ladder(f, alpha):
    """Both sides of [A_a, B_a] f = a P_{a-1} f with A/B = (x +- i P_a)/sqrt(2).

    The composed left side reduces algebraically to -i [x, P_a] f, so this
    also exercises the x/P_a commutation relation.  P_a is applied to each
    term of B f = (x f - i P_a f)/sqrt(2) and A f rather than to the sums:
    x P_a f is a line value with a slow tail that the engine would treat as
    periodic, while P_a(x f) and P_a(P_a f) are each corrected for their
    wrap-around images; the engine takes P_a(P_a f) of a corrected P_a f from
    f itself, as P_2a f.  Both composed sides reuse P_a f, P_a(x f) and
    P_a(P_a f).  Same return shape as commutator_dx.

    P_a of f and of x f is one engine call, so their image records share one
    zeta table; P_a(P_a f) follows it, and a (P_{a-1} f) comes last, as when
    each was a call of its own.  Calls in another order measured up to 8%
    slower at integer orders, which make no record.
    """
    alpha = _require_commutator_input(f, alpha)
    g = f.grid
    xf = _x_times(f)
    pf, pxf = _apply_multiplier((f, xf), alpha, True)
    pxf = pxf.values
    ppf = fractional_momentum(pf, alpha).values
    ipf, ippf = 1j * pf.values, 1j * ppf
    b_f = xf.values - ipf                              # sqrt(2) B f
    a_f = np.add(xf.values, ipf, out=ipf)              # sqrt(2) A f
    pb_f = pxf - ippf                                  # sqrt(2) P_a B f
    pa_f = np.add(pxf, ippf, out=ippf)                 # sqrt(2) P_a A f
    # 2 A(B f) - 2 B(A f), with sqrt(2) A = x + i P_a and sqrt(2) B = x - i P_a,
    # each step in place
    lhs_vals = np.multiply(g.x, b_f, out=b_f)
    lhs_vals += np.multiply(1j, pb_f, out=pb_f)
    right = np.multiply(g.x, a_f, out=a_f)
    right -= np.multiply(1j, pa_f, out=pa_f)
    lhs_vals -= right
    lhs_vals /= 2
    return _commutator_sides(f, alpha, lhs_vals, fractional_momentum)


def _commutator_sides(f, alpha, lhs_vals, operator):
    """(lhs, rhs, gap): rhs = a operator(f, a - 1), 0 at a = 0; gap over the central half."""
    g = f.grid
    rhs_vals = alpha * operator(f, alpha - 1).values if alpha else np.zeros(g.n, dtype=complex)
    return (SampledSignal._adopt(g, lhs_vals), SampledSignal._adopt(g, rhs_vals),
            central_gap(lhs_vals, rhs_vals))


def expectation(op_result, state):
    """Discrete <state, op_result> = sum conj(state_j) (op result)_j dx; unit-norm state."""
    _require_normalized(state)
    return inner(state, op_result, Pairing.SESQUILINEAR)


def uncertainty_bound(alpha):
    """Analytic lower bound for delta_x * delta_P_a on the Gaussian state.

        alpha * 2^{(alpha-3)/2} / sqrt(pi) * Gamma(alpha/2) * |cos((alpha-1) pi/2)|

    Zero at alpha = 0 (continuous limit) and at even integers, where the
    cosine vanishes.  Any order that require_order accepts is evaluated,
    so the curve can be drawn from 0; only orders >= 1 carry an operator
    meaning (see uncertainty_check).  a*Gamma(a/2) is 2 Gamma(1 + a/2) where
    a tiny order leaves Gamma(a/2) not finite.  Raises OrderTooLarge where
    the bound overflows double precision (from order about 305).
    """
    alpha = require_order(alpha)
    if alpha == 0:
        return 0.0
    try:
        power = 2.0 ** ((alpha - 3) / 2)
    except OverflowError:           # past order about 2051; raised before Gamma is called
        raise OrderTooLarge(specfun.ORDER_OVERFLOW.format("uncertainty_bound", alpha)) from None
    scale, gamma_half = specfun._order_gamma_half(alpha)
    bound = scale * power / _SQRT_PI * gamma_half * abs(math.cos((alpha - 1) * math.pi / 2))
    return specfun.require_finite(bound, specfun.ORDER_OVERFLOW, "uncertainty_bound", alpha)


def _momentum_moment(density, b, signed, taylor, dp):
    """Integral of s(p) G(p) dp, G = |phi_hat|^2, from its Riemann sum on the frequency grid.

    density has the rows dp G(+k dp) and dp G(-k dp), k = 0, 1, 2, ...,
    with G(0) counted in the first row only.  s(p) = |p|^b, or the
    momentum symbol p^b of p_power (phase e^{-i pi b} on p < 0) when
    signed.  The two sides are summed alike, so a signed
    odd power of an even density cancels to the phase's roundoff.  Unless
    s is smooth at p = 0 (b an even integer, or a signed integer power),
    the kink there leaves an error of order dp^(1+b) in the sum.  Navot's
    extension of Euler-Maclaurin to an algebraic singularity (J. Math.
    Phys. 40, 1961) gives it on each side of p = 0 exactly:

        dp sum_{k>=1} (k dp)^b G(+-k dp) - int_0^inf p^b G(+-p) dp
            = sum_j zeta(-b-j) (+-1)^j c_j dp^(b+j+1),

    where c_j are the Taylor coefficients of G at 0.  The zeta values come
    from one call over the row b + j.  Terms stop before the first whose
    zeta(-b-j) overflows (where Gamma(1+b+j) does); they are far below the
    roundoff of the sum there.
    """
    power = _abs_power(b, np.arange(density.shape[1]) * dp)     # bins >= 0; 0^0 = 1
    plus, minus = np.sum(density * power, axis=1)
    phase = complex(np.exp(-1j * np.pi * b)) if signed else 1.0
    total = plus + phase * minus
    if b == int(b) and (signed or b % 2 == 0):
        return total
    row = b + np.arange(len(taylor))
    while True:
        try:
            # the longest row that does not raise: the terms before the first
            # whose zeta(-t) overflows.  The overflow raises before any zeta
            # is computed, so each shorter row costs only its Gamma factors
            zeta = specfun.zeta_negative(row).tolist()
            break
        except OrderTooLarge:
            row = row[:-1]
    for j, (c, z) in enumerate(zip(taylor, zeta)):
        both = c * (1 + phase * (-1) ** j)
        total -= z * dp ** (b + j + 1) * both
    return total


def _spread(state):
    """(delta_x, density, taylor) of a state, computed once per state (its memo keeps them).

    delta_x is the position spread, from the weights |psi|^2 dx.  The other two
    are read from the engine's records of the state, so a state it has
    transformed costs no transform here.  density holds the rows
    dp |phi_hat(+-k dp)|^2 that _momentum_moment sums, up to the last bin the
    noise floor keeps: with R, I the half-spectra of the real and imaginary part
    (spectral._half_spectra), phi_hat is R + iI at +k dp, conj(R - iI) at -k dp.
    taylor holds the coefficients c_k of |phi_hat|^2 at p = 0 from the moments
    m_j = sum (x - c)^j psi dx about the box centre c (spectral._box_moments, which
    the image correction reads too): phi_hat(p) = e^{-ipc} sum_j a_j p^j with
    a_j = (-i)^j m_j / (j! sqrt(2 pi)), and c_k = sum_{i+l=k} conj(a_i) a_l.
    """
    spread = state._memo.get("spread")
    if spread is None:
        g = state.grid
        weight = np.abs(state.values) ** 2 * g.dx
        mean_x = np.sum(weight * g.x)
        delta_x = math.sqrt(max(np.sum(weight * g.x ** 2) - mean_x ** 2, 0.0))
        spectra = _half_spectra(state)
        real, imag = spectra if len(spectra) == 2 else (spectra[0], 0.0)
        scale = g.dx ** 2 / (2 * np.pi) * g.dp
        half = g.n // 2
        density = np.zeros((2, half + 1))
        density[0, :half] = np.abs(real + 1j * imag)[:half] ** 2 * scale   # p = 0 .. (n/2 - 1) dp
        density[1, 1:] = np.abs(real - 1j * imag)[1:] ** 2 * scale         # p = -dp .. -(n/2) dp
        kept = int(np.flatnonzero(density.any(axis=0))[-1]) + 1
        density = _readonly(density[:, :kept])

        j = np.arange(_NAVOT_TERMS)
        m = _box_moments(state)[:_NAVOT_TERMS] * (g.x_max - g.x_min) ** j / _evidence(state).unit
        a = (-1j) ** j * m / (np.cumprod(np.maximum(j, 1)) * SQRT_2PI)
        taylor = np.convolve(np.conj(a), a)[:_NAVOT_TERMS].real
        spread = state._memo["spread"] = (delta_x, density, taylor)
    return spread


def uncertainty_check(alpha, state):
    """Measure delta_x, delta_P_a, and the commutator bound on a state.

    Momentum moments are diagonal quadratic forms, so they are summed in the
    frequency domain against |phi_hat|^2 (see _spread) rather than
    round-tripped through the engine, with the error of the kink of |p|^b at
    p = 0 removed (see _momentum_moment).  Bins below the engine's noise floor
    hold FFT roundoff, which |p|^b would amplify; they are left out.  For the
    Gaussian state the bound reproduces uncertainty_bound(alpha).  The state
    is a unit-norm SampledSignal.  Raises OrderTooLarge where |p|^(2a)
    overflows on the kept bins, or 2a itself does.
    """
    alpha = require_order(alpha)
    if alpha < 1:
        raise AlphaInForbiddenRange(f"uncertainty_check requires alpha >= 1, got {alpha:g} "
                                    f"(orders below 1 carry no operator meaning)")
    _require_normalized(state)
    _require_decay(state)
    g = state.grid
    delta_x, density, taylor = _spread(state)

    # |p|^(2a) first: its OrderTooLarge names 2a, or the order where 2a is not finite
    if math.isinf(2 * alpha):
        raise OrderTooLarge(f"order {alpha:g} is too large: 2a overflows double precision")
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
    require_same_grid(f, g)
    pg = fractional_momentum(g, alpha)
    pf = fractional_momentum(f, alpha)
    return inner(pg, f, Pairing.SESQUILINEAR) - inner(g, pf, Pairing.SESQUILINEAR)
