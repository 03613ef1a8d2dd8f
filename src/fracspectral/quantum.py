"""Operator layer: commutators, ladder operators, and the uncertainty bound.

Everything here composes the fractional momentum operator P_a (the p^a
multiplier) with multiplication by x on rapidly decaying states.  The
commutator identities are checked by evaluating both sides independently
through the engine; nothing is algebraically pre-simplified.

Orders strictly between 0 and 1 are rejected for the commutators: with
the p^a branch in use, a*P_{a-1} only makes sense for a = 0 or a >= 1.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .grid import GridMismatch, SampledSignal, central_window, make_grid
from .spectral import DECAY_THRESHOLD, fractional_derivative, fractional_momentum, p_power

_SQRT_PI = math.sqrt(math.pi)

_NORM_TOL = 1e-10

_high_res = None


def high_res_grid():
    """Default high-resolution grid for operator-identity numerics.

    Wide domain, moderate dx.  The engine subtracts the wrap-around images
    of decaying states, so the commutator identities no longer need this
    width (they hold to 1e-12 on (-20, 20) with n = 8192); the grid stays
    the default of the operator checks and the uncertainty report.  Built
    once and cached.
    """
    global _high_res
    if _high_res is None:
        _high_res = make_grid(-32768.0, 32768.0, 2 ** 18)
    return _high_res


class AlphaInForbiddenRange(ValueError):
    pass


class InsufficientDecay(ValueError):
    pass


class NotNormalized(ValueError):
    pass


@dataclass(frozen=True)
class UncertaintyReport:
    """Position/momentum spreads for one order, against the analytic bound.

    delta_p_alpha uses the modulus-squared symbol for the second moment
    (<|p^a|^2>), which keeps the spread real; the convention field records
    that choice.
    """
    alpha: float
    delta_x: float
    delta_p_alpha: float
    product: float
    rhs_bound: float
    satisfied: bool
    convention: str = field(default="modulus-squared momentum symbol", compare=False)

    def __post_init__(self):
        for name in ("delta_x", "delta_p_alpha", "product", "rhs_bound"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


class StateVector:
    """A sampled wavefunction with its discrete L2 norm."""

    __slots__ = ("signal", "norm")

    def __init__(self, signal):
        self.signal = signal
        self.norm = float(np.sqrt(np.sum(np.abs(signal.values) ** 2) * signal.grid.dx))

    def __repr__(self):
        return f"StateVector(n={self.signal.grid.n}, norm={self.norm:.12f})"


def gaussian_state(grid):
    """The normalized Gaussian state (2/pi)^{1/4} e^{-x^2} on the given grid."""
    values = (2.0 / np.pi) ** 0.25 * np.exp(-grid.x ** 2)
    return StateVector(SampledSignal(grid, values))


def _require_order(alpha):
    if not (math.isfinite(alpha) and alpha >= 0):
        raise AlphaInForbiddenRange(f"alpha must be finite and >= 0, got {alpha}")


def _require_commutator_alpha(alpha):
    _require_order(alpha)
    if 0 < alpha < 1:
        raise AlphaInForbiddenRange(
            f"commutator identities are only defined for alpha = 0 or alpha >= 1; "
            f"got {alpha} (the order-lowering term has no meaning below order 1)")


def _require_decay(signal):
    if signal.boundary_decay > DECAY_THRESHOLD:
        raise InsufficientDecay(
            f"boundary decay {signal.boundary_decay:.3e} exceeds {DECAY_THRESHOLD:.1e}; "
            f"multiplication by x would wrap around")


def _x_times(signal):
    return SampledSignal(signal.grid, signal.grid.x * signal.values)


def _central_gap(u, v, n):
    w = central_window(n)
    return float(np.max(np.abs(u[w] - v[w])))


def commutator_dx(f, alpha):
    """Both sides of [D^a, x] f = a D^{a-1} f, evaluated independently.

    Returns (lhs, rhs, gap): lhs = D^a(x f) - x D^a f, rhs = a D^{a-1} f,
    gap = sup |lhs - rhs| over the central half.
    """
    _require_commutator_alpha(alpha)
    _require_decay(f)
    g = f.grid
    xf = _x_times(f)
    lhs_vals = fractional_derivative(xf, alpha).values - g.x * fractional_derivative(f, alpha).values
    if alpha == 0:
        rhs_vals = np.zeros(g.n, dtype=complex)
    else:
        rhs_vals = alpha * fractional_derivative(f, alpha - 1).values
    gap = _central_gap(lhs_vals, rhs_vals, g.n)
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
    _require_commutator_alpha(alpha)
    _require_decay(f)
    g = f.grid
    # built term by term into two buffers: at n = 2^18 each array is 4 MiB
    pf = fractional_momentum(f, alpha)
    ppf = fractional_momentum(pf, alpha).values
    pf = pf.values
    xf = _x_times(f)
    pxf = fractional_momentum(xf, alpha).values
    xf = xf.values
    lhs_vals = np.multiply(pf, -1j)                    # sqrt(2) B f = x f - i P_a f
    lhs_vals += xf
    lhs_vals *= g.x
    term = np.multiply(ppf, -1j)                       # sqrt(2) P_a B f
    term += pxf
    term *= 1j
    lhs_vals += term                                   # 2 A(B f)
    np.multiply(pf, 1j, out=term)                      # sqrt(2) A f
    term += xf
    term *= g.x
    lhs_vals -= term
    np.multiply(ppf, 1j, out=term)                     # sqrt(2) P_a A f
    term += pxf
    term *= 1j
    lhs_vals += term                                   # 2 A(B f) - 2 B(A f)
    lhs_vals /= 2
    del pf, ppf, xf, pxf, term
    if alpha == 0:
        rhs_vals = np.zeros(g.n, dtype=complex)
    else:
        rhs_vals = alpha * fractional_momentum(f, alpha - 1).values
    gap = _central_gap(lhs_vals, rhs_vals, g.n)
    return SampledSignal(g, lhs_vals), SampledSignal(g, rhs_vals), gap


def expectation(op_result, state):
    """Discrete <state, op_result> = sum conj(state_j) (op result)_j dx."""
    if abs(state.norm - 1.0) > _NORM_TOL:
        raise NotNormalized(f"state norm {state.norm!r} is not 1 within {_NORM_TOL:.1e}")
    if op_result.grid != state.signal.grid:
        raise GridMismatch(f"{op_result.grid} vs {state.signal.grid}")
    g = state.signal.grid
    return complex(np.sum(np.conj(state.signal.values) * op_result.values) * g.dx)


def uncertainty_bound(alpha, allow_below_one=False):
    """Analytic lower bound for delta_x * delta_P_a on the Gaussian state.

        alpha * 2^{(alpha-3)/2} / sqrt(pi) * Gamma(alpha/2) * |cos((alpha-1) pi/2)|

    Zero at alpha = 0 (continuous limit) and at even integers, where the
    cosine vanishes.  Orders below 1 carry no operator meaning and are only
    evaluated when allow_below_one is set (curve reproduction).
    """
    alpha = float(alpha)
    _require_order(alpha)
    if alpha < 1 and not allow_below_one:
        raise AlphaInForbiddenRange(
            f"the uncertainty bound requires alpha >= 1 (got {alpha}); "
            f"pass allow_below_one=True for curve reproduction only")
    if alpha == 0:
        return 0.0
    return (alpha * 2.0 ** ((alpha - 3) / 2) / _SQRT_PI
            * specfun.gamma(alpha / 2) * abs(math.cos((alpha - 1) * math.pi / 2)))


def uncertainty_check(alpha, state):
    """Measure delta_x, delta_P_a, and the commutator bound on a state.

    Position moments go through multiplication by x; momentum moments are
    diagonal quadratic forms, so they are summed directly in the frequency
    domain against |phi_hat|^2 rather than round-tripped through the
    engine.  For the Gaussian state the resulting bound reproduces
    uncertainty_bound(alpha).
    """
    alpha = float(alpha)
    _require_order(alpha)
    if alpha < 1:
        raise AlphaInForbiddenRange(f"uncertainty_check requires alpha >= 1, got {alpha}")
    if abs(state.norm - 1.0) > _NORM_TOL:
        raise NotNormalized(f"state norm {state.norm!r} is not 1 within {_NORM_TOL:.1e}")
    _require_decay(state.signal)
    g = state.signal.grid

    mean_x = expectation(_x_times(state.signal), state).real
    xxf = SampledSignal(g, g.x ** 2 * state.signal.values)
    mean_xx = expectation(xxf, state).real
    delta_x = math.sqrt(max(mean_xx - mean_x ** 2, 0.0))

    # |forward(signal).coeffs|^2 dp; the grid-offset phase of forward drops out of |.|^2
    weight = np.abs(np.fft.fft(state.signal.values)) ** 2 * (g.dx ** 2 / (2 * np.pi) * g.dp)
    mean_p = complex(np.sum(p_power(alpha, g.p) * weight))
    mean_pp = float(np.sum(np.abs(g.p) ** (2 * alpha) * weight))
    delta_p = math.sqrt(max(mean_pp - abs(mean_p) ** 2, 0.0))

    mean_lower = complex(np.sum(p_power(alpha - 1, g.p) * weight))
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
    left = complex(np.sum(np.conj(pg.values) * f.values) * dx)
    right = complex(np.sum(np.conj(g.values) * pf.values) * dx)
    return left - right
