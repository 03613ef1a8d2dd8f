"""Closed-form fractional derivatives and an independent quadrature reference.

These are the ground-truth routes against which the FFT engine is judged:

* gaussian / x2gaussian, the built-in functions of the CLI and the check suites,
  their transforms gaussian_hat / x2gaussian_hat, and gaussian_deriv / x2gaussian_deriv:
  analytic formulas in terms of Gamma and 1F1, evaluated exactly as written at a float
  or an array of x; an order whose value overflows double precision raises OrderTooLarge.
  closed_form_orders gives several orders over one array, their 1F1 terms in one series.
* exp_rule / monomial_deriv: rule objects for functions that are not
  square-integrable; they never touch the FFT path, which would silently
  periodize them.
* quadrature_reference: direct adaptive integration of the defining
  inverse-transform integral, sharing with the fast transform only the
  guarded |p|^a of spectral (_branch_power, the body of ip_power).
* eigenstate_signal: sampled eigenfunctions of the fractional momentum
  operator with their frequency pinned exactly onto the discrete grid.
"""
import cmath
import functools
import inspect
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .grid import SampledSignal, _evaluate
from .spectral import SQRT_2PI, AlphaInForbiddenRange, _branch_power, require_order

_SQRT_PI = math.sqrt(math.pi)


class NonPositiveK(ValueError):
    pass


class FrequencyOffGrid(ValueError):
    pass


class ToleranceNotReached(RuntimeError):
    pass


class Undefined:
    """Distinguished result for monomial orders with no assigned meaning.

    Its one instance, UNDEFINED, is returned (never raised) where the case
    analysis of fractional monomial derivatives leaves the value unassigned.
    """

    def __repr__(self):
        return "Undefined"

    def __bool__(self):
        return False


UNDEFINED = Undefined()


def gaussian(x):
    """e^{-x^2} at a float or an array; 0, with no warning, where x^2 overflows."""
    with np.errstate(over="ignore"):
        return np.exp(-x * x)


def x2gaussian(x):
    """x^2 e^{-x^2}, likewise 0 where x^2 overflows: the largest double times e^{-inf}."""
    with np.errstate(over="ignore"):
        x2 = x * x
        return np.minimum(x2, np.finfo(float).max) * np.exp(-x2)


def gaussian_hat(p):
    """The transform e^{-p^2/4}/sqrt(2) of gaussian, at a float or an array of p."""
    return np.exp(-p * p / 4.0) / math.sqrt(2.0)


def x2gaussian_hat(p):
    """The transform (2 - p^2) e^{-p^2/4}/(4 sqrt(2)) of x2gaussian, likewise."""
    return (2.0 - p * p) * np.exp(-p * p / 4.0) / (4.0 * math.sqrt(2.0))


#: rows times points of one lock-step 1F1 series: figure 3's 16 rows of 801 points fit
_SERIES_ELEMENTS = 1 << 14


def closed_form_orders(oracle, alphas, x):
    """[oracle(a, x) for a in alphas] over a numpy array x, bit for bit and raising
    what that loop raises; oracle is gaussian_deriv or x2gaussian_deriv, or a
    wrapper of one that keeps __wrapped__ (see functools.wraps).

    The orders and x are gated and each order forms its 1F1 rows, in turn;
    then the rows of each run of whole orders within _SERIES_ELEMENTS go to one
    kummer_1f1 call, whose elements are each bitwise their own call.  Where
    that fails, the orders run one by one: the first failing one raises.
    """
    try:
        orders = [require_order(a) for a in alphas]
        x = specfun.require_reals("x", x)
        formula = inspect.unwrap(oracle)
        formed = [(steps, next(steps)) for steps in (formula(a, x) for a in orders)]
        per_series = max(1, _SERIES_ELEMENTS // max(1, x.size * max(len(r) for _, r in formed)))
        values = []
        with np.errstate(over="ignore", invalid="ignore"):
            z = np.asarray(-x * x)      # -x * x is a numpy scalar where x is 0-d
            for i in range(0, len(formed), per_series):
                group = formed[i:i + per_series]
                stacked = [row for _, rows in group for row in rows]
                a, b = np.array(stacked).T.reshape((2, len(stacked)) + (1,) * z.ndim)
                f = iter(specfun.kummer_1f1(a, b, z))     # one row per (a, b)
                values += [np.asarray(steps.send([next(f) for _ in rows]), dtype=complex)
                           for steps, rows in group]
        return values
    except ValueError:
        if len(alphas) == 1:
            raise
        return [closed_form_orders(oracle, (a,), x)[0] for a in alphas]


def _closed_form(formula):
    """The closed form of formula, a generator of (alpha, x) that yields the (a, b)
    rows of its 1F1(a; b; -x^2) terms, is sent their values and yields its value.

    At a float x that value is a complex, from one 1F1 series per row; at a
    numpy array x, a complex array of its shape whose elements are the scalar
    calls bit for bit, from closed_form_orders with one order (numpy's overflow
    warnings off: require_finite raises).

    A float x gates z = -x^2 once (-inf where x^2 overflows) and runs each row past
    kummer_1f1's gates (specfun._kummer), as a and b of the gated order and b = 1/2 or 3/2
    pass them: a row can still refuse a |z| past MAX_ABS_Z or an overflow, in its words.
    """
    @functools.wraps(formula)
    def closed_form(alpha, x):
        if isinstance(x, np.ndarray):
            return closed_form_orders(closed_form, (alpha,), x)[0]
        alpha = require_order(alpha)
        x = specfun.require_real("x", x)
        steps, values = formula(alpha, x), []
        rows, z = next(steps), specfun.require_real("1F1 argument z", -x * x)
        for a, b in rows:           # a plain loop: 0.45 us less than a comprehension here
            values.append(specfun._kummer(a, b, z))
        return complex(steps.send(values))
    return closed_form


@_closed_form
def gaussian_deriv(alpha, x):
    """Fractional derivative of e^{-x^2}, closed form (x a float or an array).

    (2^a/sqrt(pi)) [cos(a*pi/2) Gamma((1+a)/2) 1F1((1+a)/2, 1/2, -x^2)
                    - a*x*sin(a*pi/2) Gamma(a/2) 1F1(1 + a/2, 3/2, -x^2)]

    The Gamma(a/2) term is taken as 0 at a = 0: the prefactor a cancels the
    pole, and the surviving term is e^{-x^2} itself.  At an order so small
    that Gamma(a/2) is not finite, a*Gamma(a/2) is taken as 2 Gamma(1 + a/2).
    The Gamma factors come before the 1F1 terms, so an order past the Gamma
    limit names Gamma, and before the cosine, whose a*pi overflows from order
    DBL_MAX/pi on.
    """
    c1 = specfun.gamma((1 + alpha) / 2) * math.cos(alpha * np.pi / 2)
    row1 = ((1 + alpha) / 2, 0.5)
    if alpha == 0:
        f1, = yield (row1,)
        t2 = 0.0
    else:
        scale, gamma_half = specfun._order_gamma_half(alpha)
        f1, f2 = yield row1, (1 + alpha / 2, 1.5)
        t2 = scale * x * math.sin(alpha * np.pi / 2) * gamma_half * f2
    yield specfun.require_finite(2.0 ** alpha / _SQRT_PI * (c1 * f1 - t2),
                                 specfun.ORDER_OVERFLOW, "gaussian_deriv", alpha)


@_closed_form
def x2gaussian_deriv(alpha, x):
    """Fractional derivative of x^2 e^{-x^2}, closed form (x a float or an array).

    Written exactly as derived, with the i^a and (-i)^a phases kept
    explicit (i^a + (-i)^a recombines to 2 cos(a*pi/2); the second group
    carries the odd-in-x part).  Real-valued for real alpha, x.  The 1F1
    terms come before the Gamma factors.
    """
    i_a = cmath.exp(1j * alpha * np.pi / 2)      # i^a
    mi_a = cmath.exp(-1j * alpha * np.pi / 2)    # (-i)^a
    f1, f2, f3, f4 = yield (((1 + alpha) / 2, 0.5), ((3 + alpha) / 2, 0.5),
                           ((2 + alpha) / 2, 1.5), ((4 + alpha) / 2, 1.5))
    g1 = f1 - (1 + alpha) * f2
    g2 = f3 - (2 + alpha) * f4
    # Gamma before the power, as in gaussian_deriv: 2.0 ** a raises
    # OverflowError past a = 1024, Gamma OrderTooLarge past a = 342
    terms = ((i_a + mi_a) * specfun.gamma((1 + alpha) / 2) * g1
             - 2j * (mi_a - i_a) * x * specfun.gamma(1 + alpha / 2) * g2)
    yield specfun.require_finite(2.0 ** (alpha - 2) / _SQRT_PI * terms,
                                 specfun.ORDER_OVERFLOW, "x2gaussian_deriv", alpha)


def exp_rule(k, alpha, x):
    """Fractional derivative of e^{kx} for k > 0: k^a e^{kx}.

    A non-finite k or x, or one where e^{kx} overflows double precision,
    raises ArgumentOutOfRange; a k^a, or a product, that overflows raises
    OrderTooLarge.
    """
    k = specfun.require_real("k", k)
    if k <= 0:
        raise NonPositiveK(f"exponential rule requires k > 0, got {k}")
    alpha = require_order(alpha)
    x = specfun.require_real("x", x)
    try:
        scale = k ** alpha
    except OverflowError:
        raise specfun.OrderTooLarge(specfun.ORDER_OVERFLOW.format("exp_rule", alpha)) from None
    try:
        growth = math.exp(k * x)
    except OverflowError:
        raise specfun.ArgumentOutOfRange(
            f"e^(kx) overflows double precision at k = {k:g}, x = {x:g}") from None
    return specfun.require_finite(scale * growth, specfun.ORDER_OVERFLOW, "exp_rule", alpha)


def monomial_deriv(n, alpha, x):
    """Fractional derivative of x^n by the distributional case table.

    Integer orders up to n give the usual falling-factorial derivatives;
    any order above n gives 0; non-integer orders below n have no assigned
    value and return the UNDEFINED singleton (not an exception).  A degree
    that is not a whole number >= 0, a non-finite x, or an x whose power
    overflows raises ArgumentOutOfRange; a coefficient, or a product, that
    overflows raises OrderTooLarge.
    """
    n = specfun.require_count("degree", n)
    if n < 0:
        raise specfun.ArgumentOutOfRange(f"degree must be >= 0, got {n}")
    alpha = require_order(alpha)
    x = specfun.require_real("x", x)
    if alpha > n:
        return 0.0
    if alpha != math.floor(alpha):
        return UNDEFINED
    m = int(alpha)  # 0 <= m <= n here
    coeff = 1.0
    try:
        for i in range(m):
            coeff *= n - i
    except OverflowError:                       # n - i past the float range
        raise specfun.OrderTooLarge(
            specfun.ORDER_OVERFLOW.format("monomial_deriv", alpha)) from None
    try:
        power = abs(x) ** (n - m)
    except OverflowError:
        if abs(x) > 1:
            raise specfun.ArgumentOutOfRange(f"x^(degree - {m}) overflows at x = {x:g}") from None
        power = float(abs(x) == 1)
    if (n - m) % 2:                 # the int's parity: a float exponent loses it past 2^53
        power = math.copysign(power, x)
    return specfun.require_finite(coeff * power, specfun.ORDER_OVERFLOW, "monomial_deriv", alpha)


# --- direct quadrature of the inverse-transform integral -------------------

# Gauss-Kronrod 15-point rule on [-1, 1] (Piessens et al., QUADPACK qk15).
# The tables list the nonnegative half from the end point in; mirrored, the
# nodes increase, and every other one from the second on is a 7-point Gauss
# node.  So the G7 value reuses the integrand values of the K15 one, and
# |K15 - G7| is the error estimate of the kept K15 value.
_KRONROD_HALF = np.array([0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
                          0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
                          0.20778495500789848, 0.0])
_K15_HALF = np.array([0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
                      0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
                      0.20443294007529889, 0.20948214108472782])
_G7_HALF = np.array([0.1294849661688697, 0.27970539148927664, 0.3818300505051189,
                     0.4179591836734694])
_NODES = np.concatenate([-_KRONROD_HALF, _KRONROD_HALF[-2::-1]])
_K15_WEIGHTS = np.concatenate([_K15_HALF, _K15_HALF[-2::-1]])
_G7_WEIGHTS = np.concatenate([_G7_HALF, _G7_HALF[-2::-1]])

_QUAD_ABS_TOL = 1e-11
# panels evaluated per integrand call; bounds the node array at 512 * 15
_QUAD_BATCH = 512
# integrand evaluations one call may spend, root panels included.  The root
# panels alone exceed it past |x| of about 1372 at the default p_cutoff of 40;
# where large integrand values put the absolute tolerance out of reach (for
# e^{-x^2}, from order 17 at x = 0, 15 at x = 0.5, 14 at |x| = 3), the
# refinement spends it in 0.06 to 0.12 s (orders 15 to 100 at x = 0.5, best
# of 3, on a 2-vCPU Xeon VM)
_QUAD_MAX_EVALS = 2 ** 20
# a failing panel that ends at p = 0, where |p|^a is not smooth, is cut at
# h/2, h/4, ..., h/2^16 in one step (see _adaptive); on the closedform check
# suite 8 levels take 26% more batches, 32 levels 9% more integrand points
_CORNER_LEVELS = 16
_CORNER_CUTS = np.append(2.0 ** -np.arange(_CORNER_LEVELS + 1), 0.0)
# if the summed panel estimates exceed this, the result cannot serve as an
# oracle for 1e-8-level comparisons and we refuse to return it
_QUAD_FAIL_EST = 1e-9


def _adaptive(f_hat, alpha, x, lo, hi, tol):
    """Adaptive refinement of the panels [lo[k], hi[k]]; returns (value, error_estimate).

    Pending panels are held as arrays.  Each step takes up to _QUAD_BATCH of
    them and evaluates all their nodes in one integrand call; a panel whose
    K15 and G7 values differ by at most tol is accepted.  A failing panel
    [0, h] (or [-h, 0]) is replaced by the _CORNER_LEVELS + 1 panels that
    repeated bisection toward p = 0 would produce, [h/2, h], [h/4, h/2],
    ..., [0, h/2^_CORNER_LEVELS], so the corner of |p|^a is reached in a
    few steps instead of one step per level; any other failing panel is
    replaced by its halves.  A step that would take the integrand
    evaluations past _QUAD_MAX_EVALS raises ToleranceNotReached instead, as
    does an integrand value, or a panel's K15 or G7 sum, that is not finite.
    """
    total = 0.0 + 0.0j
    est = 0.0
    evals = 0
    while lo.size:
        rest = max(lo.size - _QUAD_BATCH, 0)
        a, b = lo[rest:], hi[rest:]
        lo, hi = lo[:rest], hi[:rest]
        evals += a.size * _NODES.size
        if evals > _QUAD_MAX_EVALS:
            raise ToleranceNotReached(
                f"no convergence within {_QUAD_MAX_EVALS} integrand evaluations "
                f"({lo.size + a.size} panels pending)")
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        p = (mid[:, None] + half[:, None] * _NODES).ravel()
        phased = np.exp(1j * p * x) * _branch_power(alpha, p, False)     # (ip)^a
        values = _evaluate(f_hat, p, "p")
        # a value or a sum past the float range raises below, without numpy's warning
        with np.errstate(over="ignore", invalid="ignore"):
            f = (phased * values).reshape(a.size, _NODES.size)
            bad = ~np.isfinite(f)
            if bad.any():
                raise ToleranceNotReached(
                    f"integrand is not finite at p = {p.reshape(f.shape)[bad][0]:.6g}")
            k15 = half * np.sum(_K15_WEIGHTS * f, axis=1)
            g7 = half * np.sum(_G7_WEIGHTS * f[:, 1::2], axis=1)
            err = np.abs(k15 - g7)
        bad = ~(np.isfinite(k15) & np.isfinite(g7))
        if bad.any():
            k = bad.argmax()
            raise ToleranceNotReached(f"the K15 or G7 sum of the panel [{a[k]:.6g}, {b[k]:.6g}] "
                                      f"is not finite")
        done = err <= tol
        total += np.sum(k15[done])
        est += np.sum(err[done])
        split = ~done
        corner = split & ((a == 0) | (b == 0))
        split &= ~corner
        # a + b is the far end of a corner panel; its multiples by _CORNER_CUTS
        # are exact, as bisection's midpoints are
        cuts = (a + b)[corner, None] * _CORNER_CUTS
        a, mid, b = a[split], mid[split], b[split]
        lo = np.concatenate([lo, a, mid, np.minimum(cuts[:, :-1], cuts[:, 1:]).ravel()])
        hi = np.concatenate([hi, mid, b, np.maximum(cuts[:, :-1], cuts[:, 1:]).ravel()])
    return total, est


def quadrature_reference(f_hat, alpha, x, p_cutoff=40.0):
    """Direct adaptive integration of (1/sqrt(2pi)) int e^{ipx} (ip)^a f_hat(p) dp.

    Independent of the FFT engine but for its |p|^a, ip_power's body with the
    order gated once (_branch_power); this is the reference all derived
    comparison values come from.  The caller guarantees f_hat is negligible
    beyond p_cutoff (for a Gaussian transform, 40 is ample).
    The integrand oscillates at frequency |x|, so initial panels are capped
    at a quarter period; the cusp/zero of the multiplier sits on the panel
    boundary at p = 0.  Every panel is refined until its 15-point Kronrod
    and nested 7-point Gauss values agree: bisected, except that a panel
    ending at p = 0 is split dyadically toward it (see _adaptive).  The
    panels are evaluated in batches, many per call of f_hat, which
    receives 1-d node arrays (a function that only takes scalars is called
    point by point, and EvaluationFailure names the p where such a call
    fails).  One call evaluates the integrand at most
    _QUAD_MAX_EVALS times.

    Errors: the order's as in require_order, and OrderTooLarge where
    the |p|^a overflows at a node (at the default p_cutoff, from
    order about 193 on, before f_hat is called); ArgumentOutOfRange for an x
    or p_cutoff that require_real rejects, a p_cutoff <= 0, or root panels
    past _QUAD_MAX_EVALS; ToleranceNotReached for a non-finite integrand
    value or panel sum (f_hat near the float range), a spent budget, or an
    error estimate above _QUAD_FAIL_EST.
    """
    alpha = require_order(alpha)
    x = specfun.require_real("x", x)
    p_cutoff = specfun.require_real("p_cutoff", p_cutoff)
    if p_cutoff <= 0:
        raise specfun.ArgumentOutOfRange(f"p_cutoff must be > 0, got {p_cutoff}")
    width = min(4.0, 0.5 * np.pi / (abs(x) + 0.25))     # a quarter period, never 0
    m = p_cutoff / width                    # inf past the float range, past any budget
    if m < math.inf:
        m = max(1, math.ceil(m))            # a subnormal p_cutoff / width rounds to 0
    panels = 2 * m
    if panels * _NODES.size > _QUAD_MAX_EVALS:
        raise specfun.ArgumentOutOfRange(f"x={x} with p_cutoff={p_cutoff} needs {panels} root "
                                         f"panels, past {_QUAD_MAX_EVALS} integrand evaluations")
    edges = np.minimum(width * np.arange(m + 1), p_cutoff)
    lo = np.concatenate([edges[:-1], -edges[1:]])
    hi = np.concatenate([edges[1:], -edges[:-1]])
    tol = _QUAD_ABS_TOL / lo.size
    total, est = _adaptive(f_hat, alpha, x, lo, hi, tol)
    if est > _QUAD_FAIL_EST:
        raise ToleranceNotReached(f"estimated error {est:.3e} exceeds {_QUAD_FAIL_EST:.1e}")
    return total / SQRT_2PI


# --- eigenfunctions of the fractional momentum operator --------------------

@dataclass(frozen=True)
class EigenstateSpec:
    """Order and eigenvalue of a momentum eigenfunction.

    The implied plane-wave frequency q solves q^alpha = eigenvalue; for
    order 2 the eigenfunction is the cosine combination and the eigenvalue
    must be > 0.  The order must be finite and > 0, else
    AlphaInForbiddenRange: P_0 is the identity, which implies no frequency.
    The eigenvalue must be finite, else ArgumentOutOfRange, and may be
    negative only at odd integer orders: the symbol p^a = |p|^a e^{-i*a*pi}
    of a q < 0 is real and negative only there.
    """
    alpha: float
    eigenvalue: float

    def __post_init__(self):
        # both fields hold the floats their gates return
        object.__setattr__(self, "alpha", require_order(self.alpha))
        if self.alpha == 0:
            raise AlphaInForbiddenRange("order 0 has no eigenfunction frequency: "
                                        "P_0 is the identity")
        eigenvalue = specfun.require_real("eigenvalue", self.eigenvalue)
        object.__setattr__(self, "eigenvalue", eigenvalue)
        if eigenvalue <= 0 and self.alpha == 2:
            raise specfun.ArgumentOutOfRange("order-2 eigenvalue must be > 0")
        if eigenvalue < 0 and self.alpha % 2 != 1:
            raise specfun.ArgumentOutOfRange(f"eigenvalue must be >= 0 for order {self.alpha}: "
                                             f"only odd integer orders have negative ones")


_ONGRID_RTOL = 1e-9


def _implied_frequency(spec):
    """Solve q^alpha = E for the plane-wave frequency q; q = -|E|^(1/alpha) for E < 0.

    A q past the float range lies past any Nyquist bin: FrequencyOffGrid.
    """
    alpha, e = spec.alpha, spec.eigenvalue
    if alpha == 1:
        return e
    try:
        q = abs(e) ** (1.0 / alpha)     # 1/alpha is inf at a subnormal order
    except OverflowError:
        q = math.inf
    if q == math.inf:
        raise FrequencyOffGrid(f"the frequency of eigenvalue {e:g} at order {alpha:g} "
                               f"overflows double precision, past any Nyquist bin")
    return -q if e < 0 else q


def eigenstate_signal(spec, grid):
    """Sample the eigenfunction of the order-alpha momentum operator.

    Plane wave e^{iqx} with q^alpha = E (every order but 2), or
    cos(sqrt(E) x)/sqrt(E) for order 2.  The engine's P_a is diagonal on
    the sample vector exactly where the frequency lands on a bin k*dp of
    the grid: for a plane wave with |k| < n/2, since the engine splits the
    Nyquist bin k = n/2 between +-pi/dx, and for the cosine with
    |k| <= n/2, since it has both signs.  Anything else raises
    FrequencyOffGrid.
    """
    if spec.alpha == 2:
        q = math.sqrt(spec.eigenvalue)
        _check_on_grid(q, grid)
        values = np.cos(q * grid.x) / q
        return SampledSignal(grid, values)
    q = _implied_frequency(spec)
    if abs(_check_on_grid(q, grid)) == grid.n // 2:
        raise FrequencyOffGrid(f"plane wave of frequency {q} at the Nyquist bin of {grid}, "
                               f"which the engine splits between +-pi/dx")
    values = np.exp(1j * q * grid.x)
    return SampledSignal(grid, values)


def _check_on_grid(q, grid):
    """The bin k = q/dp, a whole number with |k| <= n/2, else FrequencyOffGrid."""
    k = q / grid.dp
    if abs(k - round(k)) > _ONGRID_RTOL * max(1.0, abs(k)):
        raise FrequencyOffGrid(
            f"frequency {q} is {k:.6f} grid bins (dp={grid.dp:.6g}); not on the grid")
    if abs(round(k)) > grid.n // 2:
        raise FrequencyOffGrid(f"frequency {q} beyond the Nyquist bin for {grid}")
    return round(k)
