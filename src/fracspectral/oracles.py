"""Closed-form fractional derivatives and an independent quadrature reference.

These are the ground-truth routes against which the FFT engine is judged:

* gaussian_deriv / x2gaussian_deriv: analytic formulas in terms of Gamma
  and 1F1, evaluated exactly as written (no algebraic simplification);
  an order whose value overflows double precision raises OrderTooLarge.
* exp_rule / monomial_deriv: rule objects for functions that are not
  square-integrable; they never touch the FFT path, which would silently
  periodize them.
* quadrature_reference: direct adaptive integration of the defining
  inverse-transform integral, sharing no code with the fast transform.
* eigenstate_signal: sampled eigenfunctions of the fractional momentum
  operator with their frequency pinned exactly onto the discrete grid.
"""
import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .grid import SampledSignal
from .spectral import ip_power, require_order

_SQRT_PI = math.sqrt(math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


class NonPositiveK(ValueError):
    pass


class FrequencyOffGrid(ValueError):
    pass


class ToleranceNotReached(RuntimeError):
    pass


class Undefined:
    """Distinguished result for monomial orders with no assigned meaning.

    A singleton, returned (never raised) where the case analysis of
    fractional monomial derivatives leaves the value unassigned.
    """
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Undefined"

    def __bool__(self):
        return False


UNDEFINED = Undefined()


def gaussian_deriv(alpha, x):
    """Fractional derivative of e^{-x^2}, closed form.

    (2^a/sqrt(pi)) [cos(a*pi/2) Gamma((1+a)/2) 1F1((1+a)/2, 1/2, -x^2)
                    - a*x*sin(a*pi/2) Gamma(a/2) 1F1(1 + a/2, 3/2, -x^2)]

    The Gamma(a/2) term is taken as 0 at a = 0: the prefactor a cancels the
    pole, and the surviving term is e^{-x^2} itself.
    """
    alpha = float(alpha)
    x = float(x)
    require_order(alpha)
    z = -x * x
    t1 = (math.cos(alpha * np.pi / 2)
          * specfun.gamma((1 + alpha) / 2)
          * specfun.kummer_1f1((1 + alpha) / 2, 0.5, z))
    if alpha == 0:
        t2 = 0.0
    else:
        t2 = (alpha * x * math.sin(alpha * np.pi / 2)
              * specfun.gamma(alpha / 2)
              * specfun.kummer_1f1(1 + alpha / 2, 1.5, z))
    return complex(specfun.require_finite(2.0 ** alpha / _SQRT_PI * (t1 - t2),
                                          specfun.ORDER_OVERFLOW, "gaussian_deriv", alpha))


def x2gaussian_deriv(alpha, x):
    """Fractional derivative of x^2 e^{-x^2}, closed form.

    Written exactly as derived, with the i^a and (-i)^a phases kept
    explicit (i^a + (-i)^a recombines to 2 cos(a*pi/2); the second group
    carries the odd-in-x part).  Real-valued for real alpha, x.
    """
    alpha = float(alpha)
    x = float(x)
    require_order(alpha)
    z = -x * x
    i_a = cmath.exp(1j * alpha * np.pi / 2)      # i^a
    mi_a = cmath.exp(-1j * alpha * np.pi / 2)    # (-i)^a
    g1 = (specfun.kummer_1f1((1 + alpha) / 2, 0.5, z)
          - (1 + alpha) * specfun.kummer_1f1((3 + alpha) / 2, 0.5, z))
    g2 = (specfun.kummer_1f1((2 + alpha) / 2, 1.5, z)
          - (2 + alpha) * specfun.kummer_1f1((4 + alpha) / 2, 1.5, z))
    # Gamma before the power, as in gaussian_deriv: 2.0 ** a raises
    # OverflowError past a = 1024, Gamma OrderTooLarge past a = 342
    terms = ((i_a + mi_a) * specfun.gamma((1 + alpha) / 2) * g1
             - 2j * (mi_a - i_a) * x * specfun.gamma(1 + alpha / 2) * g2)
    return complex(specfun.require_finite(2.0 ** (alpha - 2) / _SQRT_PI * terms,
                                          specfun.ORDER_OVERFLOW, "x2gaussian_deriv", alpha))


def exp_rule(k, alpha, x):
    """Fractional derivative of e^{kx} for k > 0: k^a e^{kx}."""
    k = float(k)
    if k <= 0:
        raise NonPositiveK(f"exponential rule requires k > 0, got {k}")
    require_order(alpha)
    return k ** alpha * math.exp(k * x)


def monomial_deriv(n, alpha, x):
    """Fractional derivative of x^n by the distributional case table.

    Integer orders up to n give the usual falling-factorial derivatives;
    any order above n gives 0; non-integer orders below n have no assigned
    value and return the UNDEFINED singleton (not an exception).
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    alpha = float(alpha)
    require_order(alpha)
    if alpha == 0:
        return float(x) ** n
    if alpha > n:
        return 0.0
    if alpha == math.floor(alpha):
        m = int(alpha)  # 1 <= m <= n here
        coeff = 1.0
        for i in range(m):
            coeff *= n - i
        return coeff * float(x) ** (n - m)
    return UNDEFINED


# --- direct quadrature of the inverse-transform integral -------------------

# Gauss-Legendre pair: the 15-point value is kept, the 7-point one only
# feeds the error estimate.
_GL7_NODES, _GL7_WEIGHTS = np.polynomial.legendre.leggauss(7)
_GL15_NODES, _GL15_WEIGHTS = np.polynomial.legendre.leggauss(15)
_NODES = np.concatenate([_GL15_NODES, _GL7_NODES])

_QUAD_ABS_TOL = 1e-11
_QUAD_MAX_DEPTH = 64
# panels evaluated per integrand call; bounds the node array at 512 * 22
_QUAD_BATCH = 512
#: Most root panels quadrature_reference builds.  Root panels are a quarter
#: period of e^{ipx} wide, so their count, 4 * p_cutoff * (|x| + 1/4) / pi,
#: grows with |x|: 1,032 at x = 20.  The cap (0.14 s of work on a 2-vCPU VM) is
#: reached near |x| = 1286 at the default p_cutoff of 40.
QUAD_MAX_ROOT_PANELS = 2 ** 16
# if the summed panel estimates exceed this, the result cannot serve as an
# oracle for 1e-8-level comparisons and we refuse to return it
_QUAD_FAIL_EST = 1e-9


def _eval_integrand(f_hat, alpha, x, p):
    return np.exp(1j * p * x) * ip_power(alpha, p) * _as_array(f_hat, p)


def _as_array(f_hat, p):
    """f_hat at the nodes p; point by point if it does not map arrays."""
    try:
        arr = np.asarray(f_hat(p), dtype=complex)
    except TypeError:
        arr = None
    if arr is None or arr.shape != p.shape:
        arr = np.array([complex(f_hat(pj)) for pj in p])
    return arr


def _adaptive(f_hat, alpha, x, lo, hi, tol):
    """Adaptive bisection of the panels [lo[k], hi[k]]; returns (value, error_estimate).

    Pending panels are held as arrays.  Each step takes up to _QUAD_BATCH of
    them and evaluates all their nodes in one integrand call; a panel whose
    G15 and G7 values differ by at most tol, or that is _QUAD_MAX_DEPTH
    bisections deep, is accepted, and the others are replaced by their halves.
    """
    depth = np.zeros(lo.size, dtype=int)
    total = 0.0 + 0.0j
    est = 0.0
    while lo.size:
        rest = max(lo.size - _QUAD_BATCH, 0)
        a, b, d = lo[rest:], hi[rest:], depth[rest:]
        lo, hi, depth = lo[:rest], hi[:rest], depth[:rest]
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        p = (mid[:, None] + half[:, None] * _NODES).ravel()
        f = _eval_integrand(f_hat, alpha, x, p).reshape(a.size, _NODES.size)
        bad = ~np.isfinite(f)
        if bad.any():
            raise ToleranceNotReached(
                f"integrand is not finite at p = {p.reshape(f.shape)[bad][0]:.6g}")
        v15 = half * np.sum(_GL15_WEIGHTS * f[:, :_GL15_NODES.size], axis=1)
        v7 = half * np.sum(_GL7_WEIGHTS * f[:, _GL15_NODES.size:], axis=1)
        err = np.abs(v15 - v7)
        done = (err <= tol) | (d >= _QUAD_MAX_DEPTH)
        total += np.sum(v15[done])
        est += np.sum(err[done])
        split = ~done
        a, mid, b, d = a[split], mid[split], b[split], d[split] + 1
        lo = np.concatenate([lo, a, mid])
        hi = np.concatenate([hi, mid, b])
        depth = np.concatenate([depth, d, d])
    return total, est


def quadrature_reference(f_hat, alpha, x, p_cutoff=40.0):
    """Direct adaptive integration of (1/sqrt(2pi)) int e^{ipx} (ip)^a f_hat(p) dp.

    Completely independent of the FFT engine; this is the reference all
    derived comparison values come from.  The caller guarantees f_hat is
    negligible beyond p_cutoff (for a Gaussian transform, 40 is ample).
    The integrand oscillates at frequency |x|, so initial panels are capped
    at a quarter period; the cusp/zero of the multiplier sits on the panel
    boundary at p = 0.  Every panel is bisected until its 15- and 7-point
    Gauss-Legendre values agree; the panels are evaluated in batches, many
    per call of f_hat, which receives 1-d node arrays (a function that only
    takes scalars is called point by point).

    An order that require_order rejects raises NegativeAlpha; a non-finite
    x, a p_cutoff that is not finite and positive, or an |x| * p_cutoff
    that needs more than QUAD_MAX_ROOT_PANELS root panels raises
    ValueError; a non-finite integrand value, or an error estimate above
    _QUAD_FAIL_EST, raises ToleranceNotReached.
    """
    alpha = float(alpha)
    x = float(x)
    require_order(alpha)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if not (math.isfinite(p_cutoff) and p_cutoff > 0):
        raise ValueError(f"p_cutoff must be finite and > 0, got {p_cutoff}")
    width = min(4.0, 2 * np.pi / (4 * (abs(x) + 0.25)))
    panels = 2 * math.ceil(p_cutoff / width)
    if panels > QUAD_MAX_ROOT_PANELS:
        raise ValueError(f"x={x} with p_cutoff={p_cutoff} needs {panels} root panels, "
                         f"more than {QUAD_MAX_ROOT_PANELS}")
    edges = [0.0]
    while edges[-1] < p_cutoff:
        edges.append(min(p_cutoff, edges[-1] + width))
    edges = np.array(edges)
    lo = np.concatenate([edges[:-1], -edges[1:]])
    hi = np.concatenate([edges[1:], -edges[:-1]])
    tol = _QUAD_ABS_TOL / lo.size
    total, est = _adaptive(f_hat, alpha, x, lo, hi, tol)
    if est > _QUAD_FAIL_EST:
        raise ToleranceNotReached(f"estimated error {est:.3e} exceeds {_QUAD_FAIL_EST:.1e}")
    return total / _SQRT_2PI


# --- eigenfunctions of the fractional momentum operator --------------------

@dataclass(frozen=True)
class EigenstateSpec:
    """Order and eigenvalue of a momentum eigenfunction.

    The implied plane-wave frequency q solves q^alpha = eigenvalue; for
    order 2 the eigenfunction is the cosine combination and the eigenvalue
    must be >= 0.  The order must be finite and > 0: P_0 is the identity,
    which implies no frequency.  The eigenvalue must be finite.
    """
    alpha: float
    eigenvalue: float

    def __post_init__(self):
        require_order(self.alpha)
        if self.alpha == 0:
            raise ValueError("order 0 has no eigenfunction frequency: P_0 is the identity")
        if not math.isfinite(self.eigenvalue):
            raise ValueError(f"eigenvalue must be finite, got {self.eigenvalue}")
        if self.alpha == 2 and self.eigenvalue < 0:
            raise ValueError("order-2 eigenvalue must be >= 0")


_ONGRID_RTOL = 1e-9


def _implied_frequency(spec):
    """Solve q^alpha = E for the plane-wave frequency q."""
    alpha, e = spec.alpha, spec.eigenvalue
    if alpha == 1:
        return e
    r = 1.0 / alpha
    # reciprocal odd integer orders (1/3, 1/5, ...) invert via an odd power
    # and so accept negative eigenvalues
    if abs(r - round(r)) < 1e-12 and int(round(r)) % 2 == 1:
        return math.copysign(abs(e) ** round(r), e)
    if e < 0:
        raise ValueError(f"eigenvalue must be >= 0 for order {alpha}")
    return e ** r


def eigenstate_signal(spec, grid):
    """Sample the eigenfunction of the order-alpha momentum operator.

    Plane wave e^{iqx} with q^alpha = E (orders 1 and fractional), or
    cos(sqrt(E) x)/sqrt(E) for order 2.  The frequency must land exactly on
    the discrete frequency set, else FrequencyOffGrid: only then is the
    operator literally diagonal on the sample vector.
    """
    if spec.alpha == 2:
        q = math.sqrt(spec.eigenvalue)
        if q == 0:
            raise ValueError("order-2 eigenstate needs eigenvalue > 0")
        _check_on_grid(q, grid)
        values = np.cos(q * grid.x) / q
        return SampledSignal(grid, values)
    q = _implied_frequency(spec)
    _check_on_grid(q, grid)
    values = np.exp(1j * q * grid.x)
    return SampledSignal(grid, values)


def _check_on_grid(q, grid):
    k = q / grid.dp
    if abs(k - round(k)) > _ONGRID_RTOL * max(1.0, abs(k)):
        raise FrequencyOffGrid(
            f"frequency {q} is {k:.6f} grid bins (dp={grid.dp:.6g}); not on the grid")
    if abs(round(k)) > grid.n // 2:
        raise FrequencyOffGrid(f"frequency {q} beyond the Nyquist bin for {grid}")
