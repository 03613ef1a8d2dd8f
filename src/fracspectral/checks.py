"""Self-check suites driving the library's invariants.

Each suite returns a list of CheckResult rows; a row with passed=None is
informational (diagnostic tables that are deliberately not asserted).
The CLI prints these and folds them into an exit code.

Suites:
  integer     -- integer orders collapse to ordinary derivatives
  closedform  -- analytic formulas vs the independent quadrature and rules
  commutator  -- operator-algebra identities on the high-resolution grid
  uncertainty -- spreads, bound values, and the bound curve's structure
  convergence -- transform analytics: unitarity, order-continuity, parity
  duality     -- moving the operator across a pairing (integer asserted,
                 fractional reported)
"""
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import oracles, specfun
from .grid import SampledSignal, central_gap, central_window, make_grid, sample
from .oracles import gaussian, x2gaussian
from .quantum import (commutator_dx, commutator_ladder, expectation, gaussian_state,
                      high_res_grid, symmetry_residual, uncertainty_bound,
                      uncertainty_check)
from .spectral import (AlphaInForbiddenRange, MinusOneBranch, Pairing, SQRT_2PI,
                       _abs_power, duality_residual, forward, fractional_derivative,
                       fractional_momentum, inverse, order_continuity_gap,
                       pairing_continuity_gap, product_rule)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: Optional[bool]           # None: informational only
    measured: float
    tolerance: Optional[float] = None
    detail: str = ""


class _Recorder:
    def __init__(self):
        self.results = []

    def below(self, name, measured, tol, detail=""):
        self.results.append(CheckResult(name, bool(measured < tol), float(measured),
                                        float(tol), detail))

    def holds(self, name, ok, measured=0.0, detail=""):
        self.results.append(CheckResult(name, bool(ok), float(measured), None, detail))

    def info(self, name, measured, detail=""):
        self.results.append(CheckResult(name, None, float(measured), None, detail))


def _default_grid():
    return make_grid(-16.0, 16.0, 4096)


def _gaussian_ordinary(order, x):
    # 0..3: e^{-x^2} times 1, -2x, 4x^2-2, 12x-8x^3
    e = gaussian(x)
    if order == 0:
        return e
    if order == 1:
        return -2 * x * e
    if order == 2:
        return (4 * x * x - 2) * e
    return (12 * x - 8 * x ** 3) * e


def suite_integer():
    r = _Recorder()
    g = _default_grid()
    sig = sample(gaussian, g)
    window = np.abs(g.x) <= 4.0

    derivs = [fractional_derivative(sig, float(order)) for order in range(4)]
    for order, d in enumerate(derivs):
        gap = float(np.max(np.abs(d.values[window] - _gaussian_ordinary(order, g.x[window]))))
        r.below(f"engine order {order} vs ordinary derivative (|x|<=4)", gap, 1e-8)

    xs = np.array([0.0, 0.5, 1.0, 2.0])
    for order in range(4):
        ref = _gaussian_ordinary(order, xs)
        gap = np.abs(oracles.gaussian_deriv(order, xs).real - ref) / np.maximum(np.abs(ref), 1e-3)
        r.below(f"closed form order {order} collapses to ordinary derivative", gap.max(), 1e-9)

    step = derivs[1]
    for order in (2, 3):
        step = fractional_derivative(step, 1.0)       # D^1 applied order times
        scale = float(np.max(np.abs(derivs[order].values)))
        gap = float(np.max(np.abs(derivs[order].values - step.values))) / scale
        r.below(f"order {order} equals {order}-fold first derivative (rel)", gap, 1e-9)

    g256 = make_grid(-16.0, 16.0, 256)
    f1 = sample(gaussian, g256)
    leib = product_rule(f1, f1, 1.0)
    ref = -4 * g256.x * np.exp(-2 * g256.x ** 2)
    r.below("product rule, order 1, gaussian*gaussian (central half)",
            central_gap(leib.values, ref), 1e-6)
    one = SampledSignal(g256, np.ones(256))
    prod2 = product_rule(f1, one, 2.0)
    r.below("product rule, order 2, against constant-1 factor (central half)",
            central_gap(prod2.values, _gaussian_ordinary(2, g256.x)), 1e-6)
    return r.results


def suite_closedform():
    r = _Recorder()

    xs = np.linspace(-3.0, 3.0, 25)
    for alpha in (0.0, 0.02, 0.1, 0.5, 1.0, 2.0, 4.5, 5.0, 5.5):
        q = [oracles.quadrature_reference(oracles.gaussian_hat, alpha, x) for x in xs.tolist()]
        gap = np.abs(np.array(q) - oracles.gaussian_deriv(alpha, xs))
        r.below(f"gaussian closed form vs quadrature, order {alpha}", gap.max(), 1e-8)

    spot = 2.0 ** 0.5 * math.cos(math.pi / 4) * specfun.gamma(0.75) / math.sqrt(math.pi)
    r.below("half-order gaussian at x=0: closed form vs reduction",
            abs(oracles.gaussian_deriv(0.5, 0.0) - spot), 1e-9)
    r.below("half-order gaussian at x=0: quadrature vs reduction",
            abs(oracles.quadrature_reference(oracles.gaussian_hat, 0.5, 0.0) - spot), 1e-9)

    # math.exp, not np.exp, for the references: the two can differ in the last bit
    ref = np.array([x * x * math.exp(-x * x) for x in (0.5, 1.0)])
    gap = np.abs(oracles.x2gaussian_deriv(0.0, np.array([0.5, 1.0])) - ref) / ref
    r.below("x2-gaussian closed form at order 0 (rel)", gap.max(), 1e-9)
    ref = np.array([2 * x * (1 - x * x) * math.exp(-x * x) for x in (0.5, 1.0, 2.0)])
    gap = np.abs(oracles.x2gaussian_deriv(1.0, np.array([0.5, 1.0, 2.0])) - ref)
    r.below("x2-gaussian closed form at order 1", gap.max(), 1e-10)

    gw = make_grid(-128.0, 128.0, 8192)
    sig2 = sample(x2gaussian, gw)
    d = fractional_derivative(sig2, 0.5)
    j = int(np.argmin(np.abs(gw.x - 1.0)))
    r.below("x2-gaussian half order at x=1: engine vs closed form",
            abs(d.values[j] - oracles.x2gaussian_deriv(0.5, 1.0)), 1e-3)

    # D^a -> identity as a -> 0: the image sum takes zeta(1 + a)'s pole term at a itself
    g8 = make_grid(-8.0, 8.0, 256)
    gap = (fractional_derivative(sample(gaussian, g8), 1e-12).values
           - oracles.gaussian_deriv(1e-12, g8.x))
    r.below("gaussian order 1e-12: engine vs closed form (|x|<=4)",
            np.max(np.abs(gap[np.abs(g8.x) <= 4.0])), 1e-13)

    r.below("exp rule k=1 half order at 0", abs(oracles.exp_rule(1.0, 0.5, 0.0) - 1.0), 1e-12)
    r.below("exp rule k=2 half order at 0",
            abs(oracles.exp_rule(2.0, 0.5, 0.0) - math.sqrt(2.0)), 1e-12)
    r.below("exp rule k=3 order 2 at 1",
            abs(oracles.exp_rule(3.0, 2.0, 1.0) - 9.0 * math.exp(3.0)), 1e-10)

    table_ok = (
        oracles.monomial_deriv(0, 0.0, 2.0) == 1.0
        and oracles.monomial_deriv(0, 0.7, 2.0) == 0.0
        and oracles.monomial_deriv(1, 1.0, 5.0) == 1.0
        and oracles.monomial_deriv(1, 2.5, 5.0) == 0.0
        and oracles.monomial_deriv(1, 0.5, 0.0) is oracles.UNDEFINED
        and oracles.monomial_deriv(2, 1.0, 3.0) == 6.0
        and oracles.monomial_deriv(2, 2.0, 3.0) == 2.0
        and oracles.monomial_deriv(2, 3.0, 3.0) == 0.0
        and oracles.monomial_deriv(2, 1.5, 3.0) is oracles.UNDEFINED
    )
    r.holds("monomial case table", table_ok)

    r.below("gamma(0.5) vs sqrt(pi)", abs(specfun.gamma(0.5) - math.sqrt(math.pi)), 1e-12)
    worst = 0.0
    for x in np.arange(0.1, 9.91, 0.15):
        lhs = specfun.gamma(x + 1.0)
        worst = max(worst, abs(lhs - x * specfun.gamma(x)) / abs(lhs))
    r.below("gamma recurrence (rel)", worst, 1e-12)
    worst = 0.0
    for x in np.linspace(-6.0, 6.0, 25):
        z = -x * x
        e = math.exp(z)
        worst = max(worst, abs(specfun.kummer_1f1(1.5, 1.5, z) - e) / e)
        ref = (1 - 2 * x * x / 3) * e
        if abs(ref) > 1e-30:
            worst = max(worst, abs(specfun.kummer_1f1(2.5, 1.5, z) - ref) / abs(ref))
    r.below("1F1 exponential-family identities (rel)", worst, 1e-9)
    worst = 0.0
    for a, b in ((0.75, 0.5), (1.25, 1.5), (2.5, 0.5)):
        for z in (-4.0, -2.0, -0.5, 0.5, 2.0, 4.0):
            direct = specfun.kummer_1f1_series(a, b, z)
            main = specfun.kummer_1f1(a, b, z)
            worst = max(worst, abs(direct - main) / abs(main))
    r.below("1F1 direct series vs transformed route (rel)", worst, 1e-8)

    ge = make_grid(-4 * np.pi, 4 * np.pi, 1024)
    for alpha, eig in ((1.0, 2.0), (1.0 / 3.0, 1.0), (2.0, 4.0)):
        spec_e = oracles.EigenstateSpec(alpha=alpha, eigenvalue=eig)
        f = oracles.eigenstate_signal(spec_e, ge)
        pf = fractional_momentum(f, alpha)
        scale = float(np.max(np.abs(f.values)))
        gap = float(np.max(np.abs(pf.values - eig * f.values))) / scale
        r.below(f"eigenstate order {alpha:g}, eigenvalue {eig:g} (rel sup)", gap, 1e-10)
    return r.results


def suite_commutator():
    r = _Recorder()
    g = high_res_grid()
    f1 = sample(gaussian, g)
    f2 = sample(x2gaussian, g)

    for label, f in (("gaussian", f1), ("x2-gaussian", f2)):
        for alpha in (0.0, 1.0, 1.5, 2.0, 2.5, 3.0):
            _, _, gap = commutator_dx(f, alpha)
            r.below(f"x-commutator identity, order {alpha:g}, {label}", gap, 1e-6)

    xf = SampledSignal(g, g.x * f1.values)
    ladders = {alpha: commutator_ladder(f1, alpha) for alpha in (0.0, 1.0, 1.5, 2.0)}
    for alpha, (lhs, _, _) in ladders.items():
        direct = -1j * (g.x * fractional_momentum(f1, alpha).values
                        - fractional_momentum(xf, alpha).values)
        r.below(f"ladder commutator equals -i[x, P] route, order {alpha:g}",
                central_gap(lhs.values, direct), 1e-9)

    _, _, gap = commutator_ladder(f2, 3.0)
    r.below("ladder commutator identity, order 3, x2-gaussian", gap, 1e-6)

    _, rhs, _ = ladders[1.0]
    r.below("ladder commutator at order 1 returns the state itself",
            central_gap(rhs.values, f1.values), 1e-12)

    for fn in (commutator_dx, commutator_ladder):
        try:
            fn(f1, 0.5)
            r.holds(f"{fn.__name__} rejects order 1/2", False)
        except AlphaInForbiddenRange:
            r.holds(f"{fn.__name__} rejects order 1/2", True)

    gs = _default_grid()
    a = sample(gaussian, gs)
    b = sample(x2gaussian, gs)
    for alpha in (1.0, 2.0):
        r.below(f"momentum symmetry across the pairing, order {alpha:g}",
                abs(symmetry_residual(a, b, alpha)), 1e-10)
    return r.results


def suite_uncertainty():
    r = _Recorder()
    r.below("bound at order 1 equals 1/2", abs(uncertainty_bound(1.0) - 0.5), 1e-12)
    r.below("bound at order 2 vanishes", abs(uncertainty_bound(2.0)), 1e-12)
    r.below("bound at order 3 equals 3/2", abs(uncertainty_bound(3.0) - 1.5), 1e-12)

    state = gaussian_state(high_res_grid())
    reports = {alpha: uncertainty_check(alpha, state) for alpha in (1.0, 1.5, 2.0, 3.0)}
    for alpha in (1.0, 1.5, 3.0):
        ref = uncertainty_bound(alpha)
        r.below(f"numeric bound matches analytic bound, order {alpha:g} (rel)",
                abs(reports[alpha].rhs_bound - ref) / ref, 1e-6)
    rep1 = reports[1.0]
    r.below("order-1 product sits on the bound (minimum-uncertainty state)",
            abs(rep1.product - rep1.rhs_bound), 1e-9)
    for rep in (reports[1.0], reports[2.0], reports[3.0]):
        r.holds(f"spreads finite and nonnegative, order {rep.alpha:g}",
                rep.delta_x >= 0 and rep.delta_p_alpha >= 0 and rep.satisfied,
                measured=rep.product)

    scan = np.arange(601) / 100.0
    vals = np.array([uncertainty_bound(a) for a in scan])
    zeros = scan[np.abs(vals) < 1e-12]
    r.holds("bound curve vanishes exactly at even orders",
            set(np.round(zeros, 2)) == {0.0, 2.0, 4.0, 6.0},
            measured=float(len(zeros)))
    high = float(np.max(vals[(scan >= 5.0) & (scan <= 6.0)]))
    low = float(np.max(vals[(scan >= 2.5) & (scan <= 3.5)]))
    r.holds("bound maxima grow with the order", high > low, measured=high - low)

    xphi = SampledSignal(state.grid, state.grid.x * state.values)
    r.below("Gaussian position mean", abs(expectation(xphi, state)), 1e-12)
    r.below("identity-operator expectation",
            abs(expectation(state, state) - 1.0), 1e-10)
    p1 = fractional_momentum(state, 1.0)
    r.below("Gaussian momentum mean", abs(expectation(p1, state)), 1e-10)
    return r.results


def suite_convergence():
    r = _Recorder()
    g = _default_grid()
    f1 = sample(gaussian, g)
    f2 = sample(x2gaussian, g)

    d_f1 = functools.cache(lambda alpha: fractional_derivative(f1, alpha))   # once per order
    c1, c2 = forward(f1), forward(f2)
    mask = np.abs(g.p) <= 8.0
    ref = oracles.gaussian_hat(g.p[mask])
    r.below("forward transform of the gaussian (|p|<=8)",
            float(np.max(np.abs(c1.coeffs[mask] - ref))), 1e-10)
    ref2 = oracles.x2gaussian_hat(g.p[mask])
    r.below("forward transform of the x2-gaussian (|p|<=8)",
            float(np.max(np.abs(c2.coeffs[mask] - ref2))), 1e-10)

    for label, s, spectrum in (("gaussian", f1, c1), ("x2-gaussian", f2, c2)):
        back = inverse(spectrum)
        scale = float(np.max(np.abs(s.values)))
        r.below(f"round trip, {label} (rel sup)",
                float(np.max(np.abs(back.values - s.values))) / scale, 1e-12)
        e_x = float(np.sum(np.abs(s.values) ** 2) * g.dx)
        e_p = float(np.sum(np.abs(spectrum.coeffs) ** 2) * g.dp)
        r.below(f"energy identity between domains, {label} (rel)",
                abs(e_x - e_p) / e_x, 1e-12)

    # D^b D^a f1 against the closed form at a + b, at the grid points x = -4, -3.5, ..., 4;
    # scalar calls, once per a + b, cost less than the array route at 17 points
    at = slice(1536, 2561, 64)
    closed = functools.cache(lambda order: np.array(
        [oracles.gaussian_deriv(order, x) for x in g.x[at].tolist()]))
    for a in (0.3, 0.7, 1.5):
        for b in (0.3, 0.7, 1.5):
            two = fractional_derivative(d_f1(a), b).values[at]
            ref = closed(a + b)
            r.below(f"order additivity {a:g}+{b:g} (rel sup)",
                    float(np.max(np.abs(two - ref)) / np.max(np.abs(ref))), 1e-10)

    for alpha in (0.0, 0.5, 1.0, 2.5):
        lhs = float(np.max(np.abs(d_f1(alpha).values)))
        rhs = float(np.sum(_abs_power(alpha, np.abs(g.p)) * np.abs(c1.coeffs)) * g.dp / SQRT_2PI)
        r.holds(f"sup bound by the weighted spectrum, order {alpha:g}",
                lhs <= rhs * (1 + 1e-12), measured=rhs - lhs)

    for n in (0, 5):
        gaps = [order_continuity_gap(f1, n, k) for k in (10, 100, 1000)]
        r.holds(f"order-continuity gaps decrease at integer {n}",
                gaps[0] > gaps[1] > gaps[2], measured=gaps[2])
    # gaps is from the pass at n = 5
    r.below("order-continuity ratio at integer 5 (k=1000 over k=10)",
            gaps[2] / gaps[0], 0.1)

    gap10 = pairing_continuity_gap(f1, f1, f2, 0.5, 10)
    gap100 = pairing_continuity_gap(f1, f1, f2, 0.5, 100)
    r.below("pairing gap scales as 1/n (ratio vs 10)",
            abs(gap10 / gap100 - 10.0), 0.1)
    zero = SampledSignal(g, np.zeros(g.n))
    r.below("pairing gap vanishes for a zero perturbation",
            pairing_continuity_gap(f1, f1, zero, 0.5, 7), 1e-15)

    rev = slice(1, None)
    for alpha in (1.0 / 50, 1.0 / 10, 0.5):
        d = d_f1(alpha).values
        asym = float(np.max(np.abs(d[rev] - d[rev][::-1])))
        r.holds(f"even symmetry broken at order {alpha:g}", asym > 1e-3, measured=asym)
    for alpha in (0.0, 2.0):
        d = d_f1(alpha).values
        asym = float(np.max(np.abs(d[rev] - d[rev][::-1])))
        r.below(f"even symmetry kept at order {alpha:g}", asym, 1e-8)

    g256 = make_grid(-16.0, 16.0, 256)
    a = sample(gaussian, g256)
    b = sample(x2gaussian, g256)
    w = central_window(256)
    via_pair = product_rule(a, b, 0.5)
    via_product = fractional_derivative(SampledSignal(g256, a.values * b.values), 0.5)
    num = np.sqrt(np.sum(np.abs(via_pair.values[w] - via_product.values[w]) ** 2))
    den = np.sqrt(np.sum(np.abs(via_product.values[w]) ** 2))
    r.below("product rule agrees with single-transform route (rel L2)",
            float(num / den), 1e-4)
    return r.results


def suite_duality():
    r = _Recorder()
    g = _default_grid()
    f1 = sample(gaussian, g)
    f2 = sample(x2gaussian, g)
    for alpha in (1.0, 2.0, 3.0):
        res = duality_residual(f1, f2, alpha, Pairing.SESQUILINEAR, MinusOneBranch.E_PLUS_I_PI)
        r.below(f"derivative moves across the pairing, integer order {alpha:g}",
                abs(res), 1e-10)
    res2 = duality_residual(f1, f2, 2.0, Pairing.SESQUILINEAR, MinusOneBranch.E_MINUS_I_PI)
    r.below("integer order 2, opposite continuation branch", abs(res2), 1e-10)
    for pairing in (Pairing.SESQUILINEAR, Pairing.BILINEAR):
        for branch in (MinusOneBranch.E_PLUS_I_PI, MinusOneBranch.E_MINUS_I_PI):
            res = duality_residual(f1, f2, 0.5, pairing, branch)
            r.info(f"half order diagnostic, {pairing.value}, {branch.value}", abs(res),
                   detail="reported, not asserted: no scalar continuation closes the identity")
    return r.results


_SUITES = {
    "integer": suite_integer,
    "closedform": suite_closedform,
    "commutator": suite_commutator,
    "uncertainty": suite_uncertainty,
    "convergence": suite_convergence,
    "duality": suite_duality,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name):
    """Run one named suite (or 'all'); returns the CheckResult rows."""
    if name == "all":
        return [row for suite in _SUITES.values() for row in suite()]
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    return _SUITES[name]()
