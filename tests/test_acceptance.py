"""End-to-end acceptance gate: one test per criterion, each emitting a
status line into the terminal summary.

The tests state the required tolerances literally and report the measured
values.  Criteria 2, 4 and 5 judge the FFT engine against the derivative on
the real line.  They hold because the engine subtracts the periodic images
of the slowly decaying fractional derivative of a signal that decays at the
box edge, and zeroes spectral bins below its noise floor before a high
order multiplier can amplify float roundoff.  The assertion messages still
name those two causes, which is what a failure would point back to.
"""
import math
import subprocess
import sys
from time import perf_counter

import numpy as np
import pytest

from _acceptance import record
import fracspectral as fs

F1 = lambda x: np.exp(-x * x)
F2 = lambda x: x * x * np.exp(-x * x)
F1_HAT = lambda p: np.exp(-p * p / 4.0) / math.sqrt(2.0)

# Gamma(3/4)/sqrt(pi): the half-order derivative of e^{-x^2} at x = 0
HALF_ORDER_AT_ZERO = 0.6913673390362934

# x-asymmetry of a sampled signal: the end point x_min has no mirror
def _asymmetry(values):
    inner = values[1:]
    return float(np.max(np.abs(inner - inner[::-1])))


def test_criterion_01_integer_orders_collapse():
    t0 = perf_counter()
    grid = fs.make_grid(-16.0, 16.0, 4096)
    sig = fs.sample(F1, grid)
    mask = np.abs(grid.x) <= 4.0
    x = grid.x[mask]
    e = np.exp(-x * x)
    exact = (e, -2 * x * e, (4 * x * x - 2) * e, (12 * x - 8 * x ** 3) * e)
    worst = 0.0
    for order, ref in enumerate(exact):
        d = fs.fractional_derivative(sig, float(order))
        worst = max(worst, float(np.max(np.abs(d.values[mask] - ref))))
    elapsed = perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 1.0
    record(1, "integer orders 0..3 collapse to ordinary derivatives", ok,
           f"sup={worst:.2e} t={elapsed:.2f}s")
    assert elapsed < 1.0
    assert worst < 1e-8


def test_criterion_02_closed_form_agreement():
    t0 = perf_counter()
    alphas = (0.02, 0.1, 0.5, 1.5, 2.5, 4.8, 5.2)
    xs = np.linspace(-3.0, 3.0, 25)
    worst_quad = 0.0
    for a in alphas:
        for x in xs:
            diff = abs(fs.gaussian_deriv(a, float(x))
                       - fs.quadrature_reference(F1_HAT, a, float(x)))
            worst_quad = max(worst_quad, diff)

    grid = fs.make_grid(-32.0, 32.0, 2 ** 15)
    sig = fs.sample(F1, grid)
    mask = np.abs(grid.x) <= 2.0
    engine_sup = {}
    for a in alphas:
        d = fs.fractional_derivative(sig, a)
        oracle = np.array([fs.gaussian_deriv(a, float(x)) for x in grid.x[mask]])
        engine_sup[a] = float(np.max(np.abs(d.values[mask] - oracle)))
    elapsed = perf_counter() - t0

    bad = {a: v for a, v in engine_sup.items() if not v < 1e-3}
    ok = worst_quad < 1e-8 and not bad and elapsed < 30.0
    record(2, "closed form vs quadrature (1e-8) and vs engine (1e-3)", ok,
           f"quad={worst_quad:.2e} engine_worst={max(engine_sup.values()):.2e} "
           f"t={elapsed:.1f}s")
    assert worst_quad < 1e-8
    assert elapsed < 30.0
    table = ", ".join(f"alpha={a:g}: {v:.2e}" for a, v in sorted(engine_sup.items()))
    assert not bad, (
        "engine vs closed form exceeds 1e-3 on |x|<=2, domain (-32,32), n=2^15 "
        f"[{table}] - periodic images of the |x|^(-1-alpha) tail and the "
        "finite zero-frequency bin dominate at these orders")


def test_criterion_03_half_order_spot_value():
    closed = fs.gaussian_deriv(0.5, 0.0)
    quad = fs.quadrature_reference(F1_HAT, 0.5, 0.0)
    err_closed = abs(closed - HALF_ORDER_AT_ZERO)
    err_quad = abs(quad - HALF_ORDER_AT_ZERO)
    ok = err_closed < 1e-6 and err_quad < 1e-6
    record(3, "half-order value at the origin via both oracle routes", ok,
           f"closed={closed.real:.10f} quad={quad.real:.10f}")
    assert err_closed < 1e-6
    assert err_quad < 1e-6


def test_criterion_04_order_continuity():
    t0 = perf_counter()
    grid = fs.make_grid(-16.0, 16.0, 4096)
    sig = fs.sample(F1, grid)
    gaps = {n: [fs.order_continuity_gap(sig, n, k) for k in (10, 100, 1000)]
            for n in (0, 5)}
    elapsed = perf_counter() - t0
    decreasing = all(g[0] > g[1] > g[2] for g in gaps.values())
    ratios = {n: g[2] / g[0] for n, g in gaps.items()}
    ok = decreasing and all(r < 0.10 for r in ratios.values()) and elapsed < 5.0
    record(4, "derivative order continuity at integer orders 0 and 5", ok,
           f"ratio[n=0]={ratios[0]:.3f} ratio[n=5]={ratios[5]:.4f} t={elapsed:.2f}s")
    assert elapsed < 5.0
    assert decreasing
    assert all(r < 0.10 for r in ratios.values()), (
        f"k=1000 gap not below 10% of the k=10 gap: ratios {ratios} - at n=0 "
        "the gap is dominated by the k-independent zero-frequency-bin "
        "discontinuity, so refining k stops helping")


def test_criterion_05_position_commutator():
    t0 = perf_counter()
    grid = fs.make_grid(-20.0, 20.0, 8192)
    sig = fs.sample(F1, grid)
    gaps = {}
    for a in (0.0, 1.0, 1.5, 2.5):
        _, _, gap = fs.commutator_dx(sig, a)
        gaps[a] = gap
    with pytest.raises(fs.AlphaInForbiddenRange):
        fs.commutator_dx(sig, 0.5)
    elapsed = perf_counter() - t0
    bad = {a: v for a, v in gaps.items() if not v < 1e-6}
    ok = not bad and elapsed < 5.0
    record(5, "position commutator identity; order 1/2 rejected", ok,
           f"gaps=" + "/".join(f"{v:.1e}" for _, v in sorted(gaps.items()))
           + f" t={elapsed:.2f}s")
    assert elapsed < 5.0
    table = ", ".join(f"alpha={a:g}: {v:.2e}" for a, v in sorted(gaps.items()))
    assert not bad, (
        "commutator gap exceeds 1e-6 on the central half of (-20,20), n=8192 "
        f"[{table}] - multiplying by x turns the wrap-around tail into an "
        "O(L) artifact, visible at fractional orders")


def test_criterion_06_uncertainty_bound():
    errs = [abs(fs.uncertainty_bound(1.0) - 0.5), abs(fs.uncertainty_bound(2.0))]
    state = fs.gaussian_state(fs.high_res_grid())
    rels = {}
    for a in (1.0, 1.5, 3.0):
        report = fs.uncertainty_check(a, state)
        rels[a] = abs(report.rhs_bound - fs.uncertainty_bound(a)) / fs.uncertainty_bound(a)
    scan = np.arange(601) / 100.0
    curve = np.array([fs.uncertainty_bound(a) for a in scan])
    zeros = set(scan[np.abs(curve) < 1e-12].tolist())
    ok = (max(errs) < 1e-12 and max(rels.values()) < 1e-6
          and zeros == {0.0, 2.0, 4.0, 6.0})
    record(6, "uncertainty bound: pinned values, numeric match, zero set", ok,
           f"rel_worst={max(rels.values()):.1e} zeros={sorted(zeros)}")
    assert max(errs) < 1e-12
    assert max(rels.values()) < 1e-6
    assert zeros == {0.0, 2.0, 4.0, 6.0}


def test_criterion_07_momentum_eigenstates():
    grid = fs.make_grid(-4 * math.pi, 4 * math.pi, 1024)
    worst = 0.0
    for a, q in ((1.0, 2.0), (2.0, 2.0), (1.0 / 3.0, 1.0)):
        sig = fs.SampledSignal(grid, np.exp(1j * q * grid.x))
        d = fs.fractional_momentum(sig, a)
        err = float(np.max(np.abs(d.values - q ** a * sig.values)))
        worst = max(worst, err)  # plane-wave sup norm is 1
    cos_sig = fs.eigenstate_signal(fs.EigenstateSpec(2.0, 4.0), grid)
    d = fs.fractional_momentum(cos_sig, 2.0)
    cos_err = float(np.max(np.abs(d.values - 4.0 * cos_sig.values))
                    / np.max(np.abs(cos_sig.values)))
    ok = worst < 1e-10 and cos_err < 1e-10
    record(7, "on-grid momentum eigenstates, orders 1, 2, 1/3", ok,
           f"plane={worst:.1e} cosine={cos_err:.1e}")
    assert worst < 1e-10
    assert cos_err < 1e-10


def test_criterion_08_duality_across_the_pairing():
    grid = fs.make_grid(-16.0, 16.0, 4096)
    f = fs.sample(F1, grid)
    g = fs.sample(F2, grid)
    worst = 0.0
    for a in (1.0, 2.0, 3.0):
        res = fs.duality_residual(f, g, a, fs.Pairing.SESQUILINEAR,
                                  fs.MinusOneBranch.E_PLUS_I_PI)
        worst = max(worst, abs(res))
    lines = []
    for pairing in fs.Pairing:
        for branch in fs.MinusOneBranch:
            res = fs.duality_residual(f, g, 0.5, pairing, branch)
            lines.append(f"{pairing.name.lower()}/{branch.name.lower()}: "
                         f"|residual|={abs(res):.6f}")
    print("half-order duality diagnostic (not asserted):")
    for line in lines:
        print(" ", line)
    ok = worst < 1e-10
    record(8, "derivative moves across the pairing at integer orders", ok,
           f"integer_worst={worst:.1e}; half-order table emitted")
    assert worst < 1e-10


def test_criterion_09_parity_breaking():
    grid = fs.make_grid(-16.0, 16.0, 4096)
    sig = fs.sample(F1, grid)
    broken = {a: _asymmetry(fs.fractional_derivative(sig, a).values.real)
              for a in (1.0 / 50, 1.0 / 10, 0.5)}
    kept = {a: _asymmetry(fs.fractional_derivative(sig, a).values.real)
            for a in (0.0, 2.0)}
    ok = all(v > 1e-3 for v in broken.values()) and all(v < 1e-8 for v in kept.values())
    record(9, "fractional orders break even symmetry; integer orders keep it", ok,
           f"broken_min={min(broken.values()):.2e} kept_max={max(kept.values()):.2e}")
    assert all(v > 1e-3 for v in broken.values()), broken
    assert all(v < 1e-8 for v in kept.values()), kept


def test_criterion_10_monomial_case_table():
    U = fs.UNDEFINED
    cases = [
        (0, 0.0, 3.0, 1.0), (0, 0.5, 3.0, 0.0), (0, 2.0, 3.0, 0.0),
        (1, 0.0, 3.0, 3.0), (1, 1.0, 3.0, 1.0), (1, 1.5, 3.0, 0.0),
        (1, 0.5, 3.0, U),
        (2, 0.0, 3.0, 9.0), (2, 1.0, 3.0, 6.0), (2, 2.0, 3.0, 2.0),
        (2, 2.5, 3.0, 0.0), (2, 0.5, 3.0, U), (2, 1.5, 3.0, U),
        (3, 2.0, 2.0, 12.0), (3, 3.0, 2.0, 6.0), (3, 3.5, 2.0, 0.0),
        (3, 2.5, 2.0, U),
    ]
    failures = []
    for n, a, x, want in cases:
        got = fs.monomial_deriv(n, a, x)
        if want is U:
            if got is not U:
                failures.append((n, a, x, got))
        elif got != want:
            failures.append((n, a, x, got))
    record(10, "monomial derivative case table reproduced exactly", not failures,
           f"{len(cases) - len(failures)}/{len(cases)} cases")
    assert not failures, failures


def test_criterion_11_full_check_suite():
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "fracspectral", "check", "all"],
        capture_output=True, text=True, timeout=180)
    elapsed = perf_counter() - t0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    ok = proc.returncode == 0 and elapsed < 120.0
    record(11, "full check suite exits 0 inside the time budget", ok,
           f"{tail} t={elapsed:.1f}s")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "assertions passed" in proc.stdout
    assert elapsed < 120.0
