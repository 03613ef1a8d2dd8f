"""fracspectral benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fracspectral is imported from ./src.  The
load is a closed loop with one client in one process: each request of a
fixed, seeded list starts when the previous one has returned.  A
calibration probe (bench/probe.py) runs between requests and between the
set-up stages.  Each request's time is scaled by probe_ref over the mean of
the probes just before and just after it, and each set-up stage likewise
(see _SetupTimer), so that runs on a faster or slower moment of a shared
machine read alike.  On a shared 2-vCPU Xeon VM the speed switches for tens
of milliseconds at a time: one run-wide factor corrected the median there
but left the p90 on whichever mix of the two speeds a run happened to see
(18% spread over five runs against 2.6% with adjacent probes).  The
run-wide probe_ref / median(probe) is printed as drift_factor.

With --trace 0 the run launches the workload process SETUP_LAUNCHES times:
each launch times its own set-up (interpreter start, import, input
generation, one warm-up call per request kind), and the last one also runs
the timed phase.  With --trace 1 a single launch runs the list once
untraced and once with layer spans (bench/tracing.py) and reports the
per-layer metrics.  The last line of stdout is the JSON result; the line
before it holds the context (machine, probe, raw values).
"""
import argparse
import gc
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = BENCH / "_out"
SETUP_LAUNCHES = 7
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "grid.self_ms": "ms", "grid.errors": "count",
    "spectral.self_ms": "ms", "spectral.calls": "count", "spectral.symbol_evals": "count",
    "spectral.fft_calls": "count", "spectral.bytes_computed": "bytes", "spectral.errors": "count",
    "specfun.self_ms": "ms", "specfun.kummer_calls": "count", "specfun.errors": "count",
    "oracles.self_ms": "ms", "oracles.fhat_points": "count", "oracles.errors": "count",
    "quantum.self_ms": "ms", "quantum.grid_n": "count", "quantum.errors": "count",
    "checks.self_ms": "ms", "checks.errors": "count",
    "cli.self_ms": "ms", "cli.out_bytes": "bytes", "cli.errors": "count",
    "trace_overhead": "ratio",
}


def _nproc():
    return len(os.sched_getaffinity(0))


def _spec(name):
    return json.loads((BENCH / "workloads.json").read_text())[name]


# --- workload process -------------------------------------------------------

def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fracspectral
    if src.resolve() not in Path(fracspectral.__file__).resolve().parents:
        raise ImportError(f"fracspectral came from {fracspectral.__file__}, not {src}")
    return fracspectral


def _run_pass(wl, reqs, probe, tracer=None):
    """One pass over the list.

    Returns per-request seconds (None if the request raised), the mean of
    the probes on either side of each request, the summaries and the errors.
    """
    latency = [None] * len(reqs)
    adjacent = [None] * len(reqs)
    summaries = [None] * len(reqs)
    errors = {}
    for i, req in enumerate(reqs):
        before = probe.times_ms[-1]
        job = wl.job(req)
        if tracer:
            tracer.begin(i)
        t0 = time.perf_counter()
        try:
            result = job()
        except Exception as exc:  # a failed request is counted, not fatal
            errors[i] = f"{type(exc).__name__}: {exc}"
            result = None
        t1 = time.perf_counter()
        if tracer:
            tracer.end()
        if i not in errors:
            latency[i] = t1 - t0
            summaries[i] = wl.summarize(req, result)
        del result
        probe()
        adjacent[i] = 0.5 * (before + probe.times_ms[-1])
    return latency, adjacent, summaries, errors


def _verdicts(wl, reqs, summaries):
    ok = [False] * len(reqs)
    margin = math.inf
    for i, (req, summary) in enumerate(zip(reqs, summaries)):
        if summary is None:
            continue
        err, tol = wl.check(req, summary)
        ok[i] = bool(err < tol)
        if ok[i] and err > 0:
            margin = min(margin, tol / err)
    wl.finalize(reqs, summaries, ok)
    return ok, margin


def _trace_pass(wl, reqs, probe):
    from tracing import LAYERS, Tracer
    tracer = Tracer()
    tracer.install()
    wl.counts.clear()
    latency, adjacent, _, _ = _run_pass(wl, reqs, probe, tracer)
    OUT.mkdir(parents=True, exist_ok=True)
    spans_file = OUT / f"spans-{wl.name}.csv.gz"
    tracer.write(spans_file)
    idx = {name: i for i, name in enumerate(LAYERS)}
    quantum_n = [n for n in tracer.grid_n if n]
    return {
        "latency_s": latency,
        "adjacent_probe_ms": adjacent,
        "self_ns": {name: tracer.self_ns[i] for name, i in idx.items()},
        "entries": {name: tracer.entries[i] for name, i in idx.items()},
        "layer_errors": {name: tracer.errors[i] for name, i in idx.items()},
        "fft_calls": tracer.fft_calls[idx["spectral"]],
        "fft_bytes": tracer.fft_bytes[idx["spectral"]],
        "symbol_evals": tracer.count("spectral.ip_power", "spectral.p_power"),
        "kummer_calls": tracer.spanned_named("specfun.kummer"),
        "quadrature_calls": tracer.spanned_named("oracles.quadrature_reference"),
        "fhat_points": wl.counts["fhat_points"],
        "grid_n": statistics.mean(quantum_n) if quantum_n else 0,
        "out_bytes": wl.counts["out_bytes"],
        "spans": len(tracer.spans) // 8,
        "spans_file": os.path.relpath(spans_file, ROOT),
    }


class _SetupTimer:
    """Times set-up in stages, each scaled by the probes on either side of it.

    Interpreter start and the package import run Python bytecode, so they
    are scaled by the pure-Python set-up probe; input generation and the
    warm-up calls are the workload's own kind of work, so they are scaled by
    the workload probe.  The probes' own time is left out.
    """

    def __init__(self, t_launch, probe, probe_ref, python_probe, python_ref):
        self.t_prev = t_launch
        self.probes = (python_probe, probe)
        self.refs = (python_ref, probe_ref)
        self.before = None
        self.raw = 0.0
        self.corrected = 0.0

    def stage(self, python_bound):
        elapsed = time.monotonic() - self.t_prev
        for _ in range(3):
            for probe in self.probes:
                probe()
        after = tuple(statistics.median(probe.times_ms[-3:]) for probe in self.probes)
        before = self.before or after
        k = 0 if python_bound else 1
        self.raw += elapsed
        self.corrected += elapsed * self.refs[k] / (0.5 * (before[k] + after[k]))
        self.before = after
        self.t_prev = time.monotonic()


def child(args):
    from probe import Probe
    import workloads

    spec = _spec(args.workload)
    probe = Probe(spec["probe"])
    python_spec = _spec("setup_probe")
    timer = _SetupTimer(args.t_launch, probe, spec["probe_ref_ms"],
                        Probe(python_spec["probe"]), python_spec["probe_ref_ms"])
    timer.stage(python_bound=True)
    fs = _import_package()
    timer.stage(python_bound=True)
    reqs = workloads.WORKLOADS[args.workload].build(args.seed, args.seconds)
    wl = workloads.make(args.workload, fs, OUT)
    try:
        wl.setup(reqs)
        gc.collect()
        timer.stage(python_bound=False)
        for kind in dict.fromkeys(r.kind for r in reqs):
            req = next(r for r in reqs if r.kind == kind)
            wl.summarize(req, wl.job(req)())
            gc.collect()
            timer.stage(python_bound=False)
        report = {"setup_raw_s": timer.raw, "setup_s": timer.corrected,
                  "setup_wall_s": time.monotonic() - args.t_launch}
        if args.child == "setup":
            report["probes_ms"] = probe.times_ms
            return report
        latency, adjacent, summaries, errors = _run_pass(wl, reqs, probe)
        report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ok, margin = _verdicts(wl, reqs, summaries)
        report.update(latency_s=latency, adjacent_probe_ms=adjacent, ok=ok, min_margin=margin,
                      errors=[f"{reqs[i].cls}: {e}" for i, e in list(errors.items())[:5]],
                      classes=len({r.cls for r in reqs}))
        if args.child == "trace":
            report["trace"] = _trace_pass(wl, reqs, probe)
        report["probes_ms"] = probe.times_ms
        return report
    finally:
        wl.close()


# --- driver process ---------------------------------------------------------

def _launch(mode, args, env, deadline):
    t_launch = time.monotonic()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t-launch", repr(t_launch)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{mode} launch overran the {RUN_BUDGET_S:.0f} s budget")
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} launch exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _corrected_ms(latency_s, adjacent_ms, ref):
    return [t * 1e3 * ref / a for t, a in zip(latency_s, adjacent_ms) if t is not None]


def _end_to_end(main, setup_raw, setup_corrected, ref):
    """Corrected and raw end-to-end metrics."""
    attempted = len(main["latency_s"])

    def summary(times_ms, setup_s):
        return {
            "latency_p50_ms": _percentile(times_ms, 0.5),
            "latency_p90_ms": _percentile(times_ms, 0.9),
            "throughput_rps": len(times_ms) / (sum(times_ms) / 1e3),
            "ok_frac": sum(main["ok"]) / attempted,
            "peak_rss_mb": main["rss_kb"] / 1024.0,
            "setup_s": statistics.median(setup_s),
        }
    raw_ms = [t * 1e3 for t in main["latency_s"] if t is not None]
    corrected_ms = _corrected_ms(main["latency_s"], main["adjacent_probe_ms"], ref)
    return summary(corrected_ms, setup_corrected), summary(raw_ms, setup_raw)


def _per_layer(main, ref):
    tr = main["trace"]
    n = len(main["latency_s"])
    per_req = {
        "spectral.calls": tr["entries"]["spectral"],
        "spectral.symbol_evals": tr["symbol_evals"],
        "spectral.fft_calls": tr["fft_calls"],
        "spectral.bytes_computed": tr["fft_bytes"],
        "specfun.kummer_calls": tr["kummer_calls"],
        "cli.out_bytes": tr["out_bytes"],
    }
    metrics = {name: value / n for name, value in per_req.items()}
    factor = ref / statistics.median(tr["adjacent_probe_ms"])
    for layer, ns in tr["self_ns"].items():
        metrics[f"{layer}.self_ms"] = ns / 1e6 / n * factor
    for layer, count in tr["layer_errors"].items():
        metrics[f"{layer}.errors"] = count
    q = tr["quadrature_calls"]
    metrics["oracles.fhat_points"] = tr["fhat_points"] / q if q else 0
    metrics["quantum.grid_n"] = tr["grid_n"]
    untraced = sum(_corrected_ms(main["latency_s"], main["adjacent_probe_ms"], ref))
    traced = sum(_corrected_ms(tr["latency_s"], tr["adjacent_probe_ms"], ref))
    metrics["trace_overhead"] = traced / untraced
    return {name: metrics[name] for name in PER_LAYER}


def driver(args):
    spec = _spec(args.workload)
    nproc = _nproc()
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in THREAD_VARS:
        cap = env.get(var, "")
        env[var] = str(min(nproc, int(cap)) if cap.isdigit() and int(cap) > 0 else nproc)
    deadline = time.monotonic() + RUN_BUDGET_S
    launches = 1 if args.trace else SETUP_LAUNCHES
    reports = []
    for i in range(launches):
        mode = "setup" if i < launches - 1 else ("trace" if args.trace else "main")
        reports.append(_launch(mode, args, env, deadline))
    main = reports[-1]
    ref = spec["probe_ref_ms"]
    probe_ms = statistics.median(t for r in reports for t in r["probes_ms"])
    setup_raw = [r["setup_raw_s"] for r in reports]
    setup_corrected = [r["setup_s"] for r in reports]

    attempted = len(main["latency_s"])
    failed = attempted - sum(main["ok"])
    if args.trace:
        metrics = _per_layer(main, ref)
        units, raw = PER_LAYER, {}
    else:
        metrics, raw = _end_to_end(main, setup_raw, setup_corrected, ref)
        units = END_TO_END
    margin = main["min_margin"]
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "requests": attempted, "classes": main["classes"],
        "nproc": nproc, "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "blas_threads": {var: env[var] for var in THREAD_VARS},
        "probe": spec["probe"], "probe_ref_ms": spec["probe_ref_ms"], "probe_ms": probe_ms,
        "probes": sum(len(r["probes_ms"]) for r in reports),
        "drift_factor": ref / probe_ms, "setup_launches": len(reports),
        "setup_s_raw_each": setup_raw, "setup_s_each": setup_corrected,
        "setup_wall_s_each": [r["setup_wall_s"] for r in reports], "raw": raw,
        "min_verdict_margin": margin if math.isfinite(margin) else None,
        "request_errors": main["errors"],
    }
    if args.trace:
        context["spans"] = main["trace"]["spans"]
        context["spans_file"] = main["trace"]["spans_file"]
    for name, value in metrics.items():
        line = f"{name:>24} {value:14.6g} {units[name]}"
        if name in raw:
            line += f"   (raw {raw[name]:.6g})"
        print(line)
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("engine", "oracle", "operator", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "main", "trace"), help=argparse.SUPPRESS)
    parser.add_argument("--t-launch", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fracspectral" / "__init__.py").is_file():
        print(f"error: no fracspectral package under {ROOT / 'src'}; run from the root "
              f"of a fracspectral checkout", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(child(args)))
        return 0
    try:
        return driver(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
