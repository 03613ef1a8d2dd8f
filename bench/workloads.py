"""The four workloads: seeded request lists, request jobs and verdicts.

A request list is a pure function of (workload, seed, seconds): the seed
picks fresh orders, jitter inside strata and the running order, while the
count and the class mix depend only on `seconds`.  Every class and its
share is declared in workloads.json together with the tolerances, so the
cost layout that keeps p50 and p90 inside one block is written down in one
place.

Verdicts compare a request's output against a reference the benchmark
computes after the timed phase; each returns (error, tolerance) and a
request passes when error < tolerance.
"""
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import re
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPEC = json.loads(Path(__file__).with_name("workloads.json").read_text())

FUNCTIONS = ("gaussian", "x2gaussian")


def _gaussian(x):
    return np.exp(-x * x)


def _x2gaussian(x):
    return x * x * np.exp(-x * x)


SAMPLERS = {"gaussian": _gaussian, "x2gaussian": _x2gaussian}


@dataclass(frozen=True)
class Request:
    cls: str        # cost/verdict class named in workloads.json
    kind: str       # one warm-up call per kind runs during set-up
    params: tuple


def apportion(total, shares):
    """Split `total` by `shares` with largest remainders; ties go to the earlier share."""
    raw = [total * s / sum(shares) for s in shares]
    counts = [int(r) for r in raw]
    order = sorted(range(len(shares)), key=lambda i: (counts[i] - raw[i], i))
    for i in order[:total - sum(counts)]:
        counts[i] += 1
    return counts


def request_count(spec, seconds):
    return max(spec["min_requests"], round(seconds * 1000.0 / spec["nominal_request_ms"]))


def fresh_orders(rng, lo, hi, m):
    """m distinct orders in (lo, hi): one per equal-width stratum, jittered inside it."""
    u = rng.uniform(0.1, 0.9, m)
    orders = lo + (np.arange(m) + u) * (hi - lo) / m
    rng.shuffle(orders)
    return [float(a) for a in orders]


def _shuffled(rng, reqs):
    return [reqs[i] for i in rng.permutation(len(reqs))]


class Workload:
    name = None

    def __init__(self, fs):
        self.fs = fs
        self.spec = SPEC[self.name]
        self.counts = Counter()     # work counted by the benchmark's own code

    @classmethod
    def build(cls, seed, seconds):
        raise NotImplementedError

    def setup(self, reqs):
        """Input generation; runs once per process before the warm-up calls."""

    def job(self, req):
        """Zero-argument callable that performs the request; only it is timed."""
        raise NotImplementedError

    def summarize(self, req, result):
        """The part of a result the verdict needs (taken outside the timed call)."""
        return result

    def check(self, req, summary):
        """(error, tolerance) of one completed request."""
        raise NotImplementedError

    def finalize(self, reqs, summaries, ok):
        """Cross-request verdicts; may clear entries of `ok`."""

    def close(self):
        pass


class Engine(Workload):
    name = "engine"

    @classmethod
    def build(cls, seed, seconds):
        spec = SPEC[cls.name]
        rng = np.random.default_rng([seed, 1])
        bands = spec["bands"]
        reqs = []
        for band, m in zip(bands, apportion(request_count(spec, seconds), [1] * len(bands))):
            for i, a in enumerate(fresh_orders(rng, band["lo"], band["hi"], m)):
                op = ("derivative", "momentum")[i % 2]
                fn = FUNCTIONS[(i // 2) % 2]
                reqs.append(Request(f"{band['name']}/{op}/{fn}", op, (fn, a)))
        return _shuffled(rng, reqs)

    def setup(self, reqs):
        lo, hi, n = self.spec["grid"]
        self.grid = self.fs.make_grid(lo, hi, n)
        points = np.array(self.spec["verdict_points"])
        self.index = np.searchsorted(self.grid.x, points)
        if not np.array_equal(self.grid.x[self.index], points):
            raise RuntimeError("verdict points must be grid points")

    def job(self, req):
        fn, alpha = req.params
        op = (self.fs.fractional_derivative if req.kind == "derivative"
              else self.fs.fractional_momentum)
        return lambda: op(self.fs.sample(SAMPLERS[fn], self.grid), alpha)

    def summarize(self, req, result):
        return result.values[self.index].copy()

    def check(self, req, summary):
        fn, alpha = req.params
        tol = next(b["tol"] for b in self.spec["bands"] if req.cls.startswith(b["name"] + "/"))
        closed = self.fs.gaussian_deriv if fn == "gaussian" else self.fs.x2gaussian_deriv
        ref = np.array([closed(alpha, float(x)) for x in self.spec["verdict_points"]])
        if req.kind == "momentum":
            ref = ref / np.exp(0.5j * math.pi * alpha)
        return float(np.max(np.abs(summary - ref))), tol


def _transform(fn):
    """Fourier transform of the built-in function (1/sqrt(2 pi) convention)."""
    if fn == "gaussian":
        return lambda p: np.exp(-p * p / 4) / math.sqrt(2)
    return lambda p: (2 - p * p) * np.exp(-p * p / 4) / (4 * math.sqrt(2))


class Oracle(Workload):
    name = "oracle"

    @classmethod
    def build(cls, seed, seconds):
        spec = SPEC[cls.name]
        rng = np.random.default_rng([seed, 2])
        slots = [float(a) for a in spec["figure_orders"]] + ["fresh"]
        strata = spec["x_strata"]
        cells = [(slot, s, fn) for slot in range(len(slots)) for s in range(strata)
                 for fn in FUNCTIONS]
        counts = apportion(request_count(spec, seconds), [1] * len(cells))
        n_fresh = sum(c for (slot, _, _), c in zip(cells, counts) if slots[slot] == "fresh")
        fresh = iter(fresh_orders(rng, *spec["fresh_band"], n_fresh))
        width = spec["x_max"] / strata
        reqs = []
        for (slot, s, fn), c in zip(cells, counts):
            for _ in range(c):
                alpha = next(fresh) if slots[slot] == "fresh" else slots[slot]
                x = (s + rng.uniform(0.1, 0.9)) * width * rng.choice((-1.0, 1.0))
                label = "fresh" if slots[slot] == "fresh" else f"a={slots[slot]:g}"
                reqs.append(Request(f"{label}/x{s}/{fn}", fn, (fn, alpha, float(x))))
        return _shuffled(rng, reqs)

    def setup(self, reqs):
        half = self.spec["closed_form_half_width"]
        self.xs = [float(x) for x in np.linspace(-half, half, self.spec["closed_form_points"])]
        self.transforms = {}
        for fn in FUNCTIONS:
            base = _transform(fn)

            def counted(p, base=base):
                self.counts["fhat_points"] += np.size(p)
                return base(p)
            self.transforms[fn] = counted

    def _closed(self, fn):
        return self.fs.gaussian_deriv if fn == "gaussian" else self.fs.x2gaussian_deriv

    def job(self, req):
        fn, alpha, x = req.params
        fhat = self.transforms[fn]

        def run():
            closed = self._closed(fn)
            curve = [closed(alpha, xv) for xv in self.xs]
            return curve, self.fs.quadrature_reference(fhat, alpha, x)
        return run

    def summarize(self, req, result):
        curve, quad = result
        return bool(np.all(np.isfinite(curve))), quad

    def check(self, req, summary):
        fn, alpha, x = req.params
        finite, quad = summary
        err = abs(quad - self._closed(fn)(alpha, x)) if finite else math.inf
        return err, self.spec["tol"]


class Operator(Workload):
    name = "operator"

    @classmethod
    def build(cls, seed, seconds):
        spec = SPEC[cls.name]
        rng = np.random.default_rng([seed, 3])
        classes = spec["classes"]
        reqs = []
        for c, m in zip(classes, apportion(request_count(spec, seconds),
                                           [c["share"] for c in classes])):
            cells = [tuple(cell) for cell in c["cells"]]
            # equal share per cell; the seed picks which cells take the remainder
            extra = set(rng.choice(len(cells), m % len(cells), replace=False).tolist())
            for i, (kind, fn, alpha) in enumerate(cells):
                for _ in range(m // len(cells) + (i in extra)):
                    reqs.append(Request(c["name"], kind, (fn, float(alpha))))
        return _shuffled(rng, reqs)

    def setup(self, reqs):
        grid = self.fs.high_res_grid()
        self.signals = {fn: self.fs.sample(SAMPLERS[fn], grid) for fn in FUNCTIONS}
        self.state = self.fs.gaussian_state(grid)

    def job(self, req):
        fn, alpha = req.params
        if req.kind == "uncertainty":
            return lambda: self.fs.uncertainty_check(alpha, self.state)
        op = self.fs.commutator_dx if req.kind == "commutator_dx" else self.fs.commutator_ladder
        return lambda: op(self.signals[fn], alpha)

    def summarize(self, req, result):
        if req.kind == "uncertainty":
            return result.rhs_bound
        return result[2]

    def check(self, req, summary):
        tol = self.spec["tol"]
        if req.kind != "uncertainty":
            return summary, tol
        bound = self.fs.uncertainty_bound(req.params[1])
        err = abs(summary - bound)
        return (err / abs(bound) if bound else err), tol


_CHECK_TOTAL = re.compile(r"^(\d+)/(\d+) assertions passed$")

_CLI_ARGV = {
    "figure4-csv": ("figure", "4"),
    "figure4-json": ("figure", "4", "--format", "json"),
    "check-duality": ("check", "duality"),
    "figure1-csv": ("figure", "1"),
    "figure1-json": ("figure", "1", "--format", "json"),
    "figure2-csv": ("figure", "2"),
    "figure2-json": ("figure", "2", "--format", "json"),
    "check-integer": ("check", "integer"),
    "figure3-csv": ("figure", "3"),
    "figure3-json": ("figure", "3", "--format", "json"),
    "check-convergence": ("check", "convergence"),
    "uncertainty-csv": ("uncertainty",),
    "uncertainty-json": ("uncertainty", "--format", "json"),
    "check-uncertainty": ("check", "uncertainty"),
}


def _order_text(a):
    return f"{a:.6f}"


class Cli(Workload):
    """In-process `cli.main(argv)` calls; `{tmp}` in an argv is the run's scratch directory.

    Each distinct argv runs twice, so the verdict can ask for byte-identical
    output within the run.
    """
    name = "cli"
    INPUT = "{tmp}/input.csv"

    @classmethod
    def build(cls, seed, seconds):
        spec = SPEC[cls.name]
        rng = np.random.default_rng([seed, 4])
        classes = spec["classes"]
        pairs = apportion(request_count(spec, seconds) // 2, [c["share"] for c in classes])
        reqs = []
        k = 0
        for c, m in zip(classes, pairs):
            orders = iter(fresh_orders(rng, 0.1, 2.9, 3 * m))
            for i in range(m):
                kind = c["kinds"][i % len(c["kinds"])]
                argv, stem = cls._argv(kind, orders, k, i)
                k += 1
                reqs += [Request(c["name"], kind, (argv, stem))] * 2
        return _shuffled(rng, reqs)

    @staticmethod
    def _argv(kind, orders, k, i):
        fn = FUNCTIONS[(i // 3) % 2]
        if kind == "derive-closed":
            return ("derive", "--function", fn, "--alpha", _order_text(next(orders)),
                    "--domain", "-4", "4", "--points", "64"), None
        if kind == "derive-input-stdout":
            return ("derive", "--input", Cli.INPUT, "--alpha", _order_text(next(orders))), None
        if kind == "derive-input-file":
            stem = f"in{k}"
            return ("derive", "--input", Cli.INPUT, "--alpha", _order_text(next(orders)),
                    "--output", f"{{tmp}}/{stem}.csv"), stem
        if kind == "derive-spectral-multi":
            stem = f"sp{k}"
            alphas = ",".join(_order_text(next(orders)) for _ in range(3))
            return ("derive", "--function", fn, "--engine", "spectral", "--alpha", alphas,
                    "--output", f"{{tmp}}/{stem}.csv"), stem
        return _CLI_ARGV[kind], None

    def __init__(self, fs, tmp):
        super().__init__(fs)
        self.cli = importlib.import_module(fs.__name__ + ".cli")
        self.tmp = Path(tmp)

    def setup(self, reqs):
        self.tmp.mkdir(parents=True, exist_ok=True)
        rc, _, err = self._call(("derive", "--function", "gaussian", "--engine", "spectral",
                                 "--alpha", "0", "--output", self.INPUT))
        if rc != 0:
            raise RuntimeError(f"writing the --input CSV failed: {err}")

    def _call(self, argv):
        argv = [a.replace("{tmp}", str(self.tmp)) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def job(self, req):
        return lambda: self._call(req.params[0])

    def summarize(self, req, result):
        rc, out, err = result
        digest = hashlib.sha256(f"{rc}\0{out}\0{err}\0".encode())
        nbytes = len(out.encode()) + len(err.encode())
        stem = req.params[1]
        if stem is not None:
            for path in sorted(self.tmp.iterdir()):
                if path.name.startswith((stem + ".", stem + "_alpha")):
                    data = path.read_bytes()
                    digest.update(path.name.encode() + b"\0" + data)
                    nbytes += len(data)
                    path.unlink()
        self.counts["out_bytes"] += nbytes
        checks_ok = True
        if req.params[0][0] == "check":
            lines = out.strip().splitlines()
            total = _CHECK_TOTAL.match(lines[-1]) if lines else None
            checks_ok = (total is not None and total.group(1) == total.group(2)
                         and not any(line.startswith("FAIL ") for line in lines))
        return rc, checks_ok, digest.hexdigest()

    def check(self, req, summary):
        rc, checks_ok, _ = summary
        return (0.0 if rc == 0 and checks_ok else math.inf), 1.0

    def finalize(self, reqs, summaries, ok):
        digests = {}
        for req, summary in zip(reqs, summaries):
            if summary is not None:
                digests.setdefault(req.params[0], set()).add(summary[2])
        for i, req in enumerate(reqs):
            if len(digests.get(req.params[0], ())) > 1:
                ok[i] = False

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Engine, Oracle, Operator, Cli)}


def make(name, fs, out_dir):
    if name == "cli":
        return Cli(fs, Path(out_dir) / f"cli-{os.getpid()}")
    return WORKLOADS[name](fs)
