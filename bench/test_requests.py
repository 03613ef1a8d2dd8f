"""Self-test of the benchmark's request lists and verdicts.

Run from the repository root:

    python3 -m pytest bench/test_requests.py -q
"""
import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import fracspectral  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = BENCHMARK["run_seconds"]
NAMES = [w["name"] for w in BENCHMARK["workloads"]]
PERTURBATION = 1e-15


def build(name, seed=11):
    return workloads.WORKLOADS[name].build(seed, SECONDS)


def one_per_class(reqs):
    return list({r.cls: r for r in reqs}.values())


def ready(name, reqs, tmp_path):
    wl = workloads.make(name, fracspectral, tmp_path)
    wl.setup(reqs)
    return wl


def verdicts(wl, reqs):
    summaries = [wl.summarize(r, wl.job(r)()) for r in reqs]
    ok = []
    for r, s in zip(reqs, summaries):
        err, tol = wl.check(r, s)
        ok.append(err < tol)
    wl.finalize(reqs, summaries, ok)
    return ok


def test_workloads_and_metrics_match_benchmark_json():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_the_same_list(name):
    assert build(name) == build(name)


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_gives_another_list_with_the_same_count_and_mix(name):
    a, b = build(name, 11), build(name, 12)
    assert a != b
    assert len(a) == len(b) >= 100
    assert Counter(r.cls for r in a) == Counter(r.cls for r in b)
    assert Counter(r.kind for r in a) == Counter(r.kind for r in b)


def test_engine_orders_are_fresh_and_off_the_power_fast_paths():
    orders = [r.params[1] for r in build("engine")]
    assert len(set(orders)) == len(orders)
    assert not {0.5, 1.0, 2.0, 3.0} & set(orders)


def test_every_cli_argv_runs_at_least_twice():
    assert min(Counter(r.params[0] for r in build("cli")).values()) >= 2


@pytest.mark.parametrize("name", NAMES)
def test_verdicts_are_a_pure_function_of_the_list(name, tmp_path):
    reqs = one_per_class(build(name))
    wl = ready(name, reqs, tmp_path)
    try:
        forward = verdicts(wl, reqs)
        backward = verdicts(wl, reqs[::-1])[::-1]
    finally:
        wl.close()
    assert forward == backward
    assert all(forward)


def _perturbed(req):
    return replace(req, params=tuple(p * (1 + PERTURBATION) if isinstance(p, float) else p
                                     for p in req.params))


def _robustness_cases(name):
    reqs = build(name)
    if name == "operator":
        return list({(r.kind, r.params): r for r in reqs}.values())
    cases = one_per_class(reqs)
    if name == "engine":
        bands = {b["name"]: b for b in workloads.SPEC["engine"]["bands"]}
        cases += [replace(r, params=(r.params[0], bands[r.cls.split("/")[0]][edge]))
                  for r in list(cases) for edge in ("lo", "hi")]
    return cases


@pytest.mark.parametrize("name", ["engine", "oracle", "operator"])
def test_errors_sit_ten_times_inside_tolerance_even_when_perturbed(name, tmp_path):
    """Rounding cannot flip a verdict: every error is 10x below its tolerance,
    also after every numeric input is moved by 1e-15 relative."""
    cases = _robustness_cases(name)
    wl = ready(name, cases, tmp_path)
    try:
        for req in cases:
            for case in (req, _perturbed(req)):
                err, tol = wl.check(case, wl.summarize(case, wl.job(case)()))
                assert err <= tol / 10, (case, err, tol)
    finally:
        wl.close()
