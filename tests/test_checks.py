import collections

import numpy as np
import pytest

from fracspectral import checks, quantum, spectral
from fracspectral.checks import CheckResult, SUITE_NAMES, run_suite


@pytest.fixture(scope="session")
def suite_results():
    """The rows of every suite, each suite run once per test session."""
    return {name: run_suite(name) for name in SUITE_NAMES}


def test_suite_names():
    assert SUITE_NAMES == ("integer", "closedform", "commutator",
                           "uncertainty", "convergence", "duality")


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_passes(name, suite_results):
    results = suite_results[name]
    assert results
    failed = [r for r in results if r.passed is False]
    assert not failed, [(r.name, r.measured, r.tolerance) for r in failed]


def test_all_concatenates_every_suite(suite_results):
    total = run_suite("all")
    assert len(total) == sum(len(suite_results[n]) for n in SUITE_NAMES)


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("nope")


def test_result_rows_are_well_formed(suite_results):
    for r in suite_results["duality"]:
        assert isinstance(r, CheckResult)
        assert r.name
        assert r.passed in (True, False, None)
        if r.passed is None:
            assert r.tolerance is None       # diagnostic rows carry no bar


def test_results_are_frozen(suite_results):
    row = suite_results["duality"][0]
    with pytest.raises(AttributeError):
        row.passed = False


def test_check_all_computes_each_value_once(monkeypatch):
    # every engine call (D^a or P_a) of `check all`, counted where the engine
    # applies its multiplier; the suites call uncertainty_check and forward
    # directly.  The engine takes the rfft of each signal once, whatever the
    # number of orders applied to it, and a further order of a corrected
    # result (the additivity chains, the order-1.5 ladder's P_a(P_a f)) is
    # taken from its source signal, which takes none.  The additivity rows compare
    # their chain with the closed form at a + b, not with a direct D^(a+b) f.  A
    # commutator applies its order to f and x f in one call
    counts = collections.Counter()

    def counting(module, name):
        function = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return function(*args)
        monkeypatch.setattr(module, name, counted)

    counting(spectral, "_apply_multiplier")
    counting(quantum, "_apply_multiplier")
    counting(checks, "uncertainty_check")
    counting(checks, "forward")
    counting(np.fft, "rfft")
    run_suite("all")
    assert counts == {"_apply_multiplier": 114, "uncertainty_check": 4, "forward": 2,
                      "rfft": 31}


@pytest.mark.parametrize("constant, value, failed", [
    ("NOISE_FLOOR", 1e-11, ["gaussian order 1e-12: engine vs closed form (|x|<=4)",
                            "order additivity 1.5+1.5 (rel sup)"]),
    ("_SUPPORT_FLOOR", 1e-8, ["gaussian order 1e-12: engine vs closed form (|x|<=4)"]),
])
def test_check_all_fails_where_an_engine_constant_regresses(monkeypatch, constant, value, failed):
    # a noise floor or a moment support that is too coarse moves the engine off the closed
    # forms: `check all` names exactly the rows that show it.  The engine reads its
    # constants when it is called (zero_noise, _evidence), not at import
    monkeypatch.setattr(spectral, constant, value)
    assert [r.name for r in run_suite("all") if r.passed is False] == failed


def test_check_all_refuses_where_no_signal_decays(monkeypatch):
    # at a decay threshold of 0 only a zero edge decays: the engine keeps every signal
    # periodic (_route), and the commutator suite's decay gate refuses its states
    monkeypatch.setattr(spectral, "DECAY_THRESHOLD", 0.0)
    with pytest.raises(quantum.InsufficientDecay) as raised:
        run_suite("all")
    assert any(entry.name == "suite_commutator" for entry in raised.traceback)
