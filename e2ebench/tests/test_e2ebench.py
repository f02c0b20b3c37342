"""Tests of the end-to-end benchmark itself.

Run from the repository root::

    python -m pytest e2ebench/tests -q

Small runs of every workload must pass their output checks at two seeds
and emit every metric ``BENCHMARK.json`` names; each output check must
fail when its fault is injected.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from e2ebench import closed_loop, common, log_replay, metrics, scenario_sweep  # noqa: E402
from repro.obs import NOOP_REGISTRY, NOOP_SPAN  # noqa: E402

MODULES = {"closed_loop": closed_loop, "log_replay": log_replay,
           "scenario_sweep": scenario_sweep}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    """A run directory with the process isolated as the CLI does it."""
    saved = dict(os.environ)
    for module in MODULES.values():
        monkeypatch.setattr(module, "SETUP_REPEATS", 1)
    path = common.isolate_process(str(tmp_path / "runs"))
    yield path
    common.cleanup(path)
    os.environ.clear()
    os.environ.update(saved)


def run(workload, scratch, seed=0, trace=False, seconds=0.2):
    return common.run_workload(MODULES[workload], seed, seconds, trace,
                               scratch)


def test_benchmark_json_meets_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert set(w["name"] for w in spec["workloads"]) == set(MODULES)
    assert set(metrics.SHOULD_MOVE) == set(metrics.units("per_layer"))
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert len(json.dumps(spec)) < 64 * 1024


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(MODULES))
def test_small_run_passes_checks_and_emits_every_metric(workload, seed,
                                                        scratch):
    result = run(workload, scratch, seed=seed)
    assert result["correct"], result["details"]["check"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    emitted = result["metrics"]
    assert set(emitted) == set(metrics.units("end_to_end"))
    for name, unit in metrics.units("end_to_end").items():
        assert emitted[name]["unit"] == unit
        assert emitted[name]["value"] > 0, name


@pytest.mark.parametrize("workload", sorted(MODULES))
def test_traced_run_emits_every_per_layer_metric(workload, scratch):
    result = run(workload, scratch, trace=True, seconds=0.5)
    assert result["correct"], result["details"]["check"]
    emitted = result["metrics"]
    assert set(emitted) == set(metrics.units("per_layer"))
    for name, unit in metrics.units("per_layer").items():
        assert emitted[name]["unit"] == unit
    assert result["registry"].spans, "no spans recorded"


class _SlowSpan:
    """A span that costs 20 ms more once it has closed."""

    def __init__(self, span):
        self.span = span

    def __enter__(self):
        return self.span.__enter__()

    def __exit__(self, *exc):
        self.span.__exit__(*exc)
        time.sleep(0.02)
        return False


@pytest.mark.parametrize("fault, message", [
    ("detect.detect", "no stage span"),     # the detector's span removed
    ("sim.scan", "traced cycles differ"),   # tracing costs 20 ms a cycle
])
def test_trace_attribution_fails_closed_loop(fault, message, scratch,
                                             monkeypatch):
    real = closed_loop.trace_span

    def trace_span(name, **kwargs):
        span = real(name, **kwargs)
        if name != fault or span is NOOP_SPAN:     # untraced: no fault
            return span
        return NOOP_SPAN if message == "no stage span" else _SlowSpan(span)

    monkeypatch.setattr(closed_loop, "trace_span", trace_span)
    result = run("closed_loop", scratch, trace=True)
    assert not result["correct"]
    assert message in result["details"]["check"]


def test_constant_trust_monitor_fails_closed_loop(scratch, monkeypatch):
    monkeypatch.setattr(closed_loop.TracedMonitor, "assess",
                        lambda self, percept: 1.0)
    result = run("closed_loop", scratch)
    assert not result["correct"]
    assert "monitor_auc" in result["details"]["check"]


def test_dropped_request_fails_log_replay(scratch, monkeypatch):
    from repro.serve import MicroBatcher
    original = MicroBatcher.take_batch

    def take_batch(self):
        """Loses the first request of every batcher's first batch."""
        batch = original(self)
        if batch and not getattr(self, "dropped", False):
            self.dropped = True
            batch.pop()
        return batch

    monkeypatch.setattr(MicroBatcher, "take_batch", take_batch)
    result = run("log_replay", scratch)
    assert not result["correct"]
    assert "requests" in result["details"]["check"]


def test_corrupted_replay_row_fails_scenario_sweep(scratch, monkeypatch):
    original = scenario_sweep.TimedStore.lookup

    def lookup(self, keys):
        found = original(self, keys)
        if found:
            key = sorted(found)[0]
            found[key] = dict(found[key], points=found[key]["points"] + 1)
        return found

    monkeypatch.setattr(scenario_sweep.TimedStore, "lookup", lookup)
    result = run("scenario_sweep", scratch)
    assert not result["correct"]
    assert "replayed rows differ" in result["details"]["check"]


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "e2ebench"), tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "closed_loop",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_tail_has_ten_samples_beyond_it():
    values = list(range(100))
    t = common.tail(values, len(values))
    assert t["percentile"] == 90 and t["samples"] == 100
    assert sum(v > t["value"] for v in values) >= 10


def test_step_times_are_divided_by_the_host_slowdown():
    class TwiceAsSlow:
        def slowdown(self):
            return 2.0

    class Sleeper(common.Runner):
        MIN_STEPS = 3

        @property
        def ops(self):
            return len(self.step_s)

        def op_id(self):
            return f"sleep-{self.ops}"

        def step(self):
            time.sleep(0.01)

    runner = Sleeper(NOOP_REGISTRY)
    common.drive([runner], 0.0, TwiceAsSlow())
    assert len(runner.step_s) == len(runner.slowdown) == 3
    assert runner.host_s == pytest.approx(runner.wall_s / 2)
    assert runner.latency_ms() == pytest.approx(
        [500 * s for s in runner.step_s])
