"""Tests for the scenario sweep engine (spec, store, engine) and its
benchmark."""

import numpy as np
import pytest

from repro.runtime.bench import load_bench
from repro.scenario import (
    PLATFORMS,
    TRAFFIC,
    ReplayStore,
    Scenario,
    SweepPlan,
    evaluate_scenario,
    run_sweep,
    stack_grid,
)


def _plan(**kw):
    defaults = dict(
        stacks=tuple(stack_grid(("snow", "fog"), (0.5, 1.0), depth=2)),
        platforms=("vehicle",), traffics=("urban",), seeds=(0,))
    defaults.update(kw)
    return SweepPlan(**defaults)


# ------------------------------------------------------------------ spec
def test_stack_grid_counts():
    # 2 singles-per-name * 2 sevs = 4 singles; 2 ordered pairs * 4 sev
    # combos = 8 pairs.
    assert len(stack_grid(("snow", "fog"), (0.5, 1.0), depth=2)) == 12
    # The full bench grid: 28 singles + 672 ordered pairs.
    full = stack_grid(
        ("snow", "rain", "fog", "beam_missing", "motion_blur",
         "crosstalk", "cross_sensor"), (0.25, 0.5, 0.75, 1.0), depth=2)
    assert len(full) == 700


def test_plan_expansion_order_deterministic():
    plan = _plan(platforms=("vehicle", "drone"), seeds=(0, 1))
    scenarios = plan.scenarios()
    assert len(scenarios) == plan.count == 12 * 2 * 2
    assert [s.fingerprint() for s in scenarios] == \
        [s.fingerprint() for s in plan.scenarios()]


def test_scenario_rejects_unknown_axes():
    with pytest.raises(ValueError, match="valid platforms"):
        Scenario(stack=(("snow", 0.5),), platform="submarine")
    with pytest.raises(ValueError, match="valid .*regimes"):
        Scenario(stack=(("snow", 0.5),), traffic="gridlock")
    with pytest.raises(ValueError, match="valid corruptions"):
        Scenario(stack=(("hail", 0.5),))


def test_fingerprint_is_content_addressed():
    a = Scenario(stack=(("snow", 0.5),), seed=0)
    b = Scenario(stack=(("snow", 0.5),), seed=0)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != Scenario(stack=(("snow", 0.6),),
                                       seed=0).fingerprint()
    assert a.fingerprint() != Scenario(stack=(("snow", 0.5),),
                                       seed=1).fingerprint()
    # Stage order is semantic: snow-then-fog != fog-then-snow.
    ab = Scenario(stack=(("snow", 0.5), ("fog", 0.5)))
    ba = Scenario(stack=(("fog", 0.5), ("snow", 0.5)))
    assert ab.fingerprint() != ba.fingerprint()


def test_evaluate_scenario_is_position_independent():
    s = Scenario(stack=(("snow", 0.7), ("crosstalk", 0.4)))
    first = evaluate_scenario(s)
    again = evaluate_scenario(Scenario(stack=(("snow", 0.7),
                                              ("crosstalk", 0.4))))
    assert first == again
    assert all(isinstance(v, float) for v in first.values())


# ----------------------------------------------------------------- store
def test_store_roundtrip(tmp_path):
    store = ReplayStore(str(tmp_path))
    entries = {f"{i:02x}deadbeef{i:014x}": {"m": float(i)}
               for i in range(20)}
    store.insert(entries)
    found = store.lookup(list(entries) + ["ffnothere000000000000000"])
    assert found == entries
    info = store.info()
    assert info["entries"] == 20
    assert info["packs"] >= 1


def test_store_corrupt_pack_is_missed_and_evicted(tmp_path):
    store = ReplayStore(str(tmp_path))
    key = "ab" + "0" * 22
    store.insert({key: {"m": 1.0}})
    pack = tmp_path / "pack-ab.pkl"
    pack.write_bytes(b"not a pickle")
    assert store.lookup([key]) == {}
    assert not pack.exists()
    # The store recovers: a fresh insert works.
    store.insert({key: {"m": 2.0}})
    assert store.lookup([key]) == {key: {"m": 2.0}}


# ---------------------------------------------------------------- engine
def test_sweep_replays_from_store(tmp_path):
    plan = _plan()
    store = ReplayStore(str(tmp_path))
    cold = run_sweep(plan, workers=1, store=store)
    assert (cold.executed, cold.replayed) == (plan.count, 0)
    warm = run_sweep(plan, workers=1, store=store)
    assert (warm.executed, warm.replayed) == (0, plan.count)
    assert warm.payload_sha() == cold.payload_sha()
    assert warm.metrics == cold.metrics


def test_sweep_identical_across_worker_counts():
    plan = _plan()
    serial = run_sweep(plan, workers=1)
    pooled = run_sweep(plan, workers=2)
    assert pooled.payload_bytes() == serial.payload_bytes()


def test_sweep_incremental_extension_executes_only_novel(tmp_path):
    store = ReplayStore(str(tmp_path))
    run_sweep(_plan(), workers=1, store=store)
    extended = _plan(seeds=(0, 1))
    result = run_sweep(extended, workers=1, store=store)
    assert result.executed == extended.count // 2
    assert result.replayed == extended.count // 2


def test_sweep_deduplicates_within_one_run():
    scenario = Scenario(stack=(("fog", 0.5),))
    result = run_sweep([scenario, scenario, scenario], workers=1)
    assert result.executed == 1
    assert result.count == 3
    assert result.metrics[0] == result.metrics[1] == result.metrics[2]


def test_sweep_reordered_plan_hits_same_entries(tmp_path):
    store = ReplayStore(str(tmp_path))
    scenarios = _plan().scenarios()
    run_sweep(scenarios, workers=1, store=store)
    reordered = list(reversed(scenarios))
    result = run_sweep(reordered, workers=1, store=store)
    assert result.executed == 0
    assert result.replayed == len(scenarios)


def test_severity_zero_stage_is_free_identity():
    with_zero = Scenario(stack=(("snow", 0.5), ("fog", 0.0)))
    without = Scenario(stack=(("snow", 0.5),))
    # Different content (different fingerprints, different streams) —
    # but both execute, and the severity-0 stage costs nothing.
    assert with_zero.fingerprint() != without.fingerprint()
    metrics = evaluate_scenario(with_zero)
    assert np.isfinite(list(metrics.values())).all()


# ------------------------------------------------------------- benchmark
def test_driver_smoke_claims():
    payload = load_bench("scenario_sweep").run(smoke=True)
    claims = payload["claims"]
    assert claims["identical_across_workers"]
    assert claims["warm_speedup_ok"]
    assert claims["fused_equivalent"]
    assert claims["incremental_only_novel"]
    assert payload["incremental"]["executed"] == \
        payload["incremental"]["novel_expected"]


def test_traffic_and_platform_registries_are_valid():
    for name in PLATFORMS:
        Scenario(stack=(("snow", 0.5),), platform=name)
    for name in TRAFFIC:
        Scenario(stack=(("snow", 0.5),), traffic=name)
