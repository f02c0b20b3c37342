"""High-throughput scenario sweep — 10^4 scenarios, cached + sharded.

Runs one corruption-stack grid (singles + ordered pairs over all seven
corruptions) crossed with platform, traffic, and seed axes through the
:mod:`repro.scenario` engine four ways:

1. **worker curve** — the full sweep at each worker count (no store),
   hashing the canonical result payload each time.  Blocking claim:
   byte-identical payloads at 1/2/4 workers.  Warning-level claim:
   >= ``POOL_SCALING_TARGET`` x wall-clock scaling at the top worker
   count (wall ratios jitter on shared hosts).
2. **cold vs warm** — the sweep into an empty temp
   :class:`~repro.scenario.ReplayStore`, then again against the
   populated store, both at one worker so the ratio measures the replay
   path, not parallelism.  Blocking claim: warm >=
   ``WARM_SPEEDUP_TARGET`` x faster than cold.
3. **incremental extension** — the grid widened by one extra base seed,
   re-swept against the same store.  Blocking claim: exactly the novel
   scenarios execute; every overlapping scenario replays.
4. **fused vs reference** — the corruption-stack kernel timed both ways
   over a sample of stacks on a fixed scan.  Blocking claim: outputs
   exactly equal (array-for-array); the fused speedup is reported.

All claims except wall-clock scaling are deterministic.  The full run
additionally claims the 10^4 scale; a smoke run reads that claim (and
the pool scaling) from the committed full sweep and re-proves the
deterministic ones live.
"""


from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.kernels import kernel_backend
from repro.runtime import WorkerPool, spawn_rngs
from repro.runtime.bench import Claim, check
from repro.scenario import ReplayStore, SweepPlan, run_sweep, stack_grid
from repro.sim.corruptions import CORRUPTIONS, apply_corruption_stack
from repro.sim.lidar import LidarConfig, LidarScanner
from repro.sim.scenes import sample_scene

from bench_utils import assert_claims, print_table, save_result

WARM_SPEEDUP_TARGET = 10.0   # warm-cache re-sweep vs cold, blocking
POOL_SCALING_TARGET = 2.0    # wall scaling at 4 workers, informational
DEPTH = 2                    # stacks: singles + ordered pairs
EVALUATOR = "scan_stats"
WORKER_COUNTS = (1, 2, 4)    # worker curve, smoke and full alike


@dataclass(frozen=True)
class ScenarioBenchConfig:
    """Sweep grid shape and measurement knobs that differ between the
    full and smoke configs; every grid covers all seven corruptions."""

    severities: Tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)
    platforms: Tuple[str, ...] = ("vehicle", "drone", "quadruped")
    traffics: Tuple[str, ...] = ("sparse", "urban", "dense")
    seeds: Tuple[int, ...] = (0, 1)
    extension_seeds: Tuple[int, ...] = (2,)  # incremental re-sweep delta
    fused_sample: int = 64       # stacks timed in the kernel comparison

    def plan(self, seeds: Optional[Tuple[int, ...]] = None) -> SweepPlan:
        stacks = stack_grid(CORRUPTIONS, self.severities, DEPTH)
        return SweepPlan(stacks=tuple(stacks), platforms=self.platforms,
                         traffics=self.traffics,
                         seeds=self.seeds if seeds is None else seeds,
                         evaluator=EVALUATOR)


# CI-sized variant: every corruption at two severities on one
# platform/traffic/seed — 182 scenarios at 1/2/4 workers, the grid the
# regression gate re-runs live.  Same claims; the 10^4 scale and the
# pool-scaling claims read the committed full sweep.
SMOKE = ScenarioBenchConfig(severities=(0.5, 1.0), platforms=("vehicle",),
                            traffics=("urban",), seeds=(0,),
                            extension_seeds=(1,), fused_sample=24)


def _fused_comparison(config: ScenarioBenchConfig) -> Dict[str, Any]:
    """Time the corruption-stack kernel both ways; require exact equality."""
    rng = np.random.default_rng(1234)
    scan = LidarScanner(LidarConfig(n_azimuth=36, n_elevation=8),
                        rng=rng).scan(sample_scene(rng))
    stacks = stack_grid(CORRUPTIONS, config.severities,
                        DEPTH)[:config.fused_sample]
    timings = {}
    outputs = {}
    for backend in ("reference", "vectorized"):
        stage_rngs = [spawn_rngs(7000 + i, len(stack))
                      for i, stack in enumerate(stacks)]
        with kernel_backend(backend):
            t0 = time.perf_counter()
            outs = [apply_corruption_stack(scan, stack, rngs=rngs)
                    for stack, rngs in zip(stacks, stage_rngs)]
            timings[backend] = time.perf_counter() - t0
        outputs[backend] = outs
    equivalent = all(
        np.array_equal(a.points, b.points)
        and np.array_equal(a.labels, b.labels)
        and np.array_equal(a.beam_ids, b.beam_ids)
        and np.array_equal(a.ranges, b.ranges)
        and np.array_equal(a.fired_mask, b.fired_mask)
        for a, b in zip(outputs["reference"], outputs["vectorized"]))
    return {
        "stacks_compared": len(stacks),
        "reference_s": timings["reference"],
        "fused_s": timings["vectorized"],
        "fused_speedup": (timings["reference"] / timings["vectorized"]
                          if timings["vectorized"] > 0 else float("inf")),
        "fused_equivalent": bool(equivalent),
    }


def run(smoke: bool = False) -> Dict[str, Any]:
    """Execute all four phases; returns the full result payload."""
    config = SMOKE if smoke else ScenarioBenchConfig()
    scenarios = config.plan().scenarios()
    n = len(scenarios)

    # Phase 1: worker curve, storeless — measures raw sharded execution.
    worker_curve = []
    shas = []
    for workers in WORKER_COUNTS:
        with WorkerPool(workers) as pool:
            result = run_sweep(scenarios, pool=pool)
        worker_curve.append({
            "workers": workers,
            "wall_s": result.duration_s,
            "scenarios_per_s": n / result.duration_s
            if result.duration_s > 0 else float("inf"),
            "payload_sha": result.payload_sha(),
        })
        shas.append(worker_curve[-1]["payload_sha"])
    identical_across_workers = len(set(shas)) == 1
    serial_wall = worker_curve[0]["wall_s"]
    top_wall = worker_curve[-1]["wall_s"]
    pool_scaling = serial_wall / top_wall if top_wall > 0 else float("inf")

    # Phase 2: cold vs warm against a fresh store, both serial.
    tmp_root = tempfile.mkdtemp(prefix="repro-scenario-bench-")
    try:
        store = ReplayStore(tmp_root)
        cold = run_sweep(scenarios, workers=1, store=store)
        warm = run_sweep(scenarios, workers=1, store=store)
        warm_speedup = (cold.duration_s / warm.duration_s
                        if warm.duration_s > 0 else float("inf"))

        # Phase 3: widen the grid by the extension seeds; only the new
        # scenarios may execute.
        extended = config.plan(
            config.seeds + config.extension_seeds).scenarios()
        swept = {s.fingerprint() for s in scenarios}
        novel_expected = len(
            {s.fingerprint() for s in extended} - swept)
        replay_expected = len(extended) - novel_expected
        incremental = run_sweep(extended, workers=1, store=store)
        store_info = store.info()
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    # Phase 4: fused corruption kernel vs per-stage reference.
    fused = _fused_comparison(config)

    claims = {
        "identical_across_workers": bool(identical_across_workers),
        "warm_speedup_ok": bool(warm_speedup >= WARM_SPEEDUP_TARGET),
        "fused_equivalent": bool(fused["fused_equivalent"]),
        "incremental_only_novel": bool(
            incremental.executed == novel_expected
            and incremental.replayed == replay_expected),
        "sweep_scale_ok": bool(n >= 10_000),
        "pool_scaling_ok": bool(pool_scaling >= POOL_SCALING_TARGET),
    }
    return {
        "bench": "scenario_sweep",
        "config": {
            "corruptions": list(CORRUPTIONS),
            "severities": list(config.severities),
            "depth": DEPTH,
            "platforms": list(config.platforms),
            "traffics": list(config.traffics),
            "seeds": list(config.seeds),
            "extension_seeds": list(config.extension_seeds),
            "evaluator": EVALUATOR,
            "worker_counts": list(WORKER_COUNTS),
        },
        "smoke": smoke,
        "n_scenarios": n,
        "host_cpus": os.cpu_count(),
        "worker_curve": worker_curve,
        "identical_across_workers": bool(identical_across_workers),
        "pool_scaling": pool_scaling,
        "pool_scaling_target": POOL_SCALING_TARGET,
        "cold": {"wall_s": cold.duration_s, "executed": cold.executed,
                 "replayed": cold.replayed},
        "warm": {"wall_s": warm.duration_s, "executed": warm.executed,
                 "replayed": warm.replayed},
        "warm_speedup": warm_speedup,
        "warm_speedup_target": WARM_SPEEDUP_TARGET,
        "incremental": {
            "total": len(extended),
            "executed": incremental.executed,
            "replayed": incremental.replayed,
            "novel_expected": novel_expected,
        },
        "store": store_info,
        "fused": fused,
        "payload_sha": shas[0] if shas else "",
        "claims": claims,
    }


def claims(payload: dict, baseline: dict) -> List[Claim]:
    # The full-sweep claims come from this run when it is the full
    # sweep, else from the committed one.
    full = baseline if payload["smoke"] else payload
    flags = payload["claims"]
    inc, fused = payload["incremental"], payload["fused"]
    out = [Claim("sweep-scale", full["claims"]["sweep_scale_ok"], True,
                 f"full sweep covers {full['n_scenarios']} scenarios "
                 "(>= 10^4)")]
    for flag in ("identical_across_workers", "warm_speedup_ok",
                 "fused_equivalent", "incremental_only_novel"):
        out.append(Claim(f"baseline-{flag.replace('_', '-')}",
                         baseline["claims"][flag], True,
                         "holds in committed full-sweep JSON"))
    out += [
        # Sharded execution is invisible in the results.
        Claim("identical-across-workers", flags["identical_across_workers"],
              True,
              "payload byte-identical at workers "
              f"{[r['workers'] for r in payload['worker_curve']]} over "
              f"{payload['n_scenarios']} scenarios"),
        # The content-addressed replay store makes a warm re-sweep cheap.
        Claim("warm-cache-speedup", flags["warm_speedup_ok"], True,
              f"{payload['warm_speedup']:.1f}x vs target "
              f"{WARM_SPEEDUP_TARGET:.0f}x (baseline "
              f"{baseline['warm_speedup']:.1f}x)"),
        # The fused single-pass corruption stack is exactly the
        # per-stage reference composition.
        Claim("fused-backend-equivalence", flags["fused_equivalent"], True,
              f"{fused['stacks_compared']} stacks exactly equal "
              f"(fused {fused['fused_speedup']:.2f}x faster)"),
        Claim("incremental-only-novel", flags["incremental_only_novel"],
              True,
              f"extension executed {inc['executed']} (expected "
              f"{inc['novel_expected']}), replayed {inc['replayed']}"),
        # Wall-clock scaling jitters on shared hosts.
        Claim("pool-scaling", full["claims"]["pool_scaling_ok"], False,
              f"full sweep {full['pool_scaling']:.2f}x at "
              f"{max(full['config']['worker_counts'])} workers (this run "
              f"{payload['pool_scaling']:.2f}x)"),
    ]
    return out


def test_scenario_sweep(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    verdict = check("scenario_sweep", result)
    cfg = result["config"]
    print_table(
        f"Scenario sweep — {result['n_scenarios']} scenarios "
        f"({len(cfg['corruptions'])} corruptions, depth {cfg['depth']}, "
        f"{len(cfg['platforms'])} platforms, {len(cfg['traffics'])} "
        f"traffic regimes, {len(cfg['seeds'])} seeds)",
        ["Workers", "Wall", "Scenarios/s", "Payload sha"],
        [[row["workers"], f"{row['wall_s']:.2f}s",
          f"{row['scenarios_per_s']:.0f}", row["payload_sha"][:16]]
         for row in result["worker_curve"]])
    print_table(
        "Replay store: cold vs warm vs incremental extension",
        ["Phase", "Wall", "Executed", "Replayed"],
        [["cold", f"{result['cold']['wall_s']:.2f}s",
          result["cold"]["executed"], result["cold"]["replayed"]],
         ["warm", f"{result['warm']['wall_s']:.2f}s",
          result["warm"]["executed"], result["warm"]["replayed"]],
         ["incremental", "-", result["incremental"]["executed"],
          result["incremental"]["replayed"]]])
    save_result("bench_scenario_sweep", result)
    assert_claims(verdict)
