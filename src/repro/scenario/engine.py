"""Sweep execution: replay-aware, sharded, deterministically merged.

:func:`run_sweep` takes a plan (or explicit scenario list) and produces
one result row per scenario, in plan order, through three layers:

1. **replay** — every scenario's fingerprint is looked up in the
   :class:`~repro.runtime.store.ReplayStore` in one batch; only novel
   scenarios execute.  Duplicate scenarios within one sweep execute
   once and replay internally.
2. **sharding** — novel scenarios fan out over
   :class:`repro.runtime.WorkerPool` in contiguous chunks.  Each
   scenario derives every RNG stream from its own content seed, so
   results are independent of chunking and worker count; the pool's
   submission-order merge then makes the sweep payload **byte-identical
   at 1/2/4 workers** (asserted by the bench gate, not just promised).
3. **fused corruption** — stacks apply through the two-backend
   ``corruption_stack`` kernel (single-traversal fused path by default,
   bit-identical to the per-stage reference).

Engine bookkeeping (executed/replayed counts, store traffic) stays on
``runtime.*`` counters so sweeps inside golden-trace scenarios record
clean deterministic telemetry.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..obs.registry import get_registry
from ..runtime.pool import WorkerPool, resolve_workers
from ..runtime.store import ReplayStore
from ..sim.corruptions import apply_corruption_stack
from ..sim.lidar import LidarScanner
from ..sim.scenes import sample_scene
from .evaluators import get_evaluator
from .spec import TRAFFIC, Scenario, SweepPlan

__all__ = ["evaluate_scenario", "run_sweep", "SweepResult"]


def evaluate_scenario(scenario: Scenario) -> Dict[str, float]:
    """Execute one scenario: scene -> scan -> corruption stack -> metrics.

    Pure given the scenario value: every stream (scene sampling, scanner
    noise, per-stage corruption, evaluator probes) is spawned from the
    scenario's content seed.
    """
    scene_rng, scanner_rng, eval_rng, stage_rngs = scenario.rng_streams()
    scene = sample_scene(scene_rng, **TRAFFIC[scenario.traffic])
    scanner = LidarScanner(scenario.lidar_config(), rng=scanner_rng)
    clean = scanner.scan(scene)
    stack = [stage.as_tuple() for stage in scenario.stack]
    if stack:
        corrupted = apply_corruption_stack(clean, stack, rngs=stage_rngs)
    else:
        corrupted = clean
    return get_evaluator(scenario.evaluator)(clean, corrupted, eval_rng)


def _evaluate_chunk(chunk: Sequence[Scenario]
                    ) -> List[Tuple[str, Dict[str, float]]]:
    """Worker task: evaluate a contiguous slice of novel scenarios."""
    return [(s.fingerprint(), evaluate_scenario(s)) for s in chunk]


def _chunks(items: List, n_chunks: int) -> List[List]:
    """Split into at most ``n_chunks`` contiguous, near-even slices."""
    n_chunks = max(1, min(n_chunks, len(items)))
    base, extra = divmod(len(items), n_chunks)
    out, start = [], 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        out.append(items[start:start + size])
        start += size
    return out


@dataclass
class SweepResult:
    """Per-scenario metric rows in plan order, plus execution accounting."""

    keys: List[str]
    metrics: List[Dict[str, float]]
    executed: int
    replayed: int
    workers: int
    duration_s: float

    @property
    def count(self) -> int:
        return len(self.keys)

    def rows(self) -> List[Dict[str, object]]:
        return [{"key": key, "metrics": dict(sorted(m.items()))}
                for key, m in zip(self.keys, self.metrics)]

    def payload_bytes(self) -> bytes:
        """Canonical serialization of the full result payload.

        Sorted metric keys + exact shortest-repr floats: two sweeps
        produce equal bytes iff every metric value is bit-identical —
        the object the worker-identity gate hashes.
        """
        return json.dumps(self.rows(), sort_keys=True,
                          separators=(",", ":")).encode()

    def payload_sha(self) -> str:
        return hashlib.sha256(self.payload_bytes()).hexdigest()


def run_sweep(plan: Union[SweepPlan, Sequence[Scenario]],
              workers: Optional[int] = None,
              store: Union[ReplayStore, None, bool] = None,
              pool: Optional[WorkerPool] = None) -> SweepResult:
    """Run every scenario of ``plan``; replay what the store already has.

    ``store``: a :class:`ReplayStore` to replay from and insert novel
    results into, ``True`` for the default store (``scenarios/`` under
    ``$REPRO_CACHE_DIR``), or ``None``/``False`` to execute
    everything.  ``pool`` reuses an open
    pool across sweeps (workers taken from it); otherwise a pool with
    ``workers`` processes is created for the call.
    """
    t0 = time.perf_counter()
    scenarios = list(plan.scenarios()) if isinstance(plan, SweepPlan) \
        else list(plan)
    if store is True:
        store = ReplayStore()
    elif store is False:
        store = None
    keys = [s.fingerprint() for s in scenarios]

    replayed: Dict[str, Dict[str, float]] = (
        store.lookup(set(keys)) if store is not None else {})
    novel: List[Scenario] = []
    novel_keys = set()
    for scenario, key in zip(scenarios, keys):
        if key not in replayed and key not in novel_keys:
            novel.append(scenario)
            novel_keys.add(key)

    computed: Dict[str, Dict[str, float]] = {}
    if novel:
        own_pool = pool is None
        active = pool if pool is not None else WorkerPool(workers)
        try:
            chunked = _chunks(novel, active.workers * 8)
            for chunk_result in active.map(_evaluate_chunk, chunked,
                                           label="scenario_chunk"):
                computed.update(chunk_result)
        finally:
            if own_pool:
                active.close()
        if store is not None:
            store.insert(computed)
        pool_workers = active.workers
    else:
        pool_workers = pool.workers if pool is not None \
            else resolve_workers(workers)

    metrics = [replayed[key] if key in replayed else computed[key]
               for key in keys]
    obs = get_registry()
    obs.counter("runtime.scenario_executed").inc(len(novel))
    obs.counter("runtime.scenario_replayed").inc(len(keys) - len(novel))
    obs.counter("runtime.scenario_sweeps").inc()
    return SweepResult(keys=keys, metrics=metrics, executed=len(novel),
                       replayed=len(keys) - len(novel),
                       workers=pool_workers,
                       duration_s=time.perf_counter() - t0)
