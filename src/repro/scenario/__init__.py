"""``repro.scenario`` — declarative high-throughput scenario sweeps.

The paper's robustness argument (Sec. V) needs the sensing-to-action
loop scored across *many* corruption regimes, not a handful of
single-corruption severities.  This package turns that into a
throughput problem and solves it three ways:

* **specs** (:mod:`.spec`) — a :class:`Scenario` is a pure value
  (corruption stack × platform × traffic × seed × evaluator) with a
  content-address fingerprint and content-derived RNG streams; a
  :class:`SweepPlan` expands grids into 10^4+ scenarios;
* **replay** — a bucketed, content-addressed :class:`ReplayStore`
  (one of the :mod:`repro.runtime.store` primitives) makes overlapping
  re-sweeps near-free: only novel scenarios execute;
* **sharding + fusion** (:mod:`.engine`) — novel scenarios fan out
  over :class:`repro.runtime.WorkerPool` with submission-order merge
  (byte-identical payloads at any worker count), and corruption stacks
  apply through the fused single-pass ``corruption_stack`` kernel.

``benchmarks/bench_scenario_sweep.py`` measures the engine;
``repro verify`` holds a golden sweep trace.
"""

from ..runtime.store import ReplayStore
from .engine import SweepResult, evaluate_scenario, run_sweep
from .evaluators import (
    EVALUATORS,
    get_evaluator,
    register_evaluator,
    scan_stats,
)
from .spec import PLATFORMS, TRAFFIC, CorruptionStage, Scenario, SweepPlan, stack_grid

__all__ = [
    "CorruptionStage", "Scenario", "SweepPlan", "stack_grid",
    "PLATFORMS", "TRAFFIC",
    "ReplayStore",
    "SweepResult", "evaluate_scenario", "run_sweep",
    "EVALUATORS", "register_evaluator", "get_evaluator", "scan_stats",
]
