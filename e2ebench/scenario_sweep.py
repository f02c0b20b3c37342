"""``scenario_sweep``: a cold corruption-stack sweep, then extensions.

Each round starts from an empty ``ReplayStore``.  A cold sweep of 30
ordered snow/fog/crosstalk stacks over three platforms (vehicle, drone,
quadruped) runs through ``scenario.run_sweep`` and the fused corruption
kernel; two extended plans follow, each adding one scenario seed, so
they replay the earlier rows and execute only the novel ones.  Every
plan executes the same 90 novel scenarios, so plan times share one mode.
Novel scenarios fan out over ``runtime.WorkerPool`` with nproc workers,
which set-up starts and primes on a fixed set of scenarios.

Why: the only workload that writes and then reads the content-addressed
store and fans out over the pool, using many small scans; the
perception layers do no work, so a perception change should leave it
unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.obs import trace_span
from repro.runtime import WorkerPool
from repro.scenario import (PLATFORMS, ReplayStore, SweepPlan,
                            evaluate_scenario, run_sweep, stack_grid)
from repro.sim import LidarConfig

from . import common

STACKS = tuple(stack_grid(("snow", "fog", "crosstalk"), (0.5, 1.0), depth=2))
PLATFORM_NAMES = ("vehicle", "drone", "quadruped")
EXTENSIONS = 2
# Starting two workers takes ~20 ms, most of it process scheduling, so
# alone it would make a set-up time the host's load decides.  Set-up
# therefore also primes the workers on every platform (~0.4 s on two
# cores), with scenarios no plan contains (their seed is negative), and
# setup_s is the median of 11 set-ups: 5 still left its run-to-run
# spread at 0.25.
PRIME = SweepPlan(stacks=STACKS[:16], platforms=PLATFORM_NAMES,
                  traffics=("urban",), seeds=(-1,)).scenarios()
SETUP_REPEATS = 11
WARM_STEPS = EXTENSIONS + 1    # one round


def _prime(chunk) -> List[float]:
    """Pool task: one worker executes its share of ``PRIME``."""
    return [evaluate_scenario(s)["energy_mj"] for s in chunk]


def _slowdown(_) -> float:
    """Pool task: the host's slowdown as one worker sees it."""
    return common.HostProbe().slowdown()


class PoolProbe:
    """The host's slowdown where the sweep's work runs: the mean over
    the pool's workers, each running :class:`common.HostProbe`."""

    def __init__(self, pool: WorkerPool):
        self.pool = pool

    def slowdown(self) -> float:
        return float(np.mean(self.pool.map(_slowdown,
                                           range(self.pool.workers))))


def probe(sweep: "Sweep") -> PoolProbe:
    return PoolProbe(sweep.pool)


class TimedStore(ReplayStore):
    """The replay store the benchmark passes in; a span around every
    lookup and insert."""

    def lookup(self, keys):
        with trace_span("scenario.store_lookup"):
            return super().lookup(keys)

    def insert(self, entries):
        with trace_span("scenario.store_insert"):
            super().insert(entries)


@dataclass
class Sweep:
    plans: List[list]
    pool: WorkerPool


def plans_for(seed: int) -> List[list]:
    """The cold plan, then plans adding one seed each."""
    base = 1_000 * seed
    return [SweepPlan(stacks=STACKS, platforms=PLATFORM_NAMES,
                      traffics=("urban",),
                      seeds=tuple(base + j for j in range(k + 1))).scenarios()
            for k in range(EXTENSIONS + 1)]


def setup(seed: int) -> Sweep:
    pool = WorkerPool(common.nproc())
    try:
        pool.map(_prime, [PRIME[i::pool.workers]
                          for i in range(pool.workers)])
    except BaseException:
        pool.close()
        raise
    return Sweep(plans_for(seed), pool)


def release(sweep: Sweep) -> None:
    sweep.pool.close()


def _sha(rows) -> str:
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Runner(common.Runner):
    """Rounds of plans over the shared pool; every round starts from an
    empty store of the runner's own.  One step runs one plan."""

    SPAN = "scenario.run_sweep"
    # Twelve rounds (~15 s on an idle host, ~23 s at the slowest seen):
    # the tail is the p72 of their plans, inside the heaviest third.
    MIN_STEPS = 12 * (EXTENSIONS + 1)

    def __init__(self, sweep: Sweep, obs):
        super().__init__(obs)
        self.sweep = sweep
        self.root = tempfile.mkdtemp(
            prefix="runner-", dir=os.environ["REPRO_SCENARIO_STORE"])
        self.rounds = self.plan = 0
        self.resolved = self.executed = self.replayed = 0
        self.violations: List[str] = []
        self.plan_shas: List[str] = []
        self.energy_mj: List[float] = []
        self.store = None           # the current round's store
        self.computed: Dict[str, dict] = {}

    @property
    def ops(self) -> int:
        return self.resolved

    def op_id(self) -> str:
        return f"round{self.rounds}-plan{self.plan}"

    def fail(self, exc: Exception) -> None:
        super().fail(exc)
        self.failed += len(self.sweep.plans[self.plan]) - 1

    def step(self) -> None:
        j = self.plan
        if j == 0:
            self.store = TimedStore(os.path.join(self.root,
                                                 f"round{self.rounds}"))
            self.computed = {}
        res = run_sweep(self.sweep.plans[j], store=self.store,
                        pool=self.sweep.pool)
        self.resolved += res.count
        self.executed += res.executed
        self.replayed += res.replayed
        rows = list(zip(res.keys, res.metrics))
        computed = self.computed
        novel = {key for key, _ in rows} - set(computed)
        if res.executed + res.replayed != res.count:
            self.violations.append(
                f"plan {j}: executed {res.executed} + replayed "
                f"{res.replayed} != {res.count} scenarios")
        if res.executed != len(novel):
            self.violations.append(
                f"plan {j}: executed {res.executed}, novel {len(novel)}")
        seen = [(key, m) for key, m in rows if key in computed]
        if _sha(seen) != _sha([(key, computed[key]) for key, _ in seen]):
            self.violations.append(f"plan {j}: replayed rows differ from "
                                   "the rows that computed them")
        computed.update((key, m) for key, m in rows if key in novel)
        if self.rounds == 0:
            self.plan_shas.append(res.payload_sha())
            self.energy_mj.extend(m["energy_mj"] for _, m in rows)
        elif res.payload_sha() != self.plan_shas[j]:
            self.violations.append(f"round {self.rounds} plan {j}: payload "
                                   "differs from round 0")
        self.plan += 1
        if self.plan == len(self.sweep.plans):
            self.plan, self.rounds = 0, self.rounds + 1

    def can_stop(self) -> bool:
        # Whole rounds only: plans differ in how much they replay.
        return self.plan == 0 and super().can_stop()


def checks(r: Runner) -> None:
    common.check(not r.violations, "; ".join(r.violations[:3]))
    common.check(r.executed + r.replayed == r.resolved,
                 "executed + replayed != scenarios")


def end_to_end(r: Runner) -> Dict[str, float]:
    return {
        # Every scenario of a plan is specified at submission, so a row's
        # age at delivery is its plan's wall time.
        "staleness_p50_ms": common.median(r.latency_ms()),
        "energy_mj_per_op": float(np.mean(r.energy_mj)),
        # Read once the pool is closed, so it covers the workers.
        "peak_rss_mb": common.peak_rss_mb(),
    }


def details(r: Runner) -> dict:
    return {"rounds": r.rounds, "workers": r.sweep.pool.workers}


def store_bytes(store: ReplayStore) -> float:
    return float(sum(os.path.getsize(os.path.join(store.root, name))
                     for name in os.listdir(store.root)
                     if name.endswith(".pkl")))


def layer_metrics(r: Runner, registry) -> Dict[str, float]:
    def mean_ms(values: List[float]) -> float:
        return 1e3 * float(np.mean(values))

    pool_spans = common.durations(registry, "runtime.pool.scenario_chunk")
    beams = {name: LidarConfig(**PLATFORMS[name]).n_beams
             for name in PLATFORM_NAMES}
    executed_beams = [beams[s.platform] for scenarios in r.sweep.plans
                      for s in scenarios]
    counters = registry.snapshot()["counters"]
    return {
        "sim.beams_fired": float(np.mean(executed_beams)),
        "scenario.exec_ms": 1e3 * sum(pool_spans) / r.executed,
        "scenario.replayed_share": r.replayed / r.resolved,
        "scenario.store_lookup_ms": mean_ms(common.durations(
            registry, "scenario.store_lookup")),
        "scenario.store_insert_ms": mean_ms(common.durations(
            registry, "scenario.store_insert")),
        "scenario.store_bytes": store_bytes(r.store),
        "pool.map_ms": mean_ms(pool_spans),
        "pool.tasks": counters.get("runtime.tasks_submitted", 0.0)
        / len(r.step_s),
    }
