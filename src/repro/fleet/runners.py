"""Picklable replica batch runners for STARNet trust serving.

:class:`MonitorRunnerFactory` is the :class:`~repro.fleet.ReplicaSpec`
``runner_factory`` the fleet benchmark and tests ship to replica
processes: every replica builds the *same* seeded monitor, so
per-request trust values agree with a single-process reference however
requests are sharded or batched.  :class:`EmulatedServiceRunner` pads
each batch to a device-latency floor — the single-CPU methodology that
lets a throughput curve measure scheduling concurrency rather than
Python compute parallelism the host may not have.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, List

import numpy as np

from ..core.components import Percept
from ..starnet.monitor import STARNet

__all__ = ["MonitorRunnerFactory", "EmulatedServiceRunner"]


class EmulatedServiceRunner:
    """Pad each batch to a fixed device-latency floor.

    The wrapped runner's real compute overlaps the floor (the sleep
    covers only the remainder), so the floor is a *minimum* batch
    latency — the emulated accelerator round-trip — not an additive
    cost.
    """

    def __init__(self, runner, per_batch_ms: float, per_item_ms: float):
        self.runner = runner
        self.per_batch_ms = per_batch_ms
        self.per_item_ms = per_item_ms

    def __call__(self, items: List[Any]) -> List[Any]:
        t0 = time.perf_counter()
        results = self.runner(items)
        floor_s = (self.per_batch_ms + self.per_item_ms * len(items)) / 1e3
        remaining = floor_s - (time.perf_counter() - t0)
        if remaining > 0:
            time.sleep(remaining)
        return results


class _FeatureBatchRunner:
    """Batch runner over raw feature vectors: requests are plain arrays,
    results are plain floats."""

    def __init__(self, monitor: STARNet):
        self.monitor = monitor

    def __call__(self, items: List[Any]) -> List[float]:
        percepts = [Percept(features=np.asarray(f)) for f in items]
        return [float(t) for t in self.monitor.assess_batch(percepts)]


@dataclass(frozen=True)
class MonitorRunnerFactory:
    """Picklable replica runner factory (see :class:`ReplicaSpec`).

    Deliberately ignores the per-replica seed it is called with: every
    replica builds the *same* monitor from the factory's own seed, which
    is the numerical-interchangeability contract the equivalence gate
    checks.
    """

    feature_dim: int = 6
    fit_epochs: int = 15
    seed: int = 0
    per_batch_ms: float = 12.0
    per_item_ms: float = 5.0
    score_method: str = "exact"

    def make_monitor(self) -> STARNet:
        rng = np.random.default_rng(self.seed)
        monitor = STARNet(self.feature_dim, score_method=self.score_method,
                          rng=np.random.default_rng(self.seed + 1))
        monitor.fit(rng.normal(size=(64, self.feature_dim)),
                    epochs=self.fit_epochs)
        return monitor

    def __call__(self, index: int, replica_seed: int):
        runner = _FeatureBatchRunner(self.make_monitor())
        return EmulatedServiceRunner(runner, self.per_batch_ms,
                                     self.per_item_ms)
