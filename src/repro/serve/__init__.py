"""``repro.serve`` — batched streaming-inference serving runtime.

The repo's pillars each expose a batched inference entry point
(parity-tested against their per-sample paths); this package turns them
into a *service*: a dynamic micro-batching scheduler coalesces requests
from many concurrent sensing-to-action loops into single vectorized
forward passes, trading a bounded queueing delay (``max_wait_ms``) for
multiplicative throughput — the standard inference-serving answer to
the paper's edge-concurrency problem (Sec. II).

Layers:

* :mod:`repro.serve.scheduler` — :class:`MicroBatcher` (deterministic
  coalescing core, virtual-time testable) and :class:`BatchedService`
  (worker thread + blocking ``submit``).
* :mod:`repro.serve.services` — batch runners for each pillar and
  loop-facing :class:`Monitor`/:class:`Perception` wrappers.

``benchmarks/bench_serving_throughput.py`` measures the service against
serial per-request inference over N concurrent loops.
"""

from .scheduler import (
    BatchedService,
    BatcherConfig,
    MicroBatcher,
    ServeTicket,
    ServiceOverloaded,
)
from .services import (
    BatchedMonitor,
    BatchedPerception,
    compiled_monitor_runner,
    detector_runner,
    flow_runner,
    koopman_rollout_runner,
    monitor_runner,
    occupancy_runner,
)

__all__ = [
    "BatcherConfig", "MicroBatcher", "BatchedService", "ServeTicket",
    "ServiceOverloaded",
    "BatchedMonitor", "BatchedPerception", "monitor_runner",
    "compiled_monitor_runner", "detector_runner", "occupancy_runner",
    "flow_runner", "koopman_rollout_runner",
]
