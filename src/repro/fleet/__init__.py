"""``repro.fleet`` — sharded multi-process serving fabric.

One :class:`~repro.serve.BatchedService` batches many loops in one
process; this package shards that service's :class:`MicroBatcher`
across a fleet of replica processes behind a staleness-aware router,
operationalizing the paper's Sec. II argument that loop *latency and
observation staleness* — not just model error — bound closed-loop
autonomy: a request that cannot be served inside its staleness budget
is shed (or downgraded to a cheap fallback method) instead of served
late.

Layers:

* :mod:`repro.fleet.scheduler` — :class:`FleetScheduler`, the pure,
  clock-injected routing/admission core (consistent hashing + SLO lanes
  + staleness admission + backpressure), unit-testable on a
  :class:`~repro.core.clock.VirtualClock`.
* :mod:`repro.fleet.replica` — the replica loop: a thin driver of one
  :class:`~repro.serve.MicroBatcher` fed from a request queue
  (process- and thread-runnable).
* :mod:`repro.fleet.fabric` — :class:`ServingFleet`, the process fabric
  tying router, replicas, their queues, and telemetry merge together.
* :mod:`repro.fleet.runners` — picklable STARNet replica runners
  (:class:`MonitorRunnerFactory`) and the device-latency floor
  (:class:`EmulatedServiceRunner`) ``benchmarks/bench_fleet_scaling.py``
  serves through.
"""

from .fabric import FleetReplicaError, RequestShed, ServingFleet
from .replica import ReplicaSpec, replica_loop, replica_main
from .runners import EmulatedServiceRunner, MonitorRunnerFactory
from .scheduler import (
    DEFAULT_LANES,
    ConsistentHashRing,
    Decision,
    FleetConfig,
    FleetScheduler,
    SLOLane,
)

__all__ = [
    "SLOLane", "DEFAULT_LANES", "FleetConfig", "Decision",
    "ConsistentHashRing", "FleetScheduler",
    "ReplicaSpec", "replica_loop", "replica_main",
    "RequestShed", "FleetReplicaError", "ServingFleet",
    "MonitorRunnerFactory", "EmulatedServiceRunner",
]
