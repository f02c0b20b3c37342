"""Tests for the sharded serving fabric (``repro.fleet``).

The deterministic :class:`FleetScheduler` core is driven with a
:class:`VirtualClock`, so every routing, staleness-shedding, downgrade,
and backpressure decision is an exact function of recorded dispatches
and completions.  The :class:`ServingFleet` fabric is exercised both
in-process (thread replicas, deterministic gating) and as real
processes, and the shed and failure accounting is checked against the
``fleet.*`` observability counters.
"""

import os
import queue
import threading

import numpy as np
import pytest

from repro import obs
from repro.core import Percept, VirtualClock
from repro.fleet import (
    ConsistentHashRing,
    FleetConfig,
    FleetReplicaError,
    FleetScheduler,
    MonitorRunnerFactory,
    ReplicaSpec,
    RequestShed,
    ServingFleet,
    replica_loop,
)
from repro.serve import BatcherConfig, ServiceOverloaded


# --------------------------------------------------- module-level factories
# (process-mode replica factories must be picklable, hence top-level)
def _double_runner_factory(index, seed):
    return lambda items: [np.asarray(x) * 2.0 for x in items]


def _poisonable_runner_factory(index, seed):
    def run(items):
        out = []
        for x in items:
            arr = np.asarray(x, dtype=np.float64)
            if arr.flat[0] > 100.0:
                raise ValueError("poison payload")
            out.append(arr * 2.0)
        return out
    return run


def _exiting_runner_factory(index, seed):
    """The replica process dies outright on a poison payload."""
    def run(items):
        if any(np.asarray(x).flat[0] > 100.0 for x in items):
            os._exit(3)
        return [np.asarray(x) * 2.0 for x in items]
    return run


class _GatedFactory:
    """In-process-only factory whose runner blocks until released —
    makes queue-depth scenarios deterministic."""

    def __init__(self):
        self.gate = threading.Event()

    def __call__(self, index, seed):
        def run(items):
            assert self.gate.wait(10.0), "gate never opened"
            return [float(np.asarray(x).sum()) for x in items]
        return run


def _key_for_replica(ring: ConsistentHashRing, replica: int) -> str:
    for i in range(10_000):
        if ring.route(f"probe-{i}") == replica:
            return f"probe-{i}"
    raise AssertionError("no key routes to replica")  # pragma: no cover


# ------------------------------------------------------------------- ring
def test_hash_ring_is_deterministic_and_covers_all_replicas():
    a = ConsistentHashRing(4, vnodes=32)
    b = ConsistentHashRing(4, vnodes=32)
    routes = [a.route(f"client-{i}") for i in range(256)]
    assert routes == [b.route(f"client-{i}") for i in range(256)]
    assert set(routes) == {0, 1, 2, 3}
    assert all(0 <= r < 4 for r in routes)


def test_hash_ring_key_affinity_is_stable():
    ring = ConsistentHashRing(3)
    assert ring.route("tenant-a") == ring.route("tenant-a")
    with pytest.raises(ValueError):
        ConsistentHashRing(0)


# -------------------------------------------------------- scheduler policy
def _loaded_scheduler(per_replica: int = 10, **config_kw):
    """A 2-replica scheduler with ``per_replica`` in-flight requests on
    each replica (projected wait = per_replica x 5ms prior)."""
    clock = VirtualClock()
    sched = FleetScheduler(FleetConfig(replicas=2, **config_kw),
                           clock=clock)
    for replica in (0, 1):
        for _ in range(per_replica):
            sched.record_dispatch(replica)
    return sched, clock


def test_scheduler_dispatches_when_idle():
    sched, _ = _loaded_scheduler(per_replica=0)
    decision = sched.assign("client-1")
    assert decision.action == "dispatch"
    assert decision.replica == sched.ring.route("client-1")
    assert sched.shed_total == 0


def test_scheduler_sheds_stale_request_before_dispatch():
    # Projected wait is 10 x 5ms = 50ms on both replicas; a 20ms budget
    # cannot be met, the lane is not downgradable -> shed, not queued.
    sched, _ = _loaded_scheduler(per_replica=10)
    depth_before = [sched.depth(0), sched.depth(1)]
    decision = sched.assign("client-1", lane="default",
                            staleness_budget_ms=20.0)
    assert decision.action == "shed"
    assert decision.reason == "stale"
    assert decision.projected_wait_s == pytest.approx(0.05)
    assert [sched.depth(0), sched.depth(1)] == depth_before
    assert sched.shed_stale == 1 and sched.shed_total == 1


def test_scheduler_sheds_request_that_arrives_already_stale():
    # Even an idle fleet sheds a request whose observation age already
    # exceeds its budget: serving it would be acting on dead state.
    sched, clock = _loaded_scheduler(per_replica=0)
    taken_at = clock.now()
    clock.advance(0.3)  # default lane budget is 250ms
    decision = sched.assign("client-1", lane="default",
                            enqueue_t=taken_at)
    assert decision.action == "shed" and decision.reason == "stale"


def test_scheduler_downgrades_when_lane_allows():
    sched, _ = _loaded_scheduler(per_replica=10)
    decision = sched.assign("client-1", lane="besteffort",
                            staleness_budget_ms=20.0)
    assert decision.action == "downgrade"
    assert sched.downgraded == 1 and sched.shed_total == 0
    # Without a registered fallback the same request is shed instead.
    decision = sched.assign("client-1", lane="besteffort",
                            staleness_budget_ms=20.0, can_downgrade=False)
    assert decision.action == "shed" and decision.reason == "stale"


def test_scheduler_priority0_retries_least_loaded():
    # Primary cannot meet the budget but the other replica can: an
    # interactive (priority-0) request is rerouted, a default one shed.
    clock = VirtualClock()
    sched = FleetScheduler(FleetConfig(replicas=2, spill_depth=1000),
                           clock=clock)
    key = _key_for_replica(sched.ring, 0)
    for _ in range(30):  # 150ms projected on the primary
        sched.record_dispatch(0)
    shed = sched.assign(key, lane="default", staleness_budget_ms=100.0)
    assert shed.action == "shed"
    saved = sched.assign(key, lane="interactive",
                         staleness_budget_ms=100.0)
    assert saved.action == "dispatch"
    assert saved.replica == 1
    assert sched.spills == 1


def test_scheduler_sheds_overload_when_every_replica_full():
    sched, _ = _loaded_scheduler(per_replica=4, max_queue_depth=4)
    decision = sched.assign("client-1", staleness_budget_ms=1e6)
    assert decision.action == "shed" and decision.reason == "overload"
    assert sched.shed_overload == 1


def test_scheduler_completion_updates_depth_and_ema():
    sched, _ = _loaded_scheduler(per_replica=4)
    sched.record_completion(0, service_s=0.08, batch_size=4)
    assert sched.depth(0) == 0 and sched.depth(1) == 4
    # EMA: 0.2 * (80ms / 4) + 0.8 * 5ms prior
    assert sched.projected_wait_s(0) == 0.0
    assert sched._ema_service_s[0] == pytest.approx(0.008)
    assert sched.least_loaded() == 0
    snap = sched.snapshot()
    assert snap["completed"] == 4
    assert snap["queue_depth"] == [0, 4]


def test_scheduler_counts_match_obs_metrics():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        sched, _ = _loaded_scheduler(per_replica=10)
        sched.assign("a", staleness_budget_ms=20.0)       # stale shed
        sched.assign("b", lane="besteffort",
                     staleness_budget_ms=20.0)            # downgrade
        sched.assign("c", staleness_budget_ms=1e6)        # dispatchable
    counters = registry.snapshot()["counters"]
    assert counters["fleet.requests"] == sched.requests == 3
    assert counters["fleet.shed"] == sched.shed_total == 1
    assert counters["fleet.shed_stale"] == sched.shed_stale == 1
    assert counters["fleet.downgraded"] == sched.downgraded == 1
    assert counters["fleet.dispatched"] == sched.dispatched == 20


def test_scheduler_rejects_unknown_lane():
    sched, _ = _loaded_scheduler(per_replica=0)
    with pytest.raises(ValueError, match="unknown SLO lane"):
        sched.assign("x", lane="no-such-lane")


# ------------------------------------------------------------ replica loop
def test_replica_loop_batches_and_drains_on_stop():
    request_q, response_q = queue.Queue(), queue.Queue()
    spec = ReplicaSpec(runner_factory=_double_runner_factory,
                       batch=BatcherConfig(max_batch_size=3,
                                           max_wait_ms=5.0))
    for seq in range(5):
        request_q.put(("req", seq, np.full(2, float(seq))))
    request_q.put(("stop",))
    stats = replica_loop(0, spec, seed=0, request_q=request_q,
                         response_q=response_q)
    assert stats == {"requests": 5, "batches": 2, "errors": 0}
    assert response_q.get_nowait() == ("ready", 0)
    rows = []
    while not response_q.empty():
        message = response_q.get_nowait()
        assert message[0] == "res"
        rows.extend(message[3])
    assert sorted(row[0] for row in rows) == [0, 1, 2, 3, 4]
    for seq, result, error in rows:
        assert error is None
        np.testing.assert_array_equal(result, np.full(2, float(seq) * 2))


# -------------------------------------------------- in-process integration
def test_inprocess_fleet_round_trips_requests():
    spec = ReplicaSpec(runner_factory=_double_runner_factory,
                       batch=BatcherConfig(max_batch_size=4,
                                           max_wait_ms=2.0))
    with ServingFleet(spec, FleetConfig(replicas=2),
                      inprocess=True) as fleet:
        payloads = [np.full(3, float(i)) for i in range(20)]
        results = [fleet.submit(p, key=f"client-{i % 5}", timeout=30.0)
                   for i, p in enumerate(payloads)]
        for payload, result in zip(payloads, results):
            np.testing.assert_array_equal(result, payload * 2.0)
        snap = fleet.scheduler.snapshot()
        assert snap["dispatched"] == snap["completed"] == 20
        assert snap["shed"] == 0
    stats = fleet.stats()
    assert stats["inprocess"] is True
    assert sum(r["requests"] for r in stats["replicas"].values()) == 20


def test_inprocess_fleet_saturation_sheds_and_accounts():
    """Saturating ``max_queue_depth`` across 2 replicas: overload sheds
    surface as :class:`ServiceOverloaded` and the counts agree between
    raised exceptions, the scheduler, and the ``fleet.*`` metrics."""
    factory = _GatedFactory()
    spec = ReplicaSpec(runner_factory=factory,
                       batch=BatcherConfig(max_batch_size=8,
                                           max_wait_ms=5.0))
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        with ServingFleet(spec, FleetConfig(replicas=2, max_queue_depth=2),
                          inprocess=True) as fleet:
            tickets, sheds = [], []
            for i in range(12):  # capacity is 2 replicas x depth 2
                try:
                    tickets.append(fleet.submit_async(
                        np.full(2, float(i)), key=f"client-{i}",
                        staleness_budget_ms=10_000.0))
                except RequestShed as exc:
                    assert isinstance(exc, ServiceOverloaded)
                    assert exc.reason == "overload"
                    sheds.append(exc)
            assert len(tickets) == 4 and len(sheds) == 8
            factory.gate.set()
            for ticket in tickets:
                assert ticket.event.wait(30.0)
                ticket.result()
            sched = fleet.scheduler
            assert sched.shed_overload == len(sheds) == 8
            assert sched.shed_stale == 0
            assert sched.completed == 4
    counters = registry.snapshot()["counters"]
    assert counters["fleet.shed"] == 8
    assert counters["fleet.shed_overload"] == 8
    assert counters["fleet.dispatched"] == 4
    assert counters["fleet.completed"] == 4


def test_inprocess_fleet_downgrades_to_fallback():
    """A downgradeable request that cannot meet its budget is answered
    by the fallback method, synchronously, and counted."""
    factory = _GatedFactory()
    spec = ReplicaSpec(runner_factory=factory,
                       batch=BatcherConfig(max_batch_size=8,
                                           max_wait_ms=5.0))
    fallback_calls = []

    def fallback(payload):
        fallback_calls.append(np.asarray(payload).copy())
        return -1.0

    with ServingFleet(spec, FleetConfig(replicas=1), fallback=fallback,
                      inprocess=True) as fleet:
        blocked = [fleet.submit_async(np.full(2, float(i)), key="warm",
                                      staleness_budget_ms=10_000.0)
                   for i in range(2)]
        # Projected wait is 2 x 5ms prior = 10ms > the 1ms budget.
        result = fleet.submit(np.ones(2), key="warm", lane="besteffort",
                              staleness_budget_ms=1.0, timeout=30.0)
        assert result == -1.0
        assert len(fallback_calls) == 1
        assert fleet.scheduler.downgraded == 1
        assert fleet.scheduler.shed_total == 0
        factory.gate.set()
        for ticket in blocked:
            assert ticket.event.wait(30.0)


def test_inprocess_fleet_contains_batch_runner_failures():
    spec = ReplicaSpec(runner_factory=_poisonable_runner_factory,
                       batch=BatcherConfig(max_batch_size=4,
                                           max_wait_ms=2.0))
    with ServingFleet(spec, FleetConfig(replicas=1),
                      inprocess=True) as fleet:
        np.testing.assert_array_equal(
            fleet.submit(np.full(2, 3.0), timeout=30.0), np.full(2, 6.0))
        with pytest.raises(FleetReplicaError) as exc_info:
            fleet.submit(np.full(2, 999.0), timeout=30.0)
        # The replica-side traceback rides along, and the replica
        # survives to serve the next request.
        assert "poison payload" in str(exc_info.value)
        assert "Traceback" in str(exc_info.value)
        np.testing.assert_array_equal(
            fleet.submit(np.full(2, 4.0), timeout=30.0), np.full(2, 8.0))


def test_inprocess_fleet_monitor_equivalence_across_sharding():
    """Sharding the STARNet trust workload across replicas returns the
    same per-request values as scoring directly — the contract the
    fleet bench gates on, minus the processes."""
    factory = MonitorRunnerFactory(fit_epochs=3, per_batch_ms=0.0,
                                   per_item_ms=0.0)
    rng = np.random.default_rng(7)
    rows = [rng.normal(size=6) for _ in range(24)]
    monitor = factory.make_monitor()
    expected = [float(t) for t in monitor.assess_batch(
        [Percept(features=row) for row in rows])]
    spec = ReplicaSpec(runner_factory=factory,
                       batch=BatcherConfig(max_batch_size=4,
                                           max_wait_ms=2.0))
    with ServingFleet(spec, FleetConfig(replicas=2),
                      inprocess=True) as fleet:
        got = [fleet.submit(row, key=f"client-{i % 6}", timeout=60.0)
               for i, row in enumerate(rows)]
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)


def test_fleet_rejects_a_replica_queue_shallower_than_its_cap():
    spec = ReplicaSpec(runner_factory=_double_runner_factory,
                       batch=BatcherConfig(max_batch_size=4,
                                           max_queue_depth=8))
    with pytest.raises(ValueError, match="would shed"):
        ServingFleet(spec, FleetConfig(replicas=1, max_queue_depth=16),
                     inprocess=True)


# ------------------------------------------------------ process-mode smoke
def test_process_fleet_serves_over_shared_memory():
    """Process replicas over ``multiprocessing`` queues; their
    telemetry merges back into the router's registry on close."""
    spec = ReplicaSpec(runner_factory=_double_runner_factory,
                       batch=BatcherConfig(max_batch_size=4,
                                           max_wait_ms=5.0))
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        with ServingFleet(spec, FleetConfig(replicas=2,
                                            max_queue_depth=8)) as fleet:
            payloads = [np.full(6, float(i)) for i in range(16)]
            tickets = [fleet.submit_async(p, key=f"client-{i % 4}")
                       for i, p in enumerate(payloads)]
            for payload, ticket in zip(payloads, tickets):
                assert ticket.event.wait(60.0)
                np.testing.assert_array_equal(ticket.result(),
                                              payload * 2.0)
            assert fleet.scheduler.completed == 16
        # Replica-side telemetry merged back on close, in index order.
        snap = registry.snapshot()
        replica_requests = sum(
            snap["counters"].get(f"fleet.r{i}.requests", 0.0)
            for i in range(2))
        assert replica_requests == 16
        # The router's in-flight gauges sit apart from the replicas'
        # own queue-depth gauges, and both drained to zero.
        for i in range(2):
            assert snap["gauges"][f"fleet.r{i}.inflight"] == 0
    stats = fleet.stats()
    assert sum(r["requests"] for r in stats["replicas"].values()) == 16


def test_process_fleet_accounts_requests_lost_to_a_dead_replica():
    """A replica process that dies fails its in-flight request, and a
    later request routed to it fails at submit; both count as
    ``failed``, so every request has exactly one outcome."""
    spec = ReplicaSpec(runner_factory=_exiting_runner_factory,
                       batch=BatcherConfig(max_batch_size=1,
                                           max_wait_ms=0.0))
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        with ServingFleet(spec, FleetConfig(replicas=1)) as fleet:
            np.testing.assert_array_equal(
                fleet.submit(np.full(2, 1.0), timeout=60.0), np.full(2, 2.0))
            with pytest.raises(FleetReplicaError, match="exited with code 3"):
                fleet.submit(np.full(2, 999.0), timeout=60.0)
            with pytest.raises(FleetReplicaError):
                fleet.submit(np.full(2, 1.0), timeout=60.0)
    snap = fleet.scheduler.snapshot()
    assert (snap["requests"], snap["completed"], snap["failed"]) == (3, 1, 2)
    assert snap["requests"] == (snap["completed"] + snap["failed"]
                                + snap["shed"] + snap["downgraded"])
    assert snap["queue_depth"] == [0]
    assert registry.snapshot()["counters"]["fleet.failed"] == 2
