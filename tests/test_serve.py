"""Tests for the micro-batching serving runtime (``repro.serve``).

The deterministic :class:`MicroBatcher` core is driven with a
:class:`VirtualClock`, so the coalescing policy (flush-on-full,
flush-on-deadline, shedding) is an exact function of submit/advance
calls.  The threaded :class:`BatchedService` is exercised with real
concurrency, and the integration test runs sensing-to-action loops
through a shared :class:`BatchedMonitor` and checks request-for-request
equivalence with direct per-sample assessment.
"""

import threading

import numpy as np
import pytest

from repro.core import (
    Action,
    Actuator,
    Clock,
    Environment,
    Percept,
    Perception,
    Policy,
    SensingToActionLoop,
    Sensor,
    SensorReading,
    SystemClock,
    VirtualClock,
)
from repro.runtime.bench import load_bench
from repro.serve import (
    BatchedMonitor,
    BatchedService,
    BatcherConfig,
    MicroBatcher,
    ServiceOverloaded,
    monitor_runner,
)


def doubling_runner(items):
    return [2 * x for x in items]


def make_batcher(runner=doubling_runner, clock=None, **kwargs):
    clock = clock if clock is not None else VirtualClock()
    return MicroBatcher(runner, BatcherConfig(**kwargs), clock=clock), clock


# ----------------------------------------------------------------- clocks
def test_virtual_clock_advances_only_on_demand():
    clock = VirtualClock(start=5.0)
    assert clock.now() == 5.0
    clock.advance(0.25)
    assert clock.now() == 5.25
    clock.sleep(0.75)  # sleep == advance for virtual time
    assert clock.now() == 6.0


def test_virtual_clock_rejects_negative_advance():
    clock = VirtualClock()
    with pytest.raises(ValueError):
        clock.advance(-0.1)


def test_system_clock_is_monotonic_nonblocking():
    clock = SystemClock()
    t0 = clock.now()
    clock.sleep(0.0)  # must not block
    clock.sleep(-1.0)  # negative tolerated as no-op
    assert clock.now() >= t0
    assert isinstance(clock, Clock)


def test_loop_accepts_injected_clock():
    clock = VirtualClock()

    class _Sensor(Sensor):
        def sense(self, env, directive, t):
            return SensorReading(data=np.zeros(2), timestamp=t)

    class _Perception(Perception):
        def perceive(self, reading):
            return Percept(features=np.asarray(reading.data))

    class _Policy(Policy):
        def act(self, percept, t):
            return Action(command=None)

    class _Actuator(Actuator):
        def actuate(self, env, action, t):
            return 0.0

    class _Env(Environment):
        def observe_state(self):
            return np.zeros(2)

        def advance(self, dt):
            pass

    loop = SensingToActionLoop(_Sensor(), _Perception(), _Policy(),
                               _Actuator(), clock=clock)
    assert loop.clock is clock
    loop.run(_Env(), 3)
    # Virtual time never advanced inside the cycle, so the measured
    # cycle wall time is exactly zero — deterministic timing.
    assert loop.metrics.cycles == 3
    assert clock.now() == 0.0


# ----------------------------------------------------- coalescing policy
def test_flush_on_full_batch():
    batcher, clock = make_batcher(max_batch_size=3, max_wait_ms=50.0)
    tickets = [batcher.submit(i) for i in range(3)]
    assert batcher.ready()  # full: ready with zero elapsed time
    assert batcher.poll() == 3
    assert [t.result() for t in tickets] == [0, 2, 4]
    assert batcher.pending == 0


def test_partial_batch_waits_for_deadline():
    batcher, clock = make_batcher(max_batch_size=4, max_wait_ms=50.0)
    tickets = [batcher.submit(i) for i in range(2)]
    assert not batcher.ready()
    assert batcher.poll() == 0  # policy says wait
    clock.advance(0.049)
    assert not batcher.ready()
    clock.advance(0.001)  # head request has now waited max_wait_ms
    assert batcher.ready()
    assert batcher.poll() == 2
    assert [t.result() for t in tickets] == [0, 2]


def test_next_deadline_tracks_head_request():
    batcher, clock = make_batcher(max_batch_size=4, max_wait_ms=20.0)
    assert batcher.next_deadline() is None
    clock.advance(1.0)
    batcher.submit("a")
    assert batcher.next_deadline() == pytest.approx(1.02)
    clock.advance(0.5)
    batcher.submit("b")  # later request must not extend the deadline
    assert batcher.next_deadline() == pytest.approx(1.02)


def test_routing_preserves_submission_order():
    batcher, _ = make_batcher(runner=lambda items: [f"r:{x}" for x in items],
                              max_batch_size=8, max_wait_ms=0.0)
    tickets = [batcher.submit(f"req{i}") for i in range(5)]
    batcher.poll()
    assert [t.result() for t in tickets] == [f"r:req{i}" for i in range(5)]


def test_oversize_queue_drains_in_chunks():
    batcher, _ = make_batcher(max_batch_size=3, max_wait_ms=0.0,
                              max_queue_depth=10)
    tickets = [batcher.submit(i) for i in range(7)]
    assert batcher.flush() == 7
    assert batcher.batch_count == 3  # 3 + 3 + 1
    assert [t.result() for t in tickets] == [2 * i for i in range(7)]
    assert batcher.batch_sizes.max == 3


# ------------------------------------------------------------ backpressure
def test_shed_at_max_queue_depth():
    batcher, _ = make_batcher(max_batch_size=2, max_wait_ms=1e6,
                              max_queue_depth=3)
    for i in range(3):
        batcher.submit(i)
    with pytest.raises(ServiceOverloaded):
        batcher.submit(99)
    assert batcher.shed_count == 1
    assert batcher.request_count == 3  # shed submissions are not counted
    assert batcher.pending == 3


def test_config_validation():
    with pytest.raises(ValueError):
        BatcherConfig(max_batch_size=0)
    with pytest.raises(ValueError):
        BatcherConfig(max_wait_ms=-1.0)
    with pytest.raises(ValueError):
        BatcherConfig(max_batch_size=8, max_queue_depth=4)


# ----------------------------------------------------------------- metrics
def test_metrics_and_quantiles():
    batcher, clock = make_batcher(max_batch_size=2, max_wait_ms=10.0)
    t1 = batcher.submit(1)
    clock.advance(0.004)
    t2 = batcher.submit(2)
    batcher.poll()
    assert batcher.batch_count == 1
    assert batcher.request_count == 2
    assert t1.result() == 2 and t2.result() == 4
    # Head waited 4 ms, second 0 ms; latency == queue wait here because
    # the virtual clock does not advance during run_batch.
    assert batcher.queue_wait.max == pytest.approx(0.004)
    q = batcher.latency_quantiles()
    assert set(q) == {"p50", "p95", "p99"}
    assert q["p99"] <= 0.004 + 1e-12


# ----------------------------------------------------------- error routing
def test_runner_error_routes_to_all_tickets():
    def boom(items):
        raise RuntimeError("model fell over")

    batcher, _ = make_batcher(runner=boom, max_batch_size=2,
                              max_wait_ms=0.0)
    tickets = [batcher.submit(i) for i in range(2)]
    batcher.poll()  # must not raise in the scheduling loop
    for t in tickets:
        with pytest.raises(RuntimeError, match="fell over"):
            t.result()


def test_row_count_mismatch_is_an_error():
    batcher, _ = make_batcher(runner=lambda items: items[:-1],
                              max_batch_size=2, max_wait_ms=0.0)
    tickets = [batcher.submit(i) for i in range(2)]
    batcher.poll()
    for t in tickets:
        with pytest.raises(RuntimeError, match="returned 1 results"):
            t.result()


def test_unresolved_ticket_refuses_result():
    batcher, _ = make_batcher(max_batch_size=4, max_wait_ms=1e6)
    ticket = batcher.submit(0)
    with pytest.raises(RuntimeError, match="not resolved"):
        ticket.result()


# ----------------------------------------------------- threaded service
def test_batched_service_concurrent_submitters():
    calls = []

    def runner(items):
        calls.append(len(items))
        return [x * x for x in items]

    config = BatcherConfig(max_batch_size=4, max_wait_ms=20.0)
    results = {}

    def client(i):
        results[i] = service.submit(i, timeout=10.0)

    with BatchedService(runner, config) as service:
        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert results == {i: i * i for i in range(8)}
    assert sum(calls) == 8
    # Concurrent submitters actually coalesced: fewer batches than
    # requests (8 requests, batch limit 4 -> at least two multi-row
    # batches unless the host serialized everything).
    assert len(calls) >= 2


def test_batched_service_close_drains_and_rejects():
    service = BatchedService(doubling_runner, BatcherConfig())
    assert service.submit(21, timeout=10.0) == 42
    service.close()
    with pytest.raises(RuntimeError, match="closed"):
        service.submit(1)
    service.close()  # idempotent


def test_batched_service_routes_runner_errors():
    def flaky(items):
        raise ValueError("bad batch")

    with BatchedService(flaky, BatcherConfig(max_wait_ms=1.0)) as service:
        with pytest.raises(ValueError, match="bad batch"):
            service.submit(1, timeout=10.0)


# ------------------------------------------------------------ integration
class _SumMonitor:
    """Stand-in monitor: trust is a deterministic function of features."""

    def assess(self, percept):
        return float(1.0 / (1.0 + np.exp(-np.sum(percept.features))))

    def assess_batch(self, percepts):
        feats = np.stack([p.features for p in percepts])
        return 1.0 / (1.0 + np.exp(-feats.sum(axis=1)))


def test_loops_through_batched_monitor_match_direct():
    serving = load_bench("serving_throughput")
    FeatureEnv, _build_loop = serving.FeatureEnv, serving._build_loop

    config = serving.ServingBenchConfig(n_loops=3, cycles_per_loop=5,
                                        max_batch_size=3, max_wait_ms=20.0)
    monitor = _SumMonitor()

    direct_loops = [_build_loop(monitor, config)
                    for _ in range(config.n_loops)]
    for i, loop in enumerate(direct_loops):
        loop.monitor = monitor
        loop.run(FeatureEnv(config.feature_dim, seed=i),
                 config.cycles_per_loop)
    direct = np.array([[r.trust for r in loop.history]
                       for loop in direct_loops])

    served_loops = [_build_loop(None, config)
                    for _ in range(config.n_loops)]
    errors = []

    def drive(loop, env):
        try:
            loop.run(env, config.cycles_per_loop)
        except BaseException as exc:
            errors.append(exc)

    batcher_config = BatcherConfig(max_batch_size=config.max_batch_size,
                                   max_wait_ms=config.max_wait_ms)
    with BatchedService(monitor_runner(monitor), batcher_config) as service:
        for loop in served_loops:
            loop.monitor = BatchedMonitor(service, timeout=30.0)
        threads = [threading.Thread(
            target=drive, args=(loop, FeatureEnv(config.feature_dim, seed=i)))
            for i, loop in enumerate(served_loops)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert not errors
    served = np.array([[r.trust for r in loop.history]
                       for loop in served_loops])
    np.testing.assert_allclose(served, direct, atol=1e-12)


def test_serving_benchmark_smoke_payload():
    result = load_bench("serving_throughput").run(smoke=True)
    assert result["config"]["requests"] == 16
    assert result["equivalence_ok"], result["equivalence_max_abs_diff"]
    assert result["batched"]["shed"] == 0
    assert result["batched"]["requests"] == 16
    assert result["serial"]["throughput_rps"] > 0
    assert result["batched"]["mean_batch_size"] >= 1.0
    # Quantile keys feed the committed bench JSON and the CI gate.
    for key in ("p50_ms", "p95_ms", "p99_ms"):
        assert key in result["batched"]
