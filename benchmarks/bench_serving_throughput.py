"""Serving-throughput benchmark — micro-batched vs serial inference.

Runs N concurrent :class:`SensingToActionLoop` instances whose trust
monitor is served two ways over the *same* deterministic environment
streams:

* **serial** — every loop calls the STARNet monitor directly, one
  request at a time (the per-request baseline);
* **batched** — the loops run on threads and share one
  :class:`BatchedService` whose worker coalesces their concurrent
  ``assess`` calls into :meth:`STARNet.assess_batch` micro-batches.

The monitor scores with the deterministic ``exact`` likelihood-regret
method, and the environments evolve independently of the actions, so
both modes see identical request streams — the per-request trust values
must agree to kernel drift tolerance (``equivalence_max_abs_diff``), and
the wall-clock ratio is a clean batching speedup, not a workload change.

Claims: batched and serial trust values stay equivalent, nothing is
shed and p95 stays within ``max_wait_ms`` (blocking); the throughput
multiple is a warning in CI (wall-clock ratios jitter on loaded hosts)
and is asserted by the pytest wrapper.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List

import numpy as np

from repro.core.components import (
    Action,
    Actuator,
    Environment,
    Percept,
    Perception,
    Policy,
    Sensor,
    SensorReading,
)
from repro.core.loop import SensingToActionLoop
from repro.runtime.bench import Claim, check
from repro.serve import BatchedMonitor, BatchedService, BatcherConfig, monitor_runner
from repro.starnet.monitor import STARNet

from bench_utils import assert_claims, print_table, save_result

EQUIVALENCE_TOL = 1e-6  # matches the kernel drift tolerance class
SPEEDUP_TARGET = 3.0


@dataclass(frozen=True)
class ServingBenchConfig:
    """Workload shape and scheduler knobs for the serving benchmark."""

    n_loops: int = 8
    cycles_per_loop: int = 25
    feature_dim: int = 6
    max_batch_size: int = 8
    max_wait_ms: float = 50.0
    max_queue_depth: int = 64
    fit_epochs: int = 15
    seed: int = 0


# ``max_batch_size`` matches ``n_loops`` so batches fill instead of
# waiting out the ``max_wait_ms`` deadline every time — with fewer
# concurrent clients than the batch size, the coalescing delay dominates
# and batching cannot pay for itself.
SMOKE = ServingBenchConfig(n_loops=4, cycles_per_loop=4, max_batch_size=4,
                           fit_epochs=5)


class FeatureEnv(Environment):
    """Seeded feature-vector drift, independent of the loop's actions.

    Action-independence is what lets the serial and batched modes be
    compared request-for-request: both see the same sensor streams.
    """

    def __init__(self, feature_dim: int, seed: int):
        self._rng = np.random.default_rng(seed)
        self._state = self._rng.normal(size=feature_dim)

    def observe_state(self) -> np.ndarray:
        return self._state.copy()

    def advance(self, dt: float) -> None:
        self._state = (0.95 * self._state
                       + 0.3 * self._rng.normal(size=self._state.shape))


class _StateSensor(Sensor):
    def sense(self, env: Environment, directive: Dict[str, Any],
              t: float) -> SensorReading:
        return SensorReading(data=env.observe_state(), timestamp=t)


class _IdentityPerception(Perception):
    def perceive(self, reading: SensorReading) -> Percept:
        return Percept(features=np.asarray(reading.data))


class _NullPolicy(Policy):
    def act(self, percept: Percept, t: float) -> Action:
        return Action(command=None)


class _NullActuator(Actuator):
    def actuate(self, env: Environment, action: Action, t: float) -> float:
        return 0.0


def _build_monitor(config: ServingBenchConfig) -> STARNet:
    rng = np.random.default_rng(config.seed)
    monitor = STARNet(config.feature_dim, score_method="exact",
                      rng=np.random.default_rng(config.seed + 1))
    nominal = rng.normal(size=(64, config.feature_dim))
    monitor.fit(nominal, epochs=config.fit_epochs)
    return monitor


def _build_loop(monitor, config: ServingBenchConfig) -> SensingToActionLoop:
    return SensingToActionLoop(
        sensor=_StateSensor(), perception=_IdentityPerception(),
        policy=_NullPolicy(), actuator=_NullActuator(), monitor=monitor,
        period_s=0.05)


def _run_serial(monitor: STARNet, config: ServingBenchConfig
                ) -> Dict[str, Any]:
    loops = [_build_loop(monitor, config) for _ in range(config.n_loops)]
    envs = [FeatureEnv(config.feature_dim, config.seed + 100 + i)
            for i in range(config.n_loops)]
    t0 = time.perf_counter()
    for loop, env in zip(loops, envs):
        loop.run(env, config.cycles_per_loop)
    wall = time.perf_counter() - t0
    trust = [[r.trust for r in loop.history] for loop in loops]
    requests = config.n_loops * config.cycles_per_loop
    return {"wall_s": wall, "throughput_rps": requests / wall,
            "mean_latency_ms": 1e3 * wall / requests, "trust": trust}


def _run_batched(monitor: STARNet, config: ServingBenchConfig
                 ) -> Dict[str, Any]:
    loops = [_build_loop(None, config) for _ in range(config.n_loops)]
    envs = [FeatureEnv(config.feature_dim, config.seed + 100 + i)
            for i in range(config.n_loops)]
    batcher_config = BatcherConfig(max_batch_size=config.max_batch_size,
                                   max_wait_ms=config.max_wait_ms,
                                   max_queue_depth=config.max_queue_depth)
    errors: List[BaseException] = []

    def drive(loop: SensingToActionLoop, env: Environment) -> None:
        try:
            loop.run(env, config.cycles_per_loop)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    with BatchedService(monitor_runner(monitor), batcher_config) as service:
        for loop in loops:
            loop.monitor = BatchedMonitor(service, timeout=60.0)
        threads = [threading.Thread(target=drive, args=(loop, env))
                   for loop, env in zip(loops, envs)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        if errors:
            raise errors[0]
        batcher = service.batcher
        quantiles = batcher.latency_quantiles()
        stats = {
            "wall_s": wall,
            "throughput_rps": config.n_loops * config.cycles_per_loop / wall,
            "p50_ms": 1e3 * quantiles["p50"],
            "p95_ms": 1e3 * quantiles["p95"],
            "p99_ms": 1e3 * quantiles["p99"],
            "mean_batch_size": batcher.batch_sizes.mean,
            "batches": batcher.batch_count,
            "requests": batcher.request_count,
            "shed": batcher.shed_count,
        }
    stats["trust"] = [[r.trust for r in loop.history] for loop in loops]
    return stats


def run(smoke: bool = False) -> Dict[str, Any]:
    """Serial-vs-batched serving comparison; returns the JSON payload.

    ``speedup`` is batched throughput over serial throughput for the
    identical request streams; ``equivalence_max_abs_diff`` is the
    largest per-request trust discrepancy between the two modes (BLAS
    re-association drift only — bounded by ``EQUIVALENCE_TOL``).
    """
    config = SMOKE if smoke else ServingBenchConfig()
    monitor = _build_monitor(config)
    serial = _run_serial(monitor, config)
    batched = _run_batched(monitor, config)
    serial_trust = np.array(serial.pop("trust"))
    batched_trust = np.array(batched.pop("trust"))
    equivalence = float(np.max(np.abs(serial_trust - batched_trust)))
    speedup = batched["throughput_rps"] / serial["throughput_rps"]
    return {
        "config": {
            "n_loops": config.n_loops,
            "cycles_per_loop": config.cycles_per_loop,
            "requests": config.n_loops * config.cycles_per_loop,
            "feature_dim": config.feature_dim,
            "max_batch_size": config.max_batch_size,
            "max_wait_ms": config.max_wait_ms,
            "max_queue_depth": config.max_queue_depth,
            "seed": config.seed,
        },
        "serial": serial,
        "batched": batched,
        "speedup": speedup,
        "equivalence_max_abs_diff": equivalence,
        "equivalence_tol": EQUIVALENCE_TOL,
        "equivalence_ok": equivalence <= EQUIVALENCE_TOL,
        "p95_within_max_wait": batched["p95_ms"] <= config.max_wait_ms,
        "speedup_target": SPEEDUP_TARGET,
    }


def claims(payload: dict, baseline: dict) -> List[Claim]:
    batched = payload["batched"]
    return [
        # Batching must never change a trust value beyond kernel drift.
        Claim("batched-serial-equivalent", payload["equivalence_ok"], True,
              f"max |diff| {payload['equivalence_max_abs_diff']:.2e} "
              f"(tol {payload['equivalence_tol']:.0e})"),
        # The scheduler honors its own contract: no requests shed at
        # this depth, p95 within the coalescing bound.
        Claim("no-shedding", batched["shed"] == 0, True,
              f"{batched['shed']} requests shed"),
        Claim("p95-within-max-wait", payload["p95_within_max_wait"], True,
              f"p95 {batched['p95_ms']:.2f}ms vs max_wait "
              f"{payload['config']['max_wait_ms']:.0f}ms"),
        # Throughput is wall clock and jitters with the host.
        Claim("throughput-multiple", payload["speedup"] >= SPEEDUP_TARGET,
              False,
              f"{payload['speedup']:.2f}x vs baseline "
              f"{baseline['speedup']:.2f}x (target {SPEEDUP_TARGET:.0f}x)"),
    ]


def test_serving_throughput(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    verdict = check("serving_throughput", result)
    cfg = result["config"]
    serial, batched = result["serial"], result["batched"]
    print_table(
        f"Serving throughput — {cfg['n_loops']} concurrent loops, "
        f"batch {cfg['max_batch_size']}, max_wait {cfg['max_wait_ms']}ms",
        ["Mode", "Requests", "Wall", "Throughput", "p95 latency"],
        [["serial", cfg["requests"], f"{serial['wall_s'] * 1e3:.1f}ms",
          f"{serial['throughput_rps']:.0f} rps",
          f"{serial['mean_latency_ms']:.2f}ms (mean)"],
         ["batched", cfg["requests"], f"{batched['wall_s'] * 1e3:.1f}ms",
          f"{batched['throughput_rps']:.0f} rps",
          f"{batched['p95_ms']:.2f}ms"]])
    print(f"speedup: {result['speedup']:.2f}x  "
          f"equivalence max|diff|: {result['equivalence_max_abs_diff']:.2e}  "
          f"mean batch: {batched['mean_batch_size']:.1f}  "
          f"shed: {batched['shed']}")
    save_result("bench_serving_throughput", result)
    # Dedicated hosts also hold the throughput multiple.
    assert_claims(verdict, also=("throughput-multiple",))
