"""Fleet scaling benchmark — sharded multi-process serving vs one
:class:`BatchedService`.

Serves the same deterministic multi-client STARNet trust workload three
ways and compares them request-for-request:

* **reference** — the parent process scores every client stream
  directly through :meth:`STARNet.assess_batch` (ground truth for the
  equivalence claim);
* **single-process** — all clients share one :class:`BatchedService`
  (the serving baseline);
* **fleet** — the clients are sharded across a
  :class:`~repro.fleet.ServingFleet` of 1/2/4 replica processes.

Each replica's batch runner is wrapped in an
:class:`~repro.fleet.EmulatedServiceRunner` that pads every batch to a
*device latency floor* (``per_batch_ms + per_item_ms x batch_size``),
the same honest single-CPU methodology as ``bench_runtime_scaling.py``:
the floor models a fixed-latency accelerator/sensor round-trip that
overlaps across replicas but not within one, so the throughput ratio
measures real scheduling concurrency rather than Python compute
parallelism the host may not have.  The single-process baseline runs
the *identical* wrapped runner, so the comparison is apples-to-apples.

Equivalence holds because :class:`~repro.fleet.MonitorRunnerFactory`
keys the model weights off the seed carried inside the factory: every
replica and the parent reference build bit-identical monitors, and
``assess_batch`` rows are independent, so per-request trust values
agree to kernel drift tolerance no matter how requests are sharded.

The load sweep drives a fresh 2-replica fleet open-loop at fractions of
its measured closed-loop capacity with a finite staleness budget:
sub-saturation points must shed nothing, the overload point should
shed (the admission control engaging is the feature).

Claims: per-request equivalence and zero sheds below saturation
(blocking); sheds engaging at overload and the >=2x throughput multiple
at 4 replicas are warnings in CI (wall clock) and are asserted by the
pytest wrapper.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.components import Percept
from repro.fleet import FleetConfig, MonitorRunnerFactory, ReplicaSpec, RequestShed, ServingFleet
from repro.runtime.bench import Claim, check
from repro.serve import BatchedService, BatcherConfig

from bench_serving_throughput import EQUIVALENCE_TOL, FeatureEnv
from bench_utils import assert_claims, print_table, save_result

SPEEDUP_TARGET = 2.0  # fleet@max-replicas over single-process BatchedService


@dataclass(frozen=True)
class FleetBenchConfig:
    """Workload shape and fleet knobs for the scaling benchmark."""

    clients: int = 24
    cycles_per_client: int = 20
    feature_dim: int = 6
    replica_counts: Tuple[int, ...] = (1, 2, 4)
    max_batch_size: int = 8
    max_wait_ms: float = 2.0
    max_queue_depth: int = 64
    spill_depth: int = 6
    fit_epochs: int = 15
    seed: int = 0
    # Emulated device latency floor per batch (see module docstring).
    per_batch_ms: float = 8.0
    per_item_ms: float = 5.0
    # Closed-loop requests declare a generous staleness budget: queueing
    # under benign load must never shed (the blocking claim).
    closed_loop_staleness_budget_ms: float = 1000.0
    # Open-loop tail-latency sweep: offered load as fractions of the
    # measured closed-loop capacity at ``sweep_replicas``.
    sweep_replicas: int = 2
    sweep_fractions: Tuple[float, ...] = (0.35, 0.7, 1.8)
    sweep_duration_s: float = 2.5
    sweep_staleness_budget_ms: float = 150.0


# CI-sized variant (seconds): fewer clients/cycles, tiny fit, shorter
# sweep — same claims, smaller evidence.
SMOKE = FleetBenchConfig(clients=6, cycles_per_client=5, replica_counts=(1, 2),
                         max_batch_size=4, fit_epochs=5, per_batch_ms=6.0,
                         per_item_ms=3.0, sweep_fractions=(0.3, 2.5),
                         sweep_duration_s=0.8)


def _client_streams(config: FleetBenchConfig) -> List[List[np.ndarray]]:
    """Deterministic per-client feature streams (same seeding scheme as
    the serving benchmark's environments)."""
    streams = []
    for i in range(config.clients):
        env = FeatureEnv(config.feature_dim, config.seed + 100 + i)
        rows = []
        for _ in range(config.cycles_per_client):
            rows.append(env.observe_state())
            env.advance(0.05)
        streams.append(rows)
    return streams


def _reference_trust(factory: MonitorRunnerFactory,
                     streams: List[List[np.ndarray]]) -> List[List[float]]:
    monitor = factory.make_monitor()
    return [[float(t) for t in monitor.assess_batch(
        [Percept(features=row) for row in stream])] for stream in streams]


def _drive_clients(submit_one, streams: List[List[np.ndarray]]
                   ) -> Tuple[float, List[List[float]]]:
    """Closed-loop clients on threads; returns (wall_s, trust grid)."""
    results: List[List[Optional[float]]] = [
        [None] * len(stream) for stream in streams]
    errors: List[BaseException] = []

    def run_client(i: int) -> None:
        try:
            for c, payload in enumerate(streams[i]):
                results[i][c] = submit_one(i, payload)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=run_client, args=(i,))
               for i in range(len(streams))]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors:
        raise errors[0]
    return wall, results


def _batcher_config(config: FleetBenchConfig) -> BatcherConfig:
    return BatcherConfig(max_batch_size=config.max_batch_size,
                         max_wait_ms=config.max_wait_ms,
                         max_queue_depth=config.max_queue_depth)


def _run_single_process(factory: MonitorRunnerFactory,
                        config: FleetBenchConfig,
                        streams: List[List[np.ndarray]]) -> Dict[str, Any]:
    requests = config.clients * config.cycles_per_client
    with BatchedService(factory(0, 0), _batcher_config(config)) as service:
        wall, trust = _drive_clients(
            lambda i, payload: service.submit(payload, timeout=120.0),
            streams)
        batcher = service.batcher
        quantiles = batcher.latency_quantiles()
        stats = {
            "wall_s": wall,
            "throughput_rps": requests / wall,
            "p50_ms": 1e3 * quantiles["p50"],
            "p95_ms": 1e3 * quantiles["p95"],
            "p99_ms": 1e3 * quantiles["p99"],
            "mean_batch_size": batcher.batch_sizes.mean,
            "shed": batcher.shed_count,
        }
    stats["trust"] = trust
    return stats


def _make_fleet(factory: MonitorRunnerFactory, config: FleetBenchConfig,
                replicas: int) -> ServingFleet:
    spec = ReplicaSpec(runner_factory=factory,
                       batch=_batcher_config(config), seed=config.seed)
    return ServingFleet(spec, FleetConfig(
        replicas=replicas, max_queue_depth=config.max_queue_depth,
        spill_depth=config.spill_depth))


def _run_fleet(factory: MonitorRunnerFactory, config: FleetBenchConfig,
               streams: List[List[np.ndarray]], replicas: int
               ) -> Dict[str, Any]:
    requests = config.clients * config.cycles_per_client
    budget = config.closed_loop_staleness_budget_ms
    with _make_fleet(factory, config, replicas) as fleet:
        wall, trust = _drive_clients(
            lambda i, payload: fleet.submit(
                payload, key=f"client-{i}",
                staleness_budget_ms=budget, timeout=120.0),
            streams)
        snapshot = fleet.scheduler.snapshot()
        quantiles = snapshot["latency_quantiles_s"]
        stats = {
            "replicas": replicas,
            "wall_s": wall,
            "throughput_rps": requests / wall,
            "p50_ms": 1e3 * quantiles["p50"],
            "p95_ms": 1e3 * quantiles["p95"],
            "p99_ms": 1e3 * quantiles["p99"],
            "shed": snapshot["shed"],
            "spills": snapshot["spills"],
            "downgraded": snapshot["downgraded"],
            "dispatched_per_replica": snapshot["dispatched_per_replica"],
        }
    stats["trust"] = trust
    return stats


def _run_sweep_point(factory: MonitorRunnerFactory,
                     config: FleetBenchConfig, fraction: float,
                     rate_rps: float) -> Dict[str, Any]:
    """One open-loop point: paced arrivals against a fresh fleet."""
    budget = config.sweep_staleness_budget_ms
    offered = 0
    shed_count = 0
    tickets = []
    with _make_fleet(factory, config, config.sweep_replicas) as fleet:
        pool = [FeatureEnv(config.feature_dim, config.seed + 500 + i)
                .observe_state() for i in range(64)]
        interarrival = 1.0 / max(rate_rps, 1e-9)
        t_start = time.perf_counter()
        next_t = t_start
        t_end = t_start + config.sweep_duration_s
        while time.perf_counter() < t_end:
            now = time.perf_counter()
            if now < next_t:
                time.sleep(min(next_t - now, 0.002))
                continue
            next_t += interarrival
            payload = pool[offered % len(pool)]
            key = f"sweep-{offered}"
            offered += 1
            try:
                tickets.append(fleet.submit_async(
                    payload, key=key, staleness_budget_ms=budget))
            except RequestShed:
                shed_count += 1
        served = 0
        for ticket in tickets:
            if ticket.event.wait(60.0):
                ticket.result()
                served += 1
        snapshot = fleet.scheduler.snapshot()
    quantiles = snapshot["latency_quantiles_s"]
    duration = max(time.perf_counter() - t_start, 1e-9)
    return {
        "fraction": fraction,
        "offered_rps": offered / config.sweep_duration_s,
        "served": served,
        "served_rps": served / duration,
        "shed": shed_count,
        "shed_stale": snapshot["shed_stale"],
        "shed_overload": snapshot["shed_overload"],
        "p50_ms": 1e3 * quantiles["p50"],
        "p95_ms": 1e3 * quantiles["p95"],
        "p99_ms": 1e3 * quantiles["p99"],
        "below_saturation": fraction < 1.0,
    }


def run(smoke: bool = False) -> Dict[str, Any]:
    """Single-process vs fleet scaling comparison; returns the JSON
    payload the claims and EXPERIMENTS.md read."""
    config = SMOKE if smoke else FleetBenchConfig()
    factory = MonitorRunnerFactory(
        feature_dim=config.feature_dim, fit_epochs=config.fit_epochs,
        seed=config.seed, per_batch_ms=config.per_batch_ms,
        per_item_ms=config.per_item_ms)
    streams = _client_streams(config)
    reference = np.array(_reference_trust(factory, streams))

    single = _run_single_process(factory, config, streams)
    single_trust = np.array(single.pop("trust"))
    diffs = [float(np.max(np.abs(single_trust - reference)))]
    single["max_abs_diff"] = diffs[0]

    fleet_results: Dict[str, Any] = {}
    closed_loop_sheds = 0
    for replicas in config.replica_counts:
        result = _run_fleet(factory, config, streams, replicas)
        trust = np.array(result.pop("trust"))
        result["max_abs_diff"] = float(np.max(np.abs(trust - reference)))
        diffs.append(result["max_abs_diff"])
        result["speedup"] = (result["throughput_rps"]
                             / single["throughput_rps"])
        closed_loop_sheds += result["shed"]
        fleet_results[str(replicas)] = result

    capacity_key = str(config.sweep_replicas)
    capacity_rps = fleet_results.get(
        capacity_key, {"throughput_rps": single["throughput_rps"]}
    )["throughput_rps"]
    sweep_points = [
        _run_sweep_point(factory, config, fraction,
                         fraction * capacity_rps)
        for fraction in config.sweep_fractions]
    sub_saturation_sheds = sum(
        p["shed"] for p in sweep_points if p["below_saturation"])

    max_replicas = max(config.replica_counts)
    equivalence = max(diffs)
    return {
        "config": {
            "clients": config.clients,
            "cycles_per_client": config.cycles_per_client,
            "requests": config.clients * config.cycles_per_client,
            "feature_dim": config.feature_dim,
            "replica_counts": list(config.replica_counts),
            "max_batch_size": config.max_batch_size,
            "max_wait_ms": config.max_wait_ms,
            "max_queue_depth": config.max_queue_depth,
            "spill_depth": config.spill_depth,
            "per_batch_ms": config.per_batch_ms,
            "per_item_ms": config.per_item_ms,
            "sweep_replicas": config.sweep_replicas,
            "sweep_staleness_budget_ms": config.sweep_staleness_budget_ms,
            "seed": config.seed,
        },
        "single_process": single,
        "fleet": fleet_results,
        "load_sweep": {
            "replicas": config.sweep_replicas,
            "capacity_rps": capacity_rps,
            "points": sweep_points,
        },
        "speedup_at_max_replicas": fleet_results[str(max_replicas)]["speedup"],
        "speedup_target": SPEEDUP_TARGET,
        "equivalence_max_abs_diff": equivalence,
        "equivalence_tol": EQUIVALENCE_TOL,
        "equivalence_ok": equivalence <= EQUIVALENCE_TOL,
        "closed_loop_sheds": closed_loop_sheds,
        "sub_saturation_sweep_sheds": sub_saturation_sheds,
        "zero_sheds_below_saturation": (closed_loop_sheds == 0
                                        and sub_saturation_sheds == 0),
        "overload_sheds_engaged": any(
            p["shed"] > 0 for p in sweep_points
            if not p["below_saturation"]),
    }


def claims(payload: dict, baseline: dict) -> List[Claim]:
    engaged = payload["overload_sheds_engaged"]
    return [
        # Sharding requests across replica processes never changes a
        # trust value beyond kernel drift.
        Claim("fleet-serial-equivalent", payload["equivalence_ok"], True,
              f"max |diff| {payload['equivalence_max_abs_diff']:.2e} "
              f"(tol {payload['equivalence_tol']:.0e})"),
        # The staleness admission contract: nothing is shed below
        # saturation, in the closed-loop runs or the sweep points.
        Claim("zero-sheds-below-saturation",
              payload["zero_sheds_below_saturation"], True,
              f"{payload['closed_loop_sheds']} closed-loop + "
              f"{payload['sub_saturation_sweep_sheds']} sub-saturation "
              "sheds"),
        # Sheds engaging at overload is the feature working; both it and
        # the throughput multiple depend on the wall clock.
        Claim("overload-sheds-engage", engaged, False,
              "staleness shedding engaged at >1x offered load" if engaged
              else "no sheds at the overload sweep point"),
        Claim("throughput-multiple",
              payload["speedup_at_max_replicas"] >= SPEEDUP_TARGET, False,
              f"{payload['speedup_at_max_replicas']:.2f}x at "
              f"{max(payload['config']['replica_counts'])} replicas vs "
              f"baseline {baseline['speedup_at_max_replicas']:.2f}x "
              f"(target {SPEEDUP_TARGET:.0f}x)"),
    ]


def test_fleet_scaling(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    verdict = check("fleet_scaling", result)
    cfg = result["config"]
    single = result["single_process"]
    rows = [["single-process", cfg["requests"],
             f"{single['throughput_rps']:.0f} rps", "1.00x",
             f"{single['p95_ms']:.1f}ms", single["shed"]]]
    for replicas in cfg["replica_counts"]:
        fr = result["fleet"][str(replicas)]
        rows.append([f"fleet x{replicas}", cfg["requests"],
                     f"{fr['throughput_rps']:.0f} rps",
                     f"{fr['speedup']:.2f}x", f"{fr['p95_ms']:.1f}ms",
                     fr["shed"]])
    print_table(
        f"Fleet scaling — {cfg['clients']} clients, batch "
        f"{cfg['max_batch_size']}, device floor "
        f"{cfg['per_batch_ms']:.0f}+{cfg['per_item_ms']:.0f}ms/item",
        ["Mode", "Requests", "Throughput", "Speedup", "p95", "Shed"],
        rows)
    sweep = result["load_sweep"]
    print_table(
        f"Staleness sweep — {sweep['replicas']} replicas, budget "
        f"{cfg['sweep_staleness_budget_ms']:.0f}ms",
        ["Load", "Offered", "Served", "Shed", "p95"],
        [[f"{p['fraction']:.2f}x", f"{p['offered_rps']:.0f} rps",
          f"{p['served_rps']:.0f} rps", p["shed"], f"{p['p95_ms']:.1f}ms"]
         for p in sweep["points"]])
    save_result("bench_fleet_scaling", result)
    # Dedicated hosts also hold the wall-clock claims.
    assert_claims(verdict, also=("overload-sheds-engage",
                                 "throughput-multiple"))
