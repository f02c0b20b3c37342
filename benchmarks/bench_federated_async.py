"""Async federated simulation at fleet scale — 10^3 clients, no barrier.

Trains the same 10^3-client heterogeneous fleet two ways over identical
IID data shards, seeds, and client-update budgets:

* **lockstep** — sampled synchronous FedAvg: each virtual round
  dispatches a cohort and barriers on its slowest member before
  merging (this is :class:`~repro.federated.AsyncFLServer` in its
  exact-reduction configuration, so both arms share every line of
  planning/training/merge code);
* **async** — buffered staleness-weighted aggregation with cost-aware
  client sampling; virtual time advances per arrival, never per
  barrier.

Three claims come out, all blocking:

1. *accuracy* — async reaches the lockstep arm's final accuracy (within
   ``accuracy_tolerance``) on the same update budget;
2. *simulated speedup* — async needs >= ``SIM_SPEEDUP_TARGET`` x less
   virtual fleet time to get there.  Virtual time comes from the
   event-driven scheduler, so this is a deterministic quantity, not a
   wall-clock measurement.  The mechanism is the uplink tier spread: a
   lockstep round costs its slowest cohort member (an MCU pushing a
   full payload over a ~50 kbps link) while async merges fast arrivals
   immediately;
3. *determinism* — rerunning the async arm under 1/2/4 pooled workers
   yields byte-identical result payloads (weights hash, eval history,
   virtual timeline — everything).

A fourth, informational arm re-runs a capped async segment with clients
padded to an emulated per-round device floor
(:attr:`FLClient.emulated_round_s`, so the overlap shows even on a
single CPU) to show the *real* wall-clock benefit of
sharding client training across a :class:`~repro.runtime.WorkerPool` —
reported as a warning-level claim, because wall ratios jitter on shared
hosts.
"""


from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.federated import AsyncFLServer, FLClient, make_fleet
from repro.runtime import WorkerPool, spawn_rngs
from repro.runtime.bench import Claim, check
from repro.sim.datasets import ClassificationDataset, make_synthetic_cifar, shard_iid

from bench_utils import assert_claims, print_table, save_result

SIM_SPEEDUP_TARGET = 2.0  # async virtual time vs lockstep, same budget
# Absolute accuracy legitimately moves with numpy/seed changes: drift
# against the stored baseline beyond this is a warning, not a failure.
ACCURACY_DRIFT_TOL = 0.08


@dataclass(frozen=True)
class FederatedBenchConfig:
    """Fleet shape, training knobs, and sweep sizes."""

    n_clients: int = 1000
    n_per_class: int = 800        # 10-class synthetic CIFAR
    hidden: int = 16
    mode: str = "fedavg"
    local_epochs: int = 1
    lr: float = 0.1
    # Lockstep arm: cohort = sample_fraction * n_clients per round.
    lockstep_rounds: int = 20
    sample_fraction: float = 0.1
    # Async arm: merges per server step + staleness discounting.
    async_buffer: int = 32
    staleness_alpha: float = 0.5
    staleness_kind: str = "poly"
    cost_aware: bool = True
    participation_floor: float = 0.05
    eval_every: int = 10          # waves between accuracy probes
    accuracy_tolerance: float = 0.01
    worker_counts: Tuple[int, ...] = (1, 2, 4)
    # Emulated-device sharding arm (informational wall-clock claim).
    shard_waves: int = 20
    shard_emulated_ms: float = 2.0
    seed: int = 0

    @property
    def cohort(self) -> int:
        return max(1, int(round(self.sample_fraction * self.n_clients)))

    @property
    def update_budget(self) -> int:
        """Client updates the lockstep arm consumes; async gets the
        same budget (it may finish early on hitting the target)."""
        return self.cohort * self.lockstep_rounds


# CI-sized variant (seconds): 128 clients, same claims minus the two
# that only the full fleet can make (fleet scale, accuracy vs baseline).
SMOKE = FederatedBenchConfig(n_clients=128, n_per_class=240,
                             lockstep_rounds=10, async_buffer=8,
                             eval_every=4, worker_counts=(1, 2),
                             shard_waves=6)


def _build_fleet(config: FederatedBenchConfig, emulated_round_s: float = 0.0
                 ) -> Tuple[List[FLClient], ClassificationDataset]:
    """Clients + test split, reconstructed identically for every arm."""
    dataset = make_synthetic_cifar(n_per_class=config.n_per_class,
                                   seed=config.seed)
    train, test = dataset.split(0.2, np.random.default_rng(config.seed + 1))
    shards = shard_iid(train, config.n_clients,
                       rng=np.random.default_rng(config.seed + 2))
    fleet = make_fleet(config.n_clients,
                       rng=np.random.default_rng(config.seed + 3))
    rngs = spawn_rngs(config.seed + 100, config.n_clients)
    clients = [FLClient(i, shard, profile, rng=rng,
                        emulated_round_s=emulated_round_s)
               for i, (shard, profile, rng)
               in enumerate(zip(shards, fleet, rngs))]
    return clients, test


def _make_server(config: FederatedBenchConfig, clients: List[FLClient],
                 test: ClassificationDataset, *, buffer_size: int,
                 sample_fraction: float, cost_aware: bool) -> AsyncFLServer:
    return AsyncFLServer(
        clients, test, hidden=config.hidden, mode=config.mode,
        local_epochs=config.local_epochs, lr=config.lr,
        rng=np.random.default_rng(config.seed + 4),
        buffer_size=buffer_size, sample_fraction=sample_fraction,
        staleness_alpha=config.staleness_alpha,
        staleness_kind=config.staleness_kind, cost_aware=cost_aware,
        participation_floor=config.participation_floor,
        sampler_seed=config.seed + 5)


def _async_run(config: FederatedBenchConfig, workers: int,
               target_accuracy: float) -> Tuple[Dict[str, Any], float]:
    """One full async arm at a given worker count; returns (result,
    wall seconds).  Everything except the pool is rebuilt from seeds,
    so any payload difference across worker counts is a real
    determinism break, not construction drift."""
    clients, test = _build_fleet(config)
    server = _make_server(config, clients, test,
                          buffer_size=config.async_buffer,
                          sample_fraction=config.sample_fraction,
                          cost_aware=config.cost_aware)
    wall0 = time.perf_counter()
    if workers > 1:
        with WorkerPool(workers) as pool:
            result = server.run_async(
                max_updates=config.update_budget,
                target_accuracy=target_accuracy,
                eval_every=config.eval_every, pool=pool)
    else:
        result = server.run_async(
            max_updates=config.update_budget,
            target_accuracy=target_accuracy,
            eval_every=config.eval_every)
    return result, time.perf_counter() - wall0


def _sharding_wall_s(config: FederatedBenchConfig, workers: int) -> float:
    """Wall seconds for a capped async segment over emulated devices."""
    clients, test = _build_fleet(
        config, emulated_round_s=config.shard_emulated_ms / 1e3)
    server = _make_server(config, clients, test,
                          buffer_size=config.async_buffer,
                          sample_fraction=config.sample_fraction,
                          cost_aware=config.cost_aware)
    wall0 = time.perf_counter()
    if workers > 1:
        with WorkerPool(workers) as pool:
            server.run_async(max_waves=config.shard_waves,
                             eval_every=max(config.shard_waves, 1),
                             pool=pool)
    else:
        server.run_async(max_waves=config.shard_waves,
                         eval_every=max(config.shard_waves, 1))
    return time.perf_counter() - wall0


def run(smoke: bool = False) -> Dict[str, Any]:
    config = SMOKE if smoke else FederatedBenchConfig()
    # ---- lockstep reference: sampled synchronous FedAvg -------------
    clients, test = _build_fleet(config)
    lockstep_server = _make_server(config, clients, test,
                                   buffer_size=config.cohort,
                                   sample_fraction=config.sample_fraction,
                                   cost_aware=False)
    lockstep = lockstep_server.run_async(max_waves=config.lockstep_rounds,
                                         eval_every=1)
    target_accuracy = lockstep["final_accuracy"] - config.accuracy_tolerance

    # ---- async arm, swept over worker counts ------------------------
    runs: Dict[str, Dict[str, Any]] = {}
    payloads: Dict[int, str] = {}
    async_result: Optional[Dict[str, Any]] = None
    for workers in config.worker_counts:
        result, wall_s = _async_run(config, workers, target_accuracy)
        payloads[workers] = json.dumps(result, sort_keys=True)
        runs[str(workers)] = {
            "wall_s": wall_s,
            "updates": result["updates"],
            "virtual_s": result["virtual_s"],
            "final_accuracy": result["final_accuracy"],
            "weights_sha": result["weights_sha"],
        }
        if workers == 1:
            async_result = result
    assert async_result is not None, "worker_counts must include 1"
    identical = len(set(payloads.values())) == 1

    # ---- emulated-device sharding arm (informational) ---------------
    sharding = {str(w): _sharding_wall_s(config, w)
                for w in config.worker_counts}
    max_workers = max(config.worker_counts)
    sharding_speedup = sharding["1"] / max(sharding[str(max_workers)], 1e-9)

    simulated_speedup = (lockstep["virtual_s"]
                         / max(async_result["virtual_s"], 1e-12))
    reached = (async_result["reached_target"]
               or async_result["final_accuracy"] >= target_accuracy)
    return {
        "config": asdict(config),
        "smoke": smoke,
        "update_budget": config.update_budget,
        "cohort": config.cohort,
        "lockstep": {k: v for k, v in lockstep.items()
                     if k != "eval_history"},
        "lockstep_eval_history": lockstep["eval_history"],
        "async": {k: v for k, v in async_result.items()
                  if k != "eval_history"},
        "async_eval_history": async_result["eval_history"],
        "async_by_workers": runs,
        "sharding_wall_s": sharding,
        "sharding_speedup_at_max_workers": sharding_speedup,
        "target_accuracy": target_accuracy,
        "simulated_speedup": simulated_speedup,
        "energy_ratio_lockstep_over_async": (
            lockstep["total_energy_mj"]
            / max(async_result["total_energy_mj"], 1e-12)),
        "claims": {
            "reached_lockstep_accuracy": bool(reached),
            "simulated_speedup_ok": simulated_speedup >= SIM_SPEEDUP_TARGET,
            "identical_across_workers": bool(identical),
            "fleet_scale": config.n_clients >= 1000,
        },
    }


def claims(payload: dict, baseline: dict) -> List[Claim]:
    flags = payload["claims"]
    out = []
    if not payload["smoke"]:
        # The headline is 10^3+ clients, not a toy cohort.
        out.append(Claim(
            "fleet-scale", flags["fleet_scale"], True,
            f"{payload['config']['n_clients']} simulated clients (>= 1000)"))
    out += [
        Claim("async-reaches-lockstep-accuracy",
              flags["reached_lockstep_accuracy"], True,
              f"async {payload['async']['final_accuracy']:.3f} vs target "
              f"{payload['target_accuracy']:.3f} (lockstep "
              f"{payload['lockstep']['final_accuracy']:.3f} - tolerance)"),
        Claim("simulated-speedup", flags["simulated_speedup_ok"], True,
              f"{payload['simulated_speedup']:.1f}x vs target "
              f"{SIM_SPEEDUP_TARGET:.0f}x (baseline "
              f"{baseline['simulated_speedup']:.1f}x)"),
        Claim("identical-across-workers",
              flags["identical_across_workers"], True,
              "async payload byte-identical at workers "
              f"{sorted(int(w) for w in payload['async_by_workers'])}"),
    ]
    if not payload["smoke"]:
        # Only the full run shares the stored baseline's fleet.
        now = payload["async"]["final_accuracy"]
        then = baseline["async"]["final_accuracy"]
        out.append(Claim(
            "accuracy-vs-baseline", abs(now - then) <= ACCURACY_DRIFT_TOL,
            False,
            f"async accuracy {now:.3f} vs baseline {then:.3f} (|drift| "
            f"{abs(now - then):.3f}, tol {ACCURACY_DRIFT_TOL})"))
    # The emulated-device sharding multiple is wall clock.
    out.append(Claim(
        "sharding-wall-speedup",
        payload["sharding_speedup_at_max_workers"] >= 1.2, False,
        f"{payload['sharding_speedup_at_max_workers']:.2f}x at "
        f"{max(payload['config']['worker_counts'])} workers vs baseline "
        f"{baseline['sharding_speedup_at_max_workers']:.2f}x"))
    return out


def test_federated_async(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    verdict = check("federated_async", result)
    cfg = result["config"]
    lock, asy = result["lockstep"], result["async"]
    print_table(
        f"Async vs lockstep FedAvg — {cfg['n_clients']} clients, "
        f"cohort {result['cohort']}, budget {result['update_budget']} "
        "updates",
        ["Arm", "Updates", "Virtual time", "Accuracy", "Energy",
         "Staleness"],
        [["lockstep", lock["updates"], f"{lock['virtual_s']:.1f}s",
          f"{lock['final_accuracy']:.3f}",
          f"{lock['total_energy_mj']:.1f}mJ", "0 (barrier)"],
         ["async", asy["updates"], f"{asy['virtual_s']:.1f}s",
          f"{asy['final_accuracy']:.3f}",
          f"{asy['total_energy_mj']:.1f}mJ",
          f"mean {asy['staleness_mean']:.2f} max "
          f"{asy['staleness_max']}"]])
    print_table(
        "Async determinism + sharding across worker counts",
        ["Workers", "Weights sha", "Wall", "Emulated wall"],
        [[w, arm["weights_sha"][:16], f"{arm['wall_s']:.2f}s",
          f"{result['sharding_wall_s'][w]:.2f}s"]
         for w, arm in sorted(result["async_by_workers"].items(),
                              key=lambda kv: int(kv[0]))])
    save_result("bench_federated_async", result)
    assert_claims(verdict)
