"""Runtime scaling — wall-clock speedup of parallel federated rounds.

Starts the BENCH trajectory on *wall time*, not just shapes: one
federated round dispatched through ``repro.runtime.WorkerPool`` at 1, 2,
and 4 workers, with the hard constraint that every worker count yields
**bit-identical** global weights.

Wall-clock realism: in deployment a round's server-side latency is
bounded by its slowest clients (device compute + uplink), not by the
simulator's Python arithmetic.  Each :class:`FLClient` therefore carries
``emulated_round_s`` — the wall time its :class:`HardwareProfile`
predicts for the round (MACs at the device's throughput plus the model
payload over a tier-grade uplink) — and ``local_train`` blocks until
that much real time has elapsed.  Serial dispatch pays the *sum* of
client walls; a pool pays roughly the *max* per wave of workers.  The
recorded speedup is real measured wall clock on any host, including
single-core CI runners, and the numerical results are untouched by the
emulation.
"""

import os
import time

import numpy as np

from repro.federated import FLClient, FLServer, make_fleet, model_macs_per_sample
from repro.runtime import WorkerPool
from repro.sim import make_synthetic_cifar, shard_dirichlet

from bench_utils import print_table, save_result

N_CLIENTS = 12
ROUNDS = 2
HIDDEN = 32
WORKER_COUNTS = (1, 2, 4)

# Uplink grade by device tier (MB/s): small devices sit on slow links.
UPLINK_MB_S = {"server": 100.0, "workstation": 40.0, "jetson": 8.0,
               "phone": 4.0, "mcu": 1.0}


def _emulated_round_s(profile, n_samples: int, input_dim: int,
                      n_classes: int, epochs: int = 1) -> float:
    """Device compute + payload transfer wall time for one round."""
    macs = 3 * model_macs_per_sample(input_dim, HIDDEN, n_classes) \
        * n_samples * epochs
    compute_s = profile.inference_latency_ms(macs) / 1e3
    n_params = (input_dim * HIDDEN + HIDDEN
                + HIDDEN * n_classes + n_classes)
    transfer_s = 2 * n_params * 4 / (UPLINK_MB_S[profile.name] * 1e6)
    # Clamp so one straggler cannot make the bench minutes long, with a
    # floor covering per-round protocol overhead (connection + handshake)
    # that even the fastest tier pays.
    return float(np.clip(compute_s + transfer_s, 0.03, 0.12))


def _make_server() -> FLServer:
    ds = make_synthetic_cifar(n_per_class=30, seed=0)
    train, test = ds.split(0.25, np.random.default_rng(1))
    shards = shard_dirichlet(train, N_CLIENTS, alpha=0.7,
                             rng=np.random.default_rng(2))
    fleet = make_fleet(N_CLIENTS, rng=np.random.default_rng(3))
    clients = [
        FLClient(i, shard, profile,
                 rng=np.random.default_rng(100 + i),
                 emulated_round_s=_emulated_round_s(
                     profile, len(shard), train.dim, train.n_classes))
        for i, (shard, profile) in enumerate(zip(shards, fleet))]
    return FLServer(clients, test, hidden=HIDDEN, mode="dcnas+halo",
                    rng=np.random.default_rng(4))


def run(smoke: bool = False) -> dict:
    """Single config: ``smoke`` is ignored."""
    runs = {}
    for workers in WORKER_COUNTS:
        server = _make_server()
        t0 = time.perf_counter()
        with WorkerPool(workers) as pool:
            server.run(ROUNDS, pool=pool)
        wall_s = time.perf_counter() - t0
        runs[workers] = {
            "wall_s": round(wall_s, 4),
            "weights": server.global_weights,
            "accuracy": server.history[-1].test_accuracy,
        }
    serial_wall = runs[1]["wall_s"]
    emulated = [c.emulated_round_s for c in _make_server().clients]
    return {
        "n_clients": N_CLIENTS,
        "rounds": ROUNDS,
        "mode": "dcnas+halo",
        "host_cpus": os.cpu_count(),
        "emulated_client_wall_s": {
            "min": round(min(emulated), 4),
            "max": round(max(emulated), 4),
            "sum_per_round": round(sum(emulated), 4),
        },
        "by_workers": {
            str(w): {
                "wall_s": runs[w]["wall_s"],
                "speedup": round(serial_wall / runs[w]["wall_s"], 2),
                "accuracy": round(runs[w]["accuracy"], 4),
                "bit_identical_to_serial": bool(all(
                    np.array_equal(a, b)
                    for a, b in zip(runs[1]["weights"], runs[w]["weights"]))),
            }
            for w in WORKER_COUNTS
        },
    }


def test_runtime_scaling(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[w, f"{r['wall_s']:.2f}s", f"{r['speedup']:.2f}x",
             f"{r['accuracy']:.3f}", r["bit_identical_to_serial"]]
            for w, r in result["by_workers"].items()]
    print_table(
        "Runtime scaling — parallel federated round "
        "(WorkerPool overlaps per-client device+uplink wall time; "
        "results must not change)",
        ["Workers", "Wall", "Speedup", "Accuracy", "Bit-identical"],
        rows)
    save_result("bench_runtime_scaling", result)

    for r in result["by_workers"].values():
        assert r["bit_identical_to_serial"]
    assert result["by_workers"]["4"]["speedup"] >= 1.5
    assert result["by_workers"]["2"]["speedup"] >= 1.1
