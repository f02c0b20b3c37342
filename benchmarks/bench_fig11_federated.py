"""Fig. 11 — DC-NAS and HaLo-FL resource reductions on CIFAR-10(-like).

The paper's bar chart shows relative reductions in energy, latency, and
area from adaptive model optimization while maintaining accuracy.  We run
four federated configurations over an identical heterogeneous fleet and
non-IID shards: static FedAvg (baseline), DC-NAS (per-client channel
pruning), HaLo-FL (per-client precision selection), and their
composition.
"""

import numpy as np

from repro.federated import MODES, FLClient, FLServer, make_fleet
from repro.sim import make_synthetic_cifar, shard_dirichlet

from bench_utils import print_table, save_result

N_CLIENTS = 8
ROUNDS = 10


def run(smoke: bool = False) -> dict:
    """Single config: ``smoke`` is ignored."""
    ds = make_synthetic_cifar(n_per_class=50, seed=0)
    train, test = ds.split(0.25, np.random.default_rng(1))
    shards = shard_dirichlet(train, N_CLIENTS, alpha=0.7,
                             rng=np.random.default_rng(2))
    fleet = make_fleet(N_CLIENTS, rng=np.random.default_rng(3))

    results = {}
    for mode in MODES:
        clients = [FLClient(i, s, p,
                            rng=np.random.default_rng(100 + i))
                   for i, (s, p) in enumerate(zip(shards, fleet))]
        server = FLServer(clients, test, hidden=32, mode=mode,
                          rng=np.random.default_rng(4))
        server.run(ROUNDS)
        results[mode] = server.totals()
    return results


def test_fig11_federated(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    base = result["fedavg"]
    rows = []
    for mode in MODES:
        t = result[mode]
        rows.append([
            mode, f"{t['final_accuracy']:.3f}",
            f"{base['energy_mj'] / t['energy_mj']:.2f}x",
            f"{base['latency_ms'] / t['latency_ms']:.2f}x",
            f"{base['area_um2'] / t['area_um2']:.2f}x",
        ])
    print_table(
        "Fig. 11 — relative reductions vs static FedAvg "
        "(paper: adaptive optimization cuts energy/latency/area while "
        "maintaining accuracy)",
        ["Mode", "Accuracy", "Energy red.", "Latency red.", "Area red."],
        rows)
    save_result("fig11_federated", result)

    for mode in ("dcnas", "halo", "dcnas+halo"):
        t = result[mode]
        # Accuracy maintained within a few points of the baseline.
        assert t["final_accuracy"] > base["final_accuracy"] - 0.1, mode
    # Each adaptation cuts at least one resource; the composition cuts
    # every resource.
    assert result["dcnas"]["energy_mj"] < base["energy_mj"]
    assert result["dcnas"]["latency_ms"] < base["latency_ms"]
    assert result["halo"]["energy_mj"] < base["energy_mj"] / 3
    assert result["halo"]["area_um2"] < base["area_um2"] / 3
    combo = result["dcnas+halo"]
    assert combo["energy_mj"] <= result["halo"]["energy_mj"] + 1e-9
    assert combo["latency_ms"] < base["latency_ms"]
    assert combo["area_um2"] < base["area_um2"]
