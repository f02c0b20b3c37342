"""Ablation — precision policy in HaLo-FL (Sec. VII).

Compares uniform fixed precisions (32/16/8/4-bit everywhere) against
HaLo's hardware-aware selector on identical fleets: the selector should
match the best fixed point of the accuracy/energy frontier without the
manual sweep — and avoid the 4-bit collapse.
"""

import numpy as np

from repro.federated import FLClient, FLServer, make_fleet
from repro.nn import PrecisionConfig
from repro.sim import make_synthetic_cifar, shard_dirichlet

from bench_utils import print_table, save_result

UNIFORM_BITS = (32, 16, 8, 4)
ROUNDS = 8
N_CLIENTS = 6


def _run_with_policy(policy_name):
    ds = make_synthetic_cifar(n_per_class=40, seed=0)
    train, test = ds.split(0.25, np.random.default_rng(1))
    shards = shard_dirichlet(train, N_CLIENTS, alpha=0.7,
                             rng=np.random.default_rng(2))
    fleet = make_fleet(N_CLIENTS, rng=np.random.default_rng(3))
    clients = [FLClient(i, s, p, rng=np.random.default_rng(10 + i))
               for i, (s, p) in enumerate(zip(shards, fleet))]
    mode = "halo" if policy_name == "halo" else "fedavg"
    server = FLServer(clients, test, hidden=32, mode=mode,
                      rng=np.random.default_rng(4))
    if policy_name.startswith("uniform"):
        bits = int(policy_name.split("_")[1])
        cfg = PrecisionConfig(bits, bits, max(bits, 8))

        def plan(client, _cfg=cfg):
            return server.hidden, _cfg

        server._client_plan = plan  # fixed-precision override
    server.run(ROUNDS)
    return server.totals()


def run(smoke: bool = False) -> dict:
    """Single config: ``smoke`` is ignored."""
    results = {}
    for bits in UNIFORM_BITS:
        results[f"uniform_{bits}"] = _run_with_policy(f"uniform_{bits}")
    results["halo"] = _run_with_policy("halo")
    return results


def test_ablation_halo_precision(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation — uniform precision vs HaLo's hardware-aware selector",
        ["Policy", "Accuracy", "Energy (mJ)", "Latency (ms)"],
        [[name, f"{t['final_accuracy']:.3f}", f"{t['energy_mj']:.4f}",
          f"{t['latency_ms']:.1f}"]
         for name, t in result.items()])
    save_result("ablation_halo_precision", result)

    acc32 = result["uniform_32"]["final_accuracy"]
    # 4-bit uniform training collapses (why naive aggressive quantization
    # is unsafe) ...
    assert result["uniform_4"]["final_accuracy"] < acc32 - 0.15
    # ... while the selector lands at 8-bit-class efficiency without the
    # collapse: near-fp32 accuracy at a fraction of the energy.
    halo = result["halo"]
    assert halo["final_accuracy"] > acc32 - 0.08
    assert halo["energy_mj"] < result["uniform_32"]["energy_mj"] / 3
    assert halo["energy_mj"] <= result["uniform_8"]["energy_mj"] * 1.1
