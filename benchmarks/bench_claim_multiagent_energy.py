"""Conclusion claim — multi-agent loops "achieve a threefold reduction in
energy consumption" through distributed collaboration.

Identical event-coverage worlds are patrolled by an uncoordinated swarm
(every agent senses at solo-coverage radius) and a coordinated one
(partitioned responsibility, minimal radii).  Compared at matched
detection rates.
"""

import numpy as np

from repro.multiagent import compare_swarm_strategies
from repro.sim import GridWorldConfig

from bench_utils import print_table, save_result

SEEDS = (0, 1, 2, 3)


def run(smoke: bool = False) -> dict:
    """Single config: ``smoke`` is ignored."""
    per_seed = []
    for seed in SEEDS:
        res = compare_swarm_strategies(
            GridWorldConfig(size=12, n_agents=4), steps=50, seed=seed)
        per_seed.append(res)
    def agg(strategy, attr):
        return float(np.mean([getattr(r[strategy], attr)
                              for r in per_seed]))
    return {
        strategy: {
            "detection_rate": agg(strategy, "detection_rate"),
            "energy_mj": agg(strategy, "total_energy_mj"),
            "redundancy": agg(strategy, "mean_redundancy"),
        }
        for strategy in ("uncoordinated", "coordinated")
    }


def test_claim_multiagent_energy(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    un, co = result["uncoordinated"], result["coordinated"]
    ratio = un["energy_mj"] / co["energy_mj"]
    print_table(
        "Conclusion claim — swarm sensing energy, coordinated vs not "
        "(paper: ~3x reduction)",
        ["Strategy", "Detection rate", "Energy (mJ)", "Redundancy"],
        [["uncoordinated", f"{un['detection_rate']:.2f}",
          f"{un['energy_mj']:.0f}", f"{un['redundancy']:.2f}"],
         ["coordinated", f"{co['detection_rate']:.2f}",
          f"{co['energy_mj']:.0f}", f"{co['redundancy']:.2f}"],
         ["ratio", "-", f"{ratio:.2f}x", "-"]])
    save_result("claim_multiagent_energy", result)

    # Matched task performance, ~3x cheaper sensing.
    assert abs(un["detection_rate"] - co["detection_rate"]) < 0.15
    assert ratio > 2.5
    assert co["redundancy"] < un["redundancy"]
