"""Thesis benchmark — end-to-end co-design vs modular optimization.

The paper's core argument: "end-to-end approaches can leverage
cross-layer interdependencies, unlocking unprecedented gains in
throughput, precision, and resource allocation" over "modular
optimizations that only address individual components in isolation."

This bench sweeps the power budget and compares the jointly-optimized
loop design (coverage x model x precision x rate) against per-knob
optimization, reporting the utility gap and the cross-layer trades the
joint optimum makes.
"""

import numpy as np

from repro.core import LoopPlant, end_to_end_codesign, modular_codesign, pareto_front

from bench_utils import print_table, save_result

BUDGETS_MW = (2000, 4000, 8000, 15000, 30000)


def run(smoke: bool = False) -> dict:
    """Single config: ``smoke`` is ignored."""
    plant = LoopPlant()
    sweep = {}
    for budget in BUDGETS_MW:
        e2e_design, e2e_u = end_to_end_codesign(plant, budget)
        mod_design, mod_u = modular_codesign(plant, budget)
        sweep[budget] = {
            "e2e_utility": e2e_u,
            "modular_utility": mod_u,
            "e2e_design": (f"{e2e_design.coverage}/{e2e_design.model}/"
                           f"{e2e_design.precision_bits}b/"
                           f"{e2e_design.rate_hz}Hz"
                           if e2e_design else "infeasible"),
            "gain_pct": (100 * (e2e_u / mod_u - 1.0) if mod_u > 0
                         else float("inf")),
        }
    front = pareto_front(plant)
    return {"sweep": sweep, "pareto_points": len(front)}


def test_codesign_thesis(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    sweep = result["sweep"]
    print_table(
        "Thesis — end-to-end co-design vs modular optimization "
        "(loop utility under a power budget)",
        ["Budget (mW)", "E2E utility", "Modular utility", "Gain",
         "E2E design (cov/model/bits/rate)"],
        [[b, f"{e['e2e_utility']:.3f}", f"{e['modular_utility']:.3f}",
          (f"{e['gain_pct']:.0f}%" if np.isfinite(e["gain_pct"]) else "inf"),
          e["e2e_design"]]
         for b, e in sweep.items()])
    save_result("codesign_thesis", result)

    # Joint search dominates everywhere and strictly wins when
    # constrained; with a loose budget both find the corner design.
    for entry in sweep.values():
        assert entry["e2e_utility"] >= entry["modular_utility"] - 1e-12
    constrained_gains = [e["gain_pct"] for b, e in sweep.items()
                         if b <= 8000 and np.isfinite(e["gain_pct"])]
    assert max(constrained_gains) > 8.0
    assert result["pareto_points"] >= 3
