"""Fig. 2 — in-memory computing acceleration of synaptic operations.

The paper's Fig. 2 pipeline offloads synaptic functionality to in-memory
(IMC) / near-memory computing "alongside CPU/GPU architectures".  The
physics: digital MVMs pay weight movement per inference; crossbars keep
weights stationary and pay converters instead.  This bench sweeps matrix
size and input activity and reports where IMC wins — including the
spiking case, where sparse input activity multiplies the advantage.
"""

from repro.hardware import compare_architectures

from bench_utils import print_table, save_result

SIZES = (64, 256, 1024)
ACTIVITIES = (1.0, 0.1)


def run(smoke: bool = False) -> dict:
    """Single config: ``smoke`` is ignored."""
    results = {}
    for size in SIZES:
        for activity in ACTIVITIES:
            out = compare_architectures(rows=size, cols=size, batch=1,
                                        bits=8, input_activity=activity)
            results[f"{size}x{size}@{activity}"] = out
    return results


def test_fig2_imc(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for key, out in result.items():
        rows.append([key, f"{out['digital_pj'] / 1e3:.1f}",
                     f"{out['imc_pj'] / 1e3:.1f}",
                     f"{out['imc_advantage']:.1f}x"])
    print_table(
        "Fig. 2 concept — digital vs in-memory MVM energy "
        "(batch-1 inference; '@a' = input activity)",
        ["Workload", "Digital (nJ)", "IMC (nJ)", "IMC advantage"], rows)
    save_result("fig2_imc", result)

    # IMC wins at every swept size for batch-1 inference ...
    for out in result.values():
        assert out["imc_advantage"] > 1.0
    # ... the advantage grows with matrix size (converters amortize) ...
    assert (result["1024x1024@1.0"]["imc_advantage"]
            > result["64x64@1.0"]["imc_advantage"])
    # ... and event-driven sparsity multiplies it further.
    assert (result["256x256@0.1"]["imc_advantage"]
            > result["256x256@1.0"]["imc_advantage"])
