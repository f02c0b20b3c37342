"""Fig. 9 — optical-flow AEE and energy across neuromorphic families.

Left panel (paper): AEE of EvFlowNet (EvF), Spike-FlowNet (SpF), and
Fusion-FlowNet (FF) on MVSEC; SpF outperforms EvF with 1.21x lower
energy; FF achieves 40% lower error with ~half the parameters and 1.87x
lower energy.  Right panel: Adaptive-SpikeNet vs full-ANN AEE as model
size shrinks — the SNN with learnable dynamics degrades far less (and
the paper quotes 48x fewer params / 10x less energy at iso-accuracy).

On our simulated DVS substrate the strongly reproducible part is the
energy story (spike sparsity is measured, op costs are analytic); AEE
orderings are reported and asserted loosely (every model must beat the
zero-flow baseline; spiking families must deliver large energy savings).
"""

import numpy as np

from repro.neuromorphic import FLOW_MODEL_FAMILIES, build_flow_model, evaluate_aee, train_flow_model
from repro.sim import make_flow_dataset
from repro.sim.events import EventCameraConfig

from bench_utils import print_table, save_result

CFG = EventCameraConfig(n_substeps=6, noise_events_per_pixel=0.02)
CHANNEL_SWEEP = (3, 8)


def run(smoke: bool = False) -> dict:
    """Single config: ``smoke`` is ignored."""
    train = make_flow_dataset(50, seed=0, config=CFG,
                              max_displacement=2.5)
    test = make_flow_dataset(14, seed=1, config=CFG,
                             max_displacement=2.5)
    zero_aee = float(np.mean([
        np.sqrt((s.flow ** 2).sum(axis=0))[s.has_event_mask].mean()
        for s in test]))

    left = {}
    for name in sorted(FLOW_MODEL_FAMILIES):
        model = build_flow_model(name, channels=8,
                                 rng=np.random.default_rng(2))
        train_flow_model(model, train, epochs=40,
                         rng=np.random.default_rng(3))
        left[name] = {
            "aee": evaluate_aee(model, test),
            "params": model.num_parameters(),
            "energy_nj": float(np.mean(
                [model.inference_energy_pj(s) for s in test])) / 1e3,
        }

    right = {}
    for name in ("evflownet", "adaptive_spikenet"):
        right[name] = {}
        for ch in CHANNEL_SWEEP:
            model = build_flow_model(name, channels=ch,
                                     rng=np.random.default_rng(4))
            train_flow_model(model, train, epochs=40,
                             rng=np.random.default_rng(5))
            right[name][ch] = {
                "aee": evaluate_aee(model, test),
                "params": model.num_parameters(),
            }
    return {"zero_aee": zero_aee, "left": left, "right": right}


def test_fig9_optical_flow(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    left = result["left"]
    print_table(
        f"Fig. 9 (left) — AEE / params / energy per family "
        f"(zero-flow baseline AEE = {result['zero_aee']:.2f}; paper: "
        "hybrids cut energy 1.2-1.9x, full SNN ~10x)",
        ["Model", "AEE", "Params", "Energy (nJ)",
         "Energy vs ANN"],
        [[name, f"{e['aee']:.3f}", e["params"], f"{e['energy_nj']:.1f}",
          f"{left['evflownet']['energy_nj'] / e['energy_nj']:.2f}x"]
         for name, e in left.items()])
    rows = []
    for name, sweep in result["right"].items():
        for ch, entry in sweep.items():
            rows.append([name, ch, entry["params"], f"{entry['aee']:.3f}"])
    print_table(
        "Fig. 9 (right) — AEE vs model size, Adaptive-SpikeNet vs ANN",
        ["Model", "Channels", "Params", "AEE"], rows)
    save_result("fig9_optical_flow", result)

    zero = result["zero_aee"]
    for name, entry in left.items():
        assert entry["aee"] < zero, (name, entry["aee"], zero)
    # Energy story: hybrid cheaper than ANN, full SNN much cheaper.
    e_ann = left["evflownet"]["energy_nj"]
    assert left["spikeflownet"]["energy_nj"] < e_ann / 1.2
    assert left["adaptive_spikenet"]["energy_nj"] < e_ann / 10
    # Adaptive-SpikeNet: fewer (or equal) params than the ANN at the
    # same width, and it degrades gracefully when shrunk.
    asn = result["right"]["adaptive_spikenet"]
    small, big = asn[CHANNEL_SWEEP[0]], asn[CHANNEL_SWEEP[-1]]
    assert small["aee"] < zero
    assert small["params"] < big["params"]
