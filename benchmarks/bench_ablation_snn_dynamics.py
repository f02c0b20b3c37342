"""Ablation — learnable neuronal dynamics and surrogate width (Sec. VI).

Adaptive-SpikeNet's contribution is *learnable* leak/threshold.  This
bench trains the same architecture with dynamics frozen vs learnable,
and sweeps the surrogate-gradient width (too narrow starves gradients,
too wide blurs the spike nonlinearity).
"""

import numpy as np

from repro.neuromorphic import evaluate_aee, train_flow_model
from repro.neuromorphic.flow_models import AdaptiveSpikeNet
from repro.sim import make_flow_dataset
from repro.sim.events import EventCameraConfig

from bench_utils import print_table, save_result

CFG = EventCameraConfig(n_substeps=6, noise_events_per_pixel=0.02)
WIDTHS = (0.25, 1.0, 4.0)


def _freeze_dynamics(model: AdaptiveSpikeNet) -> None:
    """Turn the learnable dynamics into constants (ablated variant)."""
    for layer in (model.l1, model.l2, model.l3):
        if layer.learnable_dynamics:
            layer.leak_raw.trainable = False
            layer.thr_raw.trainable = False


def run(smoke: bool = False) -> dict:
    """Single config: ``smoke`` is ignored."""
    train = make_flow_dataset(40, seed=0, config=CFG,
                              max_displacement=2.5)
    test = make_flow_dataset(12, seed=1, config=CFG,
                             max_displacement=2.5)

    dynamics = {}
    for learnable in (False, True):
        model = AdaptiveSpikeNet(channels=8,
                                 rng=np.random.default_rng(2))
        if not learnable:
            _freeze_dynamics(model)
        train_flow_model(model, train, epochs=35,
                         rng=np.random.default_rng(3))
        dynamics[learnable] = {
            "aee": evaluate_aee(model, test),
            "leak_l1": model.l1.leak(),
            "threshold_l1": model.l1.threshold(),
        }

    widths = {}
    for width in WIDTHS:
        model = AdaptiveSpikeNet(channels=8,
                                 rng=np.random.default_rng(4))
        for layer in (model.l1, model.l2, model.l3):
            layer.surrogate_width = width
        train_flow_model(model, train, epochs=35,
                         rng=np.random.default_rng(5))
        widths[width] = evaluate_aee(model, test)
    return {"dynamics": dynamics, "widths": widths}


def test_ablation_snn_dynamics(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    dyn = result["dynamics"]
    print_table(
        "Ablation — learnable vs frozen neuronal dynamics "
        "(Adaptive-SpikeNet, event-flow)",
        ["Dynamics", "AEE", "Learned leak (l1)", "Learned threshold (l1)"],
        [["frozen", f"{dyn[False]['aee']:.3f}",
          f"{dyn[False]['leak_l1']:.3f}", f"{dyn[False]['threshold_l1']:.3f}"],
         ["learnable", f"{dyn[True]['aee']:.3f}",
          f"{dyn[True]['leak_l1']:.3f}", f"{dyn[True]['threshold_l1']:.3f}"]])
    print_table(
        "Ablation — surrogate-gradient width",
        ["Width", "AEE"],
        [[w, f"{a:.3f}"] for w, a in result["widths"].items()])
    save_result("ablation_snn_dynamics", result)

    # Learnable dynamics help (the Adaptive-SpikeNet claim) — or at
    # minimum never hurt materially at this scale.
    assert dyn[True]["aee"] <= dyn[False]["aee"] + 0.1
    # Learnable parameters actually moved from their init.
    assert (abs(dyn[True]["leak_l1"] - 0.9) > 1e-4
            or abs(dyn[True]["threshold_l1"] - 0.75) > 1e-4)
    # The default width (1.0) is within noise of the best swept width.
    best = min(result["widths"].values())
    assert result["widths"][1.0] <= best + 0.25
