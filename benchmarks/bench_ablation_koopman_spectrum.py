"""Ablation — spectral parameterization of the Koopman operator (Sec. IV).

Two axes the design section calls out:

* **eigenpair count K** — capacity vs cost of the block-diagonal
  spectrum (prediction error and closed-loop reward vs K);
* **stability enforcement** — parameterizing mu = -softplus(raw)
  guarantees a stable operator but cannot represent open-loop-unstable
  plants; fitted on raw cart-pole transitions the constrained model must
  show higher prediction error (exactly why the encoder, not raw system
  ID, is where the constraint belongs).
"""

import numpy as np

from repro.koopman import (
    SpectralKoopmanDynamics,
    collect_transitions,
    evaluate_controller,
    fit_dynamics_model,
    make_controller,
)

from bench_utils import print_table, save_result

PAIR_COUNTS = (2, 4, 8)


def run(smoke: bool = False) -> dict:
    """Single config: ``smoke`` is ignored."""
    rng = np.random.default_rng(0)
    transitions = collect_transitions(n_episodes=15, rng=rng)
    z, u, z_next = transitions
    hold = slice(0, 100)

    sweep = {}
    for n_pairs in PAIR_COUNTS:
        model = SpectralKoopmanDynamics(4, 1, n_pairs=n_pairs,
                                        rng=np.random.default_rng(1))
        fit_dynamics_model(model, transitions, epochs=90,
                           rng=np.random.default_rng(2))
        pred = model.predict(z[hold], u[hold])
        err = float(np.mean((pred - z_next[hold]) ** 2))
        reward = evaluate_controller(
            make_controller(model), 0.0, n_episodes=4, steps=150,
            seed=3)
        sweep[n_pairs] = {"prediction_mse": err, "reward": reward,
                          "prediction_macs": model.prediction_macs()}

    stability = {}
    for enforce in (False, True):
        model = SpectralKoopmanDynamics(
            4, 1, n_pairs=4, enforce_stability=enforce,
            rng=np.random.default_rng(4))
        fit_dynamics_model(model, transitions, epochs=90,
                           rng=np.random.default_rng(5))
        pred = model.predict(z[hold], u[hold])
        stability[enforce] = {
            "prediction_mse": float(np.mean((pred - z_next[hold]) ** 2)),
            "stable_spectrum": bool(model.op.is_stable()),
        }
    return {"pairs": sweep, "stability": stability}


def test_ablation_koopman_spectrum(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation — eigenpair count K (spectral Koopman on cart-pole)",
        ["K", "Prediction MSE", "Closed-loop reward", "Prediction MACs"],
        [[k, f"{e['prediction_mse']:.5f}", f"{e['reward']:.1f}",
          e["prediction_macs"]]
         for k, e in result["pairs"].items()])
    print_table(
        "Ablation — stability enforcement (mu = -softplus) on raw "
        "system identification",
        ["Enforced", "Prediction MSE", "Spectrum stable"],
        [[str(k), f"{e['prediction_mse']:.5f}", e["stable_spectrum"]]
         for k, e in result["stability"].items()])
    save_result("ablation_koopman_spectrum", result)

    sweep = result["pairs"]
    # Cost grows with K; some K achieves good control.
    macs = [sweep[k]["prediction_macs"] for k in PAIR_COUNTS]
    assert macs == sorted(macs)
    assert max(e["reward"] for e in sweep.values()) > 100
    # Constrained-stable fit cannot match the unconstrained one on an
    # open-loop-unstable plant.
    stab = result["stability"]
    assert stab[True]["stable_spectrum"] is True
    assert stab[True]["prediction_mse"] >= stab[False]["prediction_mse"]
