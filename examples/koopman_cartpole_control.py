#!/usr/bin/env python
"""Action-to-sensing demo (Sec. IV): RoboKoop-style spectral control.

Fits the dynamics-model zoo on the same cart-pole transitions, derives a
controller for each (LQR for the linear families, random-shooting MPC for
the nonlinear ones), and evaluates closed-loop reward under increasing
disturbance — Fig. 5 end to end, plus the visual contrastive-encoder
agent.

Run:  python examples/koopman_cartpole_control.py
"""

import numpy as np

from repro.koopman import (
    RoboKoopAgent,
    fig5a_macs,
    run_disturbance_experiment,
)

FIT_EPOCHS = {"mlp": 25, "dense_koopman": 1, "spectral_koopman": 90}


def main() -> None:
    print("1. MAC budget per dynamics family (Fig. 5a, latent dim 16):")
    for name, entry in sorted(fig5a_macs(16, 1).items(),
                              key=lambda kv: kv[1]["total"]):
        print(f"   {name:18s} prediction {entry['prediction']:8d}  "
              f"control {entry['control']:9d}  total {entry['total']:9d}")

    print("\n2. Closed-loop reward under disturbances (Fig. 5b), every "
          "model fit on the same 15 cart-pole episodes:")
    print(f"   {'model':18s} {'p=0.0':>8s} {'p=0.1':>8s} {'p=0.25':>8s}")
    rewards = run_disturbance_experiment(FIT_EPOCHS, n_train_episodes=15,
                                         eval_episodes=4)
    for name, by_p in rewards.items():
        print(f"   {name:18s} "
              + " ".join(f"{r:8.1f}" for r in by_p.values()))

    print("\n3. Visual RoboKoop agent (contrastive spectral encoder + "
          "latent LQR):")
    agent = RoboKoopAgent.train(image_size=20, n_pairs=6, n_episodes=10,
                                epochs=4, seed=5)
    reward = agent.evaluate(disturbance_p=0.1, n_episodes=3, steps=80,
                            seed=6)
    eigs = agent.encoder.operator.eigenvalues()
    print(f"   stable spectrum: {agent.encoder.operator.is_stable()} "
          f"(|lambda| max = {np.abs(eigs).max():.3f})")
    print(f"   episodic reward from pixels under disturbance: {reward:.1f}")


if __name__ == "__main__":
    main()
