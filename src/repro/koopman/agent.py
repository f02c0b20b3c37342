"""RoboKoop agents and the Fig. 5 evaluation harness.

Two layers:

* :func:`run_disturbance_experiment` — the Fig. 5b protocol: fit each
  dynamics family on the same state-space transitions, derive a
  controller (LQR for the linear families, random-shooting MPC for the
  nonlinear ones), and evaluate closed-loop reward on the cart-pole
  under increasing disturbance probability.
* :class:`RoboKoopAgent` — the full visual pipeline: contrastive
  spectral Koopman encoder over rendered observations + LQR in latent
  space toward the encoded goal image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from ..sim.cartpole import CartPole, DisturbanceProcess
from .baselines import (
    MPC_HORIZON,
    MPC_SAMPLES,
    DenseKoopmanDynamics,
    DynamicsModel,
    SpectralKoopmanDynamics,
    build_model,
    fit_dynamics_model,
)
from .encoder import ContrastiveKoopmanEncoder
from .lqr import LQRController

__all__ = ["collect_transitions", "mpc_action", "make_controller",
           "rollout_controller", "evaluate_controller",
           "run_disturbance_experiment", "DISTURBANCE_PS", "RoboKoopAgent"]

Controller = Callable[[np.ndarray], float]


def collect_transitions(n_episodes: int = 20, steps: int = 60,
                        rng: Optional[np.random.Generator] = None
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roll a uniform random policy on the cart-pole; returns (S, U, S')."""
    rng = rng if rng is not None else np.random.default_rng(0)
    states, actions, next_states = [], [], []
    for _ in range(n_episodes):
        env = CartPole(rng=np.random.default_rng(rng.integers(2 ** 31)))
        s = env.reset(noise_scale=0.1)
        for _ in range(steps):
            a = float(rng.uniform(-1.0, 1.0))
            s2, _, done = env.step(a)
            states.append(s)
            actions.append([a])
            next_states.append(s2)
            s = s2
            if done:
                break
    return (np.asarray(states), np.asarray(actions), np.asarray(next_states))


def _stage_cost(state: np.ndarray, action: float) -> float:
    """Quadratic balancing cost on [x, x_dot, theta, theta_dot]."""
    x, xd, th, thd = state
    return float(th ** 2 + 0.1 * x ** 2 + 0.01 * xd ** 2
                 + 0.01 * thd ** 2 + 0.01 * action ** 2)


def mpc_action(model: DynamicsModel, state: np.ndarray,
               rng: np.random.Generator, n_samples: int = MPC_SAMPLES,
               horizon: int = MPC_HORIZON, action_limit: float = 1.0) -> float:
    """Random-shooting MPC: best first action over sampled sequences."""
    best_cost, best_action = np.inf, 0.0
    for _ in range(n_samples):
        seq = rng.uniform(-action_limit, action_limit, size=horizon)
        model.reset_context()
        s = state.copy()
        cost = 0.0
        for a in seq:
            s = model.predict(s, np.array([a]))[0]
            cost += _stage_cost(s, a)
        if cost < best_cost:
            best_cost, best_action = cost, float(seq[0])
    model.reset_context()
    return best_action


def make_controller(model: DynamicsModel,
                    rng: Optional[np.random.Generator] = None) -> Controller:
    """Controller appropriate to the family: LQR if linear, MPC otherwise."""
    rng = rng if rng is not None else np.random.default_rng(0)
    state_q = np.diag([0.5, 0.05, 4.0, 0.2])
    if isinstance(model, DenseKoopmanDynamics):
        q = state_q if model.state_dim == 4 else np.eye(model.state_dim)
        lqr = LQRController(model.a, model.b, q=q, horizon=40)
        return lambda s: float(lqr.act(s)[0])
    if isinstance(model, SpectralKoopmanDynamics):
        q = state_q if model.state_dim == 4 else np.eye(model.state_dim)
        lqr = model.lqr(horizon=40, q_state=q)
        lqr.set_goal(model.latent_goal(np.zeros(model.state_dim)))
        return lambda s: float(lqr.act(model.encode(s)[0])[0])
    return lambda s: mpc_action(model, s, rng)


def rollout_controller(controller: Controller, disturbance_p: float = 0.0,
                       steps: int = 150, seed: int = 0,
                       a_min: float = 2.0, a_max: float = 8.0
                       ) -> Tuple[np.ndarray, np.ndarray, float]:
    """One fully seeded closed-loop episode; returns its whole trajectory.

    Unlike :func:`evaluate_controller` (which averages episode rewards),
    this exposes the *states and actions* of a single rollout — the
    deterministic trace the golden-trace verification harness
    (:mod:`repro.testkit`) records and diffs bit-for-bit.
    """
    env = CartPole(
        disturbance=DisturbanceProcess(p=disturbance_p, a_min=a_min,
                                       a_max=a_max),
        rng=np.random.default_rng(seed))
    s = env.reset(noise_scale=0.05)
    states, actions = [s.copy()], []
    reward = 0.0
    for _ in range(steps):
        a = float(controller(s))
        s, r, done = env.step(a)
        states.append(s.copy())
        actions.append(a)
        reward += r
        if done:
            break
    return np.asarray(states), np.asarray(actions), reward


def evaluate_controller(controller: Controller, disturbance_p: float,
                        n_episodes: int = 8, steps: int = 150,
                        seed: int = 0,
                        a_min: float = 2.0, a_max: float = 8.0) -> float:
    """Mean episode reward under F ~ U(a_min, a_max) w.p. p (Fig. 5b)."""
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(n_episodes):
        env = CartPole(
            disturbance=DisturbanceProcess(p=disturbance_p, a_min=a_min,
                                           a_max=a_max),
            rng=np.random.default_rng(rng.integers(2 ** 31)))
        s = env.reset(noise_scale=0.05)
        ep = 0.0
        for _ in range(steps):
            a = controller(s)
            s, r, done = env.step(a)
            ep += r
            if done:
                break
        total += ep
    return total / n_episodes


# Fig. 5b's evaluation grid, shared by every caller of the protocol.
DISTURBANCE_PS = (0.0, 0.1, 0.25)
EVAL_STEPS = 150
DISTURBANCE_FORCE_N = (5.0, 20.0)


def run_disturbance_experiment(fit_epochs: Mapping[str, int],
                               n_train_episodes: int, eval_episodes: int,
                               seed: int = 0) -> Dict[str, Dict[float, float]]:
    """The Fig. 5b protocol: family -> {p: mean episode reward}.

    Each family in ``fit_epochs`` (in its order) is fit for its epoch
    count on the same transitions from ``n_train_episodes`` episodes,
    given the controller :func:`make_controller` picks, and scored over
    ``eval_episodes`` episodes of ``EVAL_STEPS`` steps at each
    probability in ``DISTURBANCE_PS``, pushed by forces drawn from
    ``DISTURBANCE_FORCE_N``.  Seeds: transitions ``seed``, models
    ``seed + 1``, fits ``seed + 2``, controllers ``seed + 3`` and
    evaluation ``seed + 4``.
    """
    transitions = collect_transitions(n_episodes=n_train_episodes,
                                      rng=np.random.default_rng(seed))
    a_min, a_max = DISTURBANCE_FORCE_N
    results: Dict[str, Dict[float, float]] = {}
    for name, epochs in fit_epochs.items():
        model = build_model(name, state_dim=4, action_dim=1,
                            rng=np.random.default_rng(seed + 1))
        fit_dynamics_model(model, transitions, epochs=epochs,
                           rng=np.random.default_rng(seed + 2))
        controller = make_controller(model, np.random.default_rng(seed + 3))
        results[name] = {
            p: evaluate_controller(controller, p, n_episodes=eval_episodes,
                                   steps=EVAL_STEPS, seed=seed + 4,
                                   a_min=a_min, a_max=a_max)
            for p in DISTURBANCE_PS
        }
    return results


@dataclass
class RoboKoopAgent:
    """Visual RoboKoop: contrastive Koopman encoder + latent LQR."""

    encoder: ContrastiveKoopmanEncoder
    controller: Optional[LQRController] = None

    @staticmethod
    def train(image_size: int = 24, n_pairs: int = 8,
              n_episodes: int = 15, epochs: int = 6,
              seed: int = 0) -> "RoboKoopAgent":
        """Collect visual transitions and train the encoder + operator."""
        rng = np.random.default_rng(seed)
        states, actions, next_states = collect_transitions(
            n_episodes=n_episodes, rng=rng)
        encoder = ContrastiveKoopmanEncoder(image_size, n_pairs,
                                            rng=np.random.default_rng(seed + 1))
        encoder.train(states, actions, next_states, epochs=epochs)
        agent = RoboKoopAgent(encoder=encoder)
        agent.build_controller()
        return agent

    def build_controller(self, horizon: int = 40) -> None:
        """LQR in Koopman space toward the encoded upright goal."""
        op = self.encoder.operator
        self.controller = LQRController(op.dynamics_matrix(), op.b.data,
                                        horizon=horizon)
        goal_latent = self.encoder.encode_state(np.zeros(4))
        self.controller.set_goal(goal_latent)

    def act(self, state: np.ndarray) -> float:
        """Encode the rendered observation, run latent LQR."""
        if self.controller is None:
            raise RuntimeError("call build_controller() first")
        z = self.encoder.encode_state(state)
        return float(self.controller.act(z)[0])

    def evaluate(self, disturbance_p: float = 0.0, n_episodes: int = 5,
                 steps: int = 100, seed: int = 0) -> float:
        return evaluate_controller(self.act, disturbance_p,
                                   n_episodes=n_episodes, steps=steps,
                                   seed=seed)
