"""Additional coverage: Koopman agents, RoboKoop internals, Norm2d,
detection pipeline grid handling, and disturbance harness."""

import numpy as np
import pytest

from gradcheck import check_layer_gradients
from repro.koopman import RoboKoopAgent, build_model, run_disturbance_experiment
from repro.koopman.agent import _stage_cost
from repro.koopman.encoder import ContrastiveKoopmanEncoder
from repro.nn import Norm2d
from repro.sim import CartPole


# ------------------------------------------------------------ Norm2d
def test_norm2d_normalizes_channels():
    # Each (sample, channel) map is normalized over its own positions,
    # by the training and the batched forward alike.
    norm = Norm2d(3)
    rng = np.random.default_rng(0)
    x = rng.normal(3.0, 2.0, size=(2, 3, 4, 4)) * np.arange(1, 3)[:, None,
                                                                None, None]
    for y in (norm.forward(x), norm.forward_batch(x)):
        np.testing.assert_allclose(y.mean(axis=(2, 3)), 0.0, atol=1e-9)
        np.testing.assert_allclose(y.std(axis=(2, 3)), 1.0, atol=1e-2)


def test_norm2d_gradients_numeric():
    # Input, gamma and beta gradients, for one map per channel and for a
    # batch of two, whose maps are normalized apart.
    rng = np.random.default_rng(1)
    for n in (1, 2):
        norm = Norm2d(2)
        norm.gamma.data[:] = rng.normal(size=2)
        check_layer_gradients(norm, rng.normal(size=(n, 2, 3, 3)),
                              rtol=1e-3)


# ------------------------------------------------------------ stage cost
def test_stage_cost_zero_at_upright():
    assert _stage_cost(np.zeros(4), 0.0) == 0.0


def test_stage_cost_penalizes_angle_most():
    angle = _stage_cost(np.array([0, 0, 0.5, 0]), 0.0)
    offset = _stage_cost(np.array([0.5, 0, 0, 0]), 0.0)
    assert angle > offset


# ------------------------------------------------ disturbance experiment
def test_run_disturbance_experiment_smoke():
    result = run_disturbance_experiment(
        {"dense_koopman": 1}, n_train_episodes=6, eval_episodes=2)
    assert set(result) == {"dense_koopman"}
    assert set(result["dense_koopman"]) == {0.0, 0.1, 0.25}
    assert all(np.isfinite(v) for v in result["dense_koopman"].values())


# -------------------------------------------------------------- RoboKoop
def test_robokoop_requires_controller():
    encoder = ContrastiveKoopmanEncoder(image_size=12, n_pairs=2,
                                        rng=np.random.default_rng(2))
    agent = RoboKoopAgent(encoder=encoder)
    with pytest.raises(RuntimeError):
        agent.act(np.zeros(4))


def test_robokoop_act_returns_scalar_in_bounds():
    agent = RoboKoopAgent.train(image_size=12, n_pairs=2, n_episodes=3,
                                epochs=1, seed=3)
    a = agent.act(np.array([0.1, 0.0, 0.05, 0.0]))
    assert isinstance(a, float)
    assert -1.0 <= a <= 1.0


def test_robokoop_goal_is_upright_encoding():
    agent = RoboKoopAgent.train(image_size=12, n_pairs=2, n_episodes=3,
                                epochs=1, seed=4)
    goal = agent.encoder.encode_state(np.zeros(4))
    np.testing.assert_allclose(agent.controller.goal, goal)


def test_encoder_prediction_step_trains_operator():
    enc = ContrastiveKoopmanEncoder(image_size=12, n_pairs=2,
                                    rng=np.random.default_rng(5))
    states = np.random.default_rng(6).uniform(-0.2, 0.2, size=(8, 4))
    actions = np.random.default_rng(7).uniform(-1, 1, size=(8, 1))
    mu_before = enc.operator.mu_raw.data.copy()
    b_before = enc.operator.b.data.copy()
    for _ in range(5):
        enc.prediction_step(states, actions, states)
    assert (not np.allclose(mu_before, enc.operator.mu_raw.data)
            or not np.allclose(b_before, enc.operator.b.data))


# ----------------------------------------------------- mpc context safety
def test_mpc_models_reset_between_calls():
    """MPC rollouts must not leak recurrent state into the next call."""
    from repro.koopman import mpc_action
    model = build_model("recurrent", 4, 1, rng=np.random.default_rng(8))
    rng = np.random.default_rng(9)
    a1 = mpc_action(model, np.zeros(4), np.random.default_rng(10),
                    n_samples=4, horizon=3)
    assert model._h is None  # context cleared after planning
    a2 = mpc_action(model, np.zeros(4), np.random.default_rng(10),
                    n_samples=4, horizon=3)
    assert a1 == a2  # deterministic given the same sampling rng


def test_cartpole_energy_independent_models():
    """Distinct CartPole instances do not share disturbance RNG state."""
    e1 = CartPole(rng=np.random.default_rng(11))
    e2 = CartPole(rng=np.random.default_rng(11))
    e1.reset(), e2.reset()
    s1, _, _ = e1.step(0.5)
    s2, _, _ = e2.step(0.5)
    np.testing.assert_allclose(s1, s2)
