"""Tests for the Koopman subsystem: spectral operator, LQR, baselines,
contrastive encoder, and the Fig. 5 harness."""

import numpy as np
import pytest

from gradcheck import numeric_gradient
from repro.koopman import (
    MODEL_FAMILIES,
    ContrastiveKoopmanEncoder,
    DenseKoopmanDynamics,
    LQRController,
    RecurrentDynamics,
    SpectralKoopmanDynamics,
    SpectralKoopmanOperator,
    build_model,
    collect_transitions,
    evaluate_controller,
    finite_horizon_lqr,
    fit_dynamics_model,
    infinite_horizon_lqr,
    make_controller,
    mpc_action,
    riccati_recursion,
)
from repro.sim import CartPole


# ----------------------------------------------------------- spectral op
def test_spectral_operator_stability_enforced():
    op = SpectralKoopmanOperator(4, 1, enforce_stability=True,
                                 rng=np.random.default_rng(0))
    assert op.is_stable()
    assert np.all(op.mu() < 0)


def test_spectral_operator_dense_matches_fast_path():
    op = SpectralKoopmanOperator(3, 2, rng=np.random.default_rng(1))
    z = np.random.default_rng(2).normal(size=(4, 6))
    u = np.random.default_rng(3).normal(size=(4, 2))
    fast = op.advance(z, u)
    dense = z @ op.dynamics_matrix().T + u @ op.b.data.T
    np.testing.assert_allclose(fast, dense, atol=1e-12)


def test_spectral_operator_eigenvalues_match_matrix():
    op = SpectralKoopmanOperator(3, 1, rng=np.random.default_rng(4))
    from_matrix = np.sort_complex(np.linalg.eigvals(op.dynamics_matrix()))
    analytic = op.eigenvalues()
    expected = np.sort_complex(np.concatenate([analytic,
                                               np.conj(analytic)]))
    np.testing.assert_allclose(from_matrix, expected, atol=1e-10)


def test_spectral_operator_gradients_numeric():
    op = SpectralKoopmanOperator(2, 1, rng=np.random.default_rng(5))
    rng = np.random.default_rng(6)
    zu = rng.normal(size=(3, 5))
    w = rng.normal(size=(3, 4))

    def loss():
        return float(np.sum(w * op.forward(zu)))

    op.zero_grad()
    op.forward(zu)
    dzu = op.backward(w)
    np.testing.assert_allclose(dzu, numeric_gradient(loss, zu),
                               rtol=1e-5, atol=1e-8)
    for p in op.parameters():
        np.testing.assert_allclose(p.grad, numeric_gradient(loss, p.data),
                                   rtol=1e-4, atol=1e-7,
                                   err_msg=p.name)


def test_spectral_operator_mac_counts():
    op = SpectralKoopmanOperator(8, 1)
    assert op.prediction_macs() == 4 * 8 + 16 * 1


# ------------------------------------------------------------------- LQR
def _double_integrator():
    a = np.array([[1.0, 0.1], [0.0, 1.0]])
    b = np.array([[0.0], [0.1]])
    return a, b


def test_riccati_gains_count():
    a, b = _double_integrator()
    gains, costs = riccati_recursion(a, b, np.eye(2), np.eye(1), horizon=5)
    assert len(gains) == 5
    assert len(costs) == 6


def test_lqr_stabilizes_double_integrator():
    a, b = _double_integrator()
    k = infinite_horizon_lqr(a, b, np.eye(2), 0.1 * np.eye(1))
    closed = a - b @ k
    assert np.max(np.abs(np.linalg.eigvals(closed))) < 1.0


def test_finite_horizon_converges_to_infinite():
    a, b = _double_integrator()
    k_fin = finite_horizon_lqr(a, b, np.eye(2), 0.1 * np.eye(1), horizon=300)
    k_inf = infinite_horizon_lqr(a, b, np.eye(2), 0.1 * np.eye(1))
    np.testing.assert_allclose(k_fin, k_inf, atol=1e-6)


def test_lqr_controller_regulates_to_goal():
    a, b = _double_integrator()
    ctrl = LQRController(a, b, horizon=50, action_limit=5.0)
    ctrl.set_goal(np.array([1.0, 0.0]))
    x = np.array([0.0, 0.0])
    for _ in range(300):
        x = a @ x + b[:, 0] * ctrl.act(x)
    np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-2)


def test_lqr_controller_clips_actions():
    a, b = _double_integrator()
    ctrl = LQRController(a, b, action_limit=0.5)
    u = ctrl.act(np.array([100.0, 100.0]))
    assert np.all(np.abs(u) <= 0.5)


def test_lqr_stabilizes_true_cartpole():
    env = CartPole(rng=np.random.default_rng(7))
    a, b = env.linearized_dynamics()
    ctrl = LQRController(a, b, q=np.diag([0.5, 0.05, 4.0, 0.2]), horizon=50)
    s = env.reset(noise_scale=0.05)
    total = 0.0
    for _ in range(200):
        s, r, done = env.step(float(ctrl.act(s)[0]))
        total += r
        if done:
            break
    assert total > 190  # balanced essentially the whole episode


# -------------------------------------------------------------- baselines
def test_model_registry():
    assert set(MODEL_FAMILIES) == {"mlp", "dense_koopman", "recurrent",
                                   "spectral_koopman"}
    with pytest.raises(KeyError):
        build_model("lstm", 4, 1)


@pytest.mark.parametrize("name", sorted(MODEL_FAMILIES))
def test_models_fit_linear_system(name):
    """Every family must reduce prediction error on a simple system."""
    rng = np.random.default_rng(8)
    a, b = _double_integrator()
    n = 200
    z = rng.normal(size=(n, 2))
    u = rng.normal(size=(n, 1))
    z_next = z @ a.T + u @ b.T
    if name == "spectral_koopman":
        model = SpectralKoopmanDynamics(2, 1, n_pairs=2, rng=rng)
    else:
        model = build_model(name, 2, 1, rng=rng)
    losses = fit_dynamics_model(model, (z, u, z_next), epochs=25,
                                rng=np.random.default_rng(9))
    pred = model.predict(z[:10], u[:10])
    err = float(np.mean((pred - z_next[:10]) ** 2))
    assert err < 0.5


def test_mac_ordering_matches_fig5a():
    """Spectral Koopman cheapest; transformer most expensive."""
    from repro.koopman import fig5a_macs
    macs = {name: entry["total"] for name, entry in fig5a_macs(16, 1).items()}
    assert set(macs) == set(MODEL_FAMILIES) | {"transformer"}
    assert macs["spectral_koopman"] < macs["dense_koopman"]
    assert macs["dense_koopman"] < macs["mlp"]
    assert macs["mlp"] < macs["transformer"]
    assert macs["recurrent"] < macs["transformer"]


def test_fig5a_macs_validation():
    from repro.koopman import fig5a_macs
    with pytest.raises(ValueError):
        fig5a_macs(latent_dim=7)


def test_dense_koopman_recovers_operator():
    rng = np.random.default_rng(10)
    a, b = _double_integrator()
    z = rng.normal(size=(100, 2))
    u = rng.normal(size=(100, 1))
    model = DenseKoopmanDynamics(2, 1)
    model.train_batch(z, u, z @ a.T + u @ b.T)
    np.testing.assert_allclose(model.a, a, atol=1e-3)
    np.testing.assert_allclose(model.b, b, atol=1e-3)


def test_recurrent_reset_context():
    model = RecurrentDynamics(2, 1, rng=np.random.default_rng(12))
    model.predict(np.zeros((1, 2)), np.zeros((1, 1)))
    assert model._h is not None
    model.reset_context()
    assert model._h is None


def test_spectral_dynamics_odd_latent_ok_via_pairs():
    model = SpectralKoopmanDynamics(3, 1, n_pairs=4)
    assert model.latent_dim == 8
    out = model.predict(np.zeros(3), np.zeros(1))
    assert out.shape == (1, 3)


# ------------------------------------------------------------- controllers
def test_collect_transitions_shapes():
    s, u, s2 = collect_transitions(n_episodes=3, steps=20,
                                   rng=np.random.default_rng(13))
    assert s.shape == s2.shape
    assert u.shape == (s.shape[0], 1)
    assert s.shape[1] == 4


def test_mpc_action_within_limits():
    model = build_model("mlp", 4, 1, rng=np.random.default_rng(14))
    a = mpc_action(model, np.zeros(4), np.random.default_rng(15),
                   n_samples=8, horizon=4)
    assert -1.0 <= a <= 1.0


def test_dense_koopman_controller_balances():
    rng = np.random.default_rng(16)
    transitions = collect_transitions(n_episodes=10, rng=rng)
    model = build_model("dense_koopman", 4, 1)
    fit_dynamics_model(model, transitions, epochs=1)
    controller = make_controller(model)
    reward = evaluate_controller(controller, 0.0, n_episodes=3, steps=100,
                                 seed=17)
    assert reward > 80


def test_evaluate_controller_disturbance_reduces_reward():
    """A weak controller must suffer under strong disturbances."""
    def weak(s):
        return 0.0

    calm = evaluate_controller(weak, 0.0, n_episodes=5, steps=100, seed=18)
    stormy = evaluate_controller(weak, 0.8, n_episodes=5, steps=100,
                                 seed=18, a_min=10, a_max=20)
    assert stormy <= calm


# ----------------------------------------------------- contrastive encoder
def test_encoder_shapes_and_training():
    enc = ContrastiveKoopmanEncoder(image_size=16, n_pairs=4,
                                    rng=np.random.default_rng(19))
    states = np.random.default_rng(20).uniform(-0.1, 0.1, size=(12, 4))
    actions = np.random.default_rng(21).uniform(-1, 1, size=(12, 1))
    z = enc.encode_state(states[0])
    assert z.shape == (8,)
    con, pred = enc.train(states, actions, states, epochs=2, batch_size=6)
    assert len(con) == 2 and len(pred) == 2
    assert np.isfinite(con).all() and np.isfinite(pred).all()


def test_encoder_contrastive_loss_decreases():
    enc = ContrastiveKoopmanEncoder(image_size=16, n_pairs=4,
                                    rng=np.random.default_rng(22))
    rng = np.random.default_rng(23)
    # Well-separated states so positives are distinguishable.
    states = np.stack([np.array([x, 0, th, 0])
                       for x in (-1.5, 0.0, 1.5) for th in (-0.3, 0.0, 0.3)])
    first = enc.contrastive_step(states)
    for _ in range(30):
        last = enc.contrastive_step(states)
    assert last < first


def test_encoder_key_momentum_update():
    enc = ContrastiveKoopmanEncoder(image_size=16, n_pairs=2, momentum=0.5,
                                    rng=np.random.default_rng(24))
    q0 = enc.query.parameters()[0].data.copy()
    k0 = enc.key.parameters()[0].data.copy()
    np.testing.assert_allclose(q0, k0)  # hard-synced at init
    enc.query.parameters()[0].data += 1.0
    enc._sync_key()
    k1 = enc.key.parameters()[0].data
    np.testing.assert_allclose(k1, 0.5 * k0 + 0.5 * (q0 + 1.0))
