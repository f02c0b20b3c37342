"""Unit tests for optimizers: SGD, Adam, SPSA."""

import numpy as np
import pytest

from repro.nn import SGD, SPSA, Adam, Parameter, mlp, mse_loss

RNG = np.random.default_rng(13)


def _quadratic_problem():
    """A parameter pulled toward a fixed target by MSE."""
    target = np.array([1.0, -2.0, 3.0])
    p = Parameter(np.zeros(3), name="theta")

    def step_loss() -> float:
        loss, grad = mse_loss(p.data, target)
        p.zero_grad()
        p.grad += grad
        return loss

    return p, target, step_loss


def test_sgd_descends():
    p, target, step_loss = _quadratic_problem()
    opt = SGD([p], lr=0.5)
    first = step_loss()
    for _ in range(200):
        step_loss()
        opt.step()
    assert mse_loss(p.data, target)[0] < first * 1e-4


def test_sgd_skips_frozen():
    p = Parameter(np.ones(2), trainable=False)
    p.grad += 1.0
    SGD([p], lr=1.0).step()
    np.testing.assert_array_equal(p.data, 1.0)


def test_adam_converges():
    p, target, step_loss = _quadratic_problem()
    opt = Adam([p], lr=0.1)
    for _ in range(400):
        step_loss()
        opt.step()
    np.testing.assert_allclose(p.data, target, atol=1e-3)


def test_adam_trains_mlp():
    net = mlp([2, 16, 1], rng=np.random.default_rng(1))
    opt = Adam(net.parameters(), lr=1e-2)
    x = RNG.normal(size=(64, 2))
    y = (x[:, :1] * x[:, 1:]).copy()  # multiplicative target
    first = None
    for _ in range(200):
        pred = net.forward(x)
        loss, grad = mse_loss(pred, y)
        if first is None:
            first = loss
        opt.zero_grad()
        net.backward(grad)
        opt.step()
    assert loss < first * 0.2


def test_spsa_minimizes_quadratic():
    spsa = SPSA(a=0.5, c=0.1, rng=np.random.default_rng(2))
    target = np.array([2.0, -1.0, 0.5])
    best, f_best, history = spsa.minimize(
        lambda t: float(np.sum((t - target) ** 2)),
        np.zeros(3), steps=200)
    assert f_best < 0.05
    assert history[0] > f_best


def test_spsa_normalized_gradient_scale_invariance():
    """Normalized SPSA makes identical progress on scaled objectives."""
    target = np.ones(4) * 3

    def run(scale):
        spsa = SPSA(a=0.5, c=0.1, normalize_gradient=True,
                    rng=np.random.default_rng(3))
        _, f_best, _ = spsa.minimize(
            lambda t: scale * float(np.sum((t - target) ** 2)),
            np.zeros(4), steps=150)
        return f_best / scale

    assert run(1.0) == pytest.approx(run(1e6), rel=1e-6)
