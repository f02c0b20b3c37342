"""Unit tests for loss functions: values and gradients."""

import numpy as np
import pytest

from gradcheck import numeric_gradient
from repro.nn import (
    bce_with_logits,
    cross_entropy_with_logits,
    gaussian_kl,
    info_nce,
    mse_loss,
    softmax,
)

RNG = np.random.default_rng(11)


def test_mse_zero_at_match():
    x = RNG.normal(size=(4, 3))
    loss, grad = mse_loss(x, x.copy())
    assert loss == 0.0
    np.testing.assert_array_equal(grad, 0.0)


def test_mse_gradient_numeric():
    pred = RNG.normal(size=(3, 4))
    target = RNG.normal(size=(3, 4))
    _, grad = mse_loss(pred, target)
    num = numeric_gradient(lambda: mse_loss(pred, target)[0], pred)
    np.testing.assert_allclose(grad, num, rtol=1e-5, atol=1e-8)


def test_bce_with_logits_matches_manual():
    logits = np.array([0.0, 2.0, -2.0])
    target = np.array([1.0, 1.0, 0.0])
    loss, _ = bce_with_logits(logits, target)
    p = 1 / (1 + np.exp(-logits))
    manual = -np.mean(target * np.log(p) + (1 - target) * np.log(1 - p))
    assert loss == pytest.approx(manual, rel=1e-9)


def test_bce_gradient_numeric():
    logits = RNG.normal(size=(6,))
    target = (RNG.random(6) > 0.5).astype(float)
    _, grad = bce_with_logits(logits, target)
    num = numeric_gradient(lambda: bce_with_logits(logits, target)[0], logits)
    np.testing.assert_allclose(grad, num, rtol=1e-5, atol=1e-8)


def test_bce_weighting_scales_loss():
    logits = np.array([1.0, -1.0])
    target = np.array([1.0, 0.0])
    base, _ = bce_with_logits(logits, target)
    weighted, _ = bce_with_logits(logits, target, weight=np.array([2.0, 2.0]))
    assert weighted == pytest.approx(2 * base)


def test_bce_extreme_logits_finite():
    loss, grad = bce_with_logits(np.array([1000.0, -1000.0]),
                                 np.array([0.0, 1.0]))
    assert np.isfinite(loss) and np.all(np.isfinite(grad))


def test_softmax_rows_sum_to_one():
    p = softmax(RNG.normal(size=(5, 7)) * 30)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(p >= 0)


def test_cross_entropy_perfect_prediction():
    logits = np.array([[100.0, 0.0], [0.0, 100.0]])
    loss, _ = cross_entropy_with_logits(logits, np.array([0, 1]))
    assert loss == pytest.approx(0.0, abs=1e-9)


def test_cross_entropy_gradient_numeric():
    logits = RNG.normal(size=(4, 3))
    labels = np.array([0, 2, 1, 1])
    _, grad = cross_entropy_with_logits(logits, labels)
    num = numeric_gradient(
        lambda: cross_entropy_with_logits(logits, labels)[0], logits)
    np.testing.assert_allclose(grad, num, rtol=1e-5, atol=1e-8)


def test_info_nce_aligned_pairs_have_low_loss():
    z = np.eye(4) * 10
    aligned, _, _ = info_nce(z, z)
    shuffled, _, _ = info_nce(z, np.roll(z, 1, axis=0))
    assert aligned < shuffled


def test_info_nce_gradients_numeric():
    q = RNG.normal(size=(4, 3))
    k = RNG.normal(size=(4, 3))
    _, gq, gk = info_nce(q, k, temperature=0.5)
    num_q = numeric_gradient(lambda: info_nce(q, k, temperature=0.5)[0], q)
    num_k = numeric_gradient(lambda: info_nce(q, k, temperature=0.5)[0], k)
    np.testing.assert_allclose(gq, num_q, rtol=1e-4, atol=1e-7)
    np.testing.assert_allclose(gk, num_k, rtol=1e-4, atol=1e-7)


def test_gaussian_kl_zero_at_standard_normal():
    mu = np.zeros((3, 4))
    logvar = np.zeros((3, 4))
    kl, gmu, glv = gaussian_kl(mu, logvar)
    assert kl == pytest.approx(0.0)
    np.testing.assert_array_equal(gmu, 0.0)
    np.testing.assert_array_equal(glv, 0.0)


def test_gaussian_kl_positive_otherwise():
    kl, _, _ = gaussian_kl(np.ones((2, 3)), np.ones((2, 3)) * 0.5)
    assert kl > 0


def test_gaussian_kl_gradients_numeric():
    mu = RNG.normal(size=(2, 3))
    logvar = RNG.normal(size=(2, 3)) * 0.3
    _, gmu, glv = gaussian_kl(mu, logvar)
    num_mu = numeric_gradient(lambda: gaussian_kl(mu, logvar)[0], mu)
    num_lv = numeric_gradient(lambda: gaussian_kl(mu, logvar)[0], logvar)
    np.testing.assert_allclose(gmu, num_mu, rtol=1e-5, atol=1e-8)
    np.testing.assert_allclose(glv, num_lv, rtol=1e-5, atol=1e-8)
