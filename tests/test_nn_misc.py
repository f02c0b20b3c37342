"""Tests for tensor init, counting, quantization, VAE, and sparse 3-D conv."""

import numpy as np
import pytest

from repro.nn import (
    VAE,
    Conv2d,
    GRUCell,
    Parameter,
    PrecisionConfig,
    ReLU,
    Sequential,
    SparseConv3d,
    SparseGlobalPool,
    SparseReLU,
    SparseSequential,
    SparseVoxelTensor,
    count_conv2d,
    count_dense,
    count_macs,
    count_module,
    glorot_uniform,
    he_normal,
    mlp,
    quantization_noise_power,
    quantize,
    train_vae,
)
from repro.starnet import per_sample_elbo

RNG = np.random.default_rng(17)


# --------------------------------------------------------------- tensor init
def test_parameter_zero_grad():
    p = Parameter(np.ones((2, 2)))
    p.grad += 5.0
    p.zero_grad()
    np.testing.assert_array_equal(p.grad, 0.0)


def test_glorot_uniform_bounds():
    w = glorot_uniform(np.random.default_rng(0), 100, 100)
    limit = np.sqrt(6.0 / 200)
    assert np.all(np.abs(w) <= limit)


def test_he_normal_std():
    w = he_normal(np.random.default_rng(0), 1000, (1000, 50))
    assert abs(w.std() - np.sqrt(2 / 1000)) < 0.005


# ------------------------------------------------------------------ counting
def test_count_dense_formula():
    assert count_dense(10, 5) == 55


def test_count_conv2d_formula():
    assert count_conv2d(2, 4, 3, 8, 8) == 2 * 4 * 9 * 64


def test_count_module_mlp():
    net = mlp([10, 20, 5])
    count = count_module(net, (10,))
    assert count.macs == count_dense(10, 20) + count_dense(20, 5)
    assert count.flops == 2 * count.macs
    assert count.params == net.num_parameters()


def test_count_module_conv_stack():
    net = Sequential(Conv2d(1, 4, kernel=3, stride=1, pad=1), ReLU(),
                     Conv2d(4, 2, kernel=3, stride=2, pad=1))
    count = count_module(net, (1, 8, 8))
    assert count.macs == (count_conv2d(1, 4, 3, 8, 8)
                          + count_conv2d(4, 2, 3, 4, 4))


def test_count_macs_gru():
    cell = GRUCell(4, 8)
    macs = count_macs(cell, (4,))
    assert macs == 3 * 12 * 8 + 3 * 8


# ---------------------------------------------------------------- quantize
def test_quantize_identity_at_32bit():
    x = RNG.normal(size=(10,))
    np.testing.assert_array_equal(quantize(x, 32), x)


def test_quantize_idempotent():
    x = RNG.normal(size=(100,))
    q = quantize(x, 8)
    np.testing.assert_allclose(quantize(q, 8), q, atol=1e-12)


def test_quantize_error_decreases_with_bits():
    x = RNG.normal(size=(500,))
    errs = [quantization_noise_power(x, b) for b in (2, 4, 8, 16)]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < errs[0]


def test_quantize_preserves_zero_tensor():
    z = np.zeros(5)
    np.testing.assert_array_equal(quantize(z, 4), z)


def test_quantize_rejects_bad_bits():
    with pytest.raises(ValueError):
        quantize(np.ones(3), 7)


def test_precision_config_validation():
    with pytest.raises(ValueError):
        PrecisionConfig(weight_bits=5)
    cfg = PrecisionConfig(8, 4, 16)
    assert cfg.mac_bits == 8
    assert cfg.mean_bits() == pytest.approx((8 + 4 + 16) / 3)


def test_precision_config_uniform():
    cfg = PrecisionConfig.uniform(8)
    assert (cfg.weight_bits, cfg.activation_bits, cfg.gradient_bits) == (8, 8, 8)


# --------------------------------------------------------------------- VAE
def test_vae_shapes():
    vae = VAE(input_dim=10, latent_dim=3, rng=np.random.default_rng(1))
    x = RNG.normal(size=(6, 10))
    mu, logvar = vae.encode(x)
    assert mu.shape == (6, 3) and logvar.shape == (6, 3)
    assert vae.decode(mu).shape == (6, 10)


def test_vae_training_reduces_loss():
    rng = np.random.default_rng(2)
    # Data on a 2-D manifold in 8-D space.
    z = rng.normal(size=(200, 2))
    proj = rng.normal(size=(2, 8))
    data = z @ proj + 0.05 * rng.normal(size=(200, 8))
    vae = VAE(input_dim=8, latent_dim=2, rng=rng)
    losses = train_vae(vae, data, epochs=25, rng=rng)
    assert losses[-1] < losses[0] * 0.5


def test_vae_elbo_higher_for_indistribution():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(200, 6)) * 0.5
    vae = VAE(input_dim=6, latent_dim=2, rng=rng)
    train_vae(vae, data, epochs=25, rng=rng)

    def mean_elbo(rows):
        # The bound the monitor's regret scoring evaluates, row by row.
        mu, logvar = vae.encode(rows)
        return np.mean([per_sample_elbo(vae, x, m, lv)
                        for x, m, lv in zip(rows, mu, logvar)])

    assert mean_elbo(data[:20]) > mean_elbo(data[:20] + 8.0)


# ------------------------------------------------------------- sparse conv
def _toy_sparse(channels=2):
    coords = [(1, 1, 1), (1, 2, 1), (3, 3, 0)]
    return SparseVoxelTensor.from_coords(coords, channels, (5, 5, 2))


def test_sparse_tensor_dense_roundtrip():
    t = _toy_sparse()
    dense = t.dense()
    assert dense.shape == (2, 5, 5, 2)
    assert dense.sum() == t.num_active * t.channels


def test_sparse_conv_preserves_active_set():
    t = _toy_sparse()
    conv = SparseConv3d(2, 4, kernel=3, rng=np.random.default_rng(4))
    out = conv.forward(t)
    assert set(out.coords()) == set(t.coords())
    assert out.channels == 4


def test_sparse_conv_neighbors_contribute():
    """A neighbour within the kernel changes the output at a site."""
    conv = SparseConv3d(1, 1, kernel=3, rng=np.random.default_rng(5))
    solo = SparseVoxelTensor.from_coords([(2, 2, 1)], 1, (5, 5, 3))
    pair = SparseVoxelTensor.from_coords([(2, 2, 1), (2, 3, 1)], 1, (5, 5, 3))
    out_solo = conv.forward(solo).features[(2, 2, 1)]
    out_pair = conv.forward(pair).features[(2, 2, 1)]
    assert not np.allclose(out_solo, out_pair)


def test_sparse_conv_backward_accumulates():
    t = _toy_sparse()
    conv = SparseConv3d(2, 3, kernel=3, rng=np.random.default_rng(6))
    out = conv.forward(t)
    grad = {c: np.ones(3) for c in out.coords()}
    din = conv.backward(grad)
    assert set(din.keys()) == set(t.coords())
    assert float(np.abs(conv.weight.grad).sum()) > 0
    assert float(np.abs(conv.bias.grad).sum()) > 0


def test_sparse_relu_masks_negative():
    t = _toy_sparse()
    for c in t.features:
        t.features[c] = np.array([-1.0, 2.0])
    out = SparseReLU().forward(t)
    for c in out.features:
        np.testing.assert_array_equal(out.features[c], [0.0, 2.0])


def test_sparse_global_pool_mean_and_backward():
    t = _toy_sparse()
    pool = SparseGlobalPool()
    pooled = pool.forward(t)
    np.testing.assert_allclose(pooled, 1.0)
    grads = pool.backward(np.array([3.0, 3.0]))
    for g in grads.values():
        np.testing.assert_allclose(g, 1.0)


def test_sparse_sequential_pipeline():
    t = _toy_sparse()
    net = SparseSequential(
        SparseConv3d(2, 4, rng=np.random.default_rng(7)),
        SparseReLU(),
        SparseGlobalPool(),
    )
    out = net.forward(t)
    assert out.shape == (4,)
    grads = net.backward(np.ones(4))
    assert set(grads.keys()) == set(t.coords())


def test_sparse_conv_even_kernel_rejected():
    with pytest.raises(ValueError):
        SparseConv3d(1, 1, kernel=2)
