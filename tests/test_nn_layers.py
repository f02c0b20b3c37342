"""Gradient-checked unit tests for every layer in repro.nn.layers."""

import numpy as np
import pytest

from gradcheck import check_layer_gradients
from repro.nn import (
    BatchNorm,
    Conv2d,
    ConvTranspose2d,
    Dense,
    Flatten,
    GRUCell,
    MaxPool2d,
    ReLU,
    Sequential,
    mlp,
)

RNG = np.random.default_rng(7)


def test_dense_forward_shape():
    layer = Dense(5, 3, rng=np.random.default_rng(0))
    y = layer.forward(RNG.normal(size=(4, 5)))
    assert y.shape == (4, 3)


def test_dense_gradients():
    layer = Dense(4, 3, rng=np.random.default_rng(1))
    check_layer_gradients(layer, RNG.normal(size=(5, 4)))


def test_dense_3d_input():
    layer = Dense(4, 3, rng=np.random.default_rng(1))
    y = layer.forward(RNG.normal(size=(2, 5, 4)))
    assert y.shape == (2, 5, 3)


@pytest.mark.parametrize("cls", [ReLU])
def test_simple_activations_gradients(cls):
    layer = cls()
    # Offset away from the ReLU kink to keep numeric gradients exact.
    x = RNG.normal(size=(3, 6)) + 0.05
    x[np.abs(x) < 0.02] = 0.1
    check_layer_gradients(layer, x)


def test_batchnorm_train_statistics():
    layer = BatchNorm(4)
    x = RNG.normal(size=(64, 4)) * 3 + 1
    y = layer.forward(x)
    np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(y.std(axis=0), 1.0, atol=1e-2)


def test_batchnorm_eval_uses_running_stats():
    layer = BatchNorm(4, momentum=1.0)
    x = RNG.normal(size=(64, 4)) * 2 + 5
    layer.forward(x)
    layer.training = False
    y = layer.forward(x)
    np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=0.1)


def test_batchnorm_gradients():
    layer = BatchNorm(3)
    check_layer_gradients(layer, RNG.normal(size=(6, 3)), rtol=1e-3)


def test_flatten_roundtrip():
    layer = Flatten()
    x = RNG.normal(size=(2, 3, 4, 5))
    y = layer.forward(x)
    assert y.shape == (2, 60)
    assert layer.backward(y).shape == x.shape


def test_conv2d_output_shape():
    conv = Conv2d(2, 4, kernel=3, stride=1, pad=1, rng=np.random.default_rng(3))
    y = conv.forward(RNG.normal(size=(2, 2, 8, 8)))
    assert y.shape == (2, 4, 8, 8)


def test_conv2d_stride2_shape():
    conv = Conv2d(2, 4, kernel=3, stride=2, pad=1, rng=np.random.default_rng(3))
    y = conv.forward(RNG.normal(size=(1, 2, 8, 8)))
    assert y.shape == (1, 4, 4, 4)


def test_conv2d_gradients():
    conv = Conv2d(2, 3, kernel=3, stride=1, pad=1, rng=np.random.default_rng(3))
    check_layer_gradients(conv, RNG.normal(size=(2, 2, 5, 5)), rtol=1e-3)


def test_conv2d_matches_manual_single_pixel():
    conv = Conv2d(1, 1, kernel=3, stride=1, pad=1,
                  rng=np.random.default_rng(4))  # bias starts at zero
    x = np.zeros((1, 1, 5, 5))
    x[0, 0, 2, 2] = 1.0
    y = conv.forward(x)
    # Cross-correlation convention: the impulse response around the
    # impulse equals the spatially flipped kernel.
    k = conv.weight.data[0, 0]
    np.testing.assert_allclose(y[0, 0, 1:4, 1:4], k[::-1, ::-1],
                               atol=1e-12)


def test_conv_transpose_upsamples():
    deconv = ConvTranspose2d(3, 2, kernel=4, stride=2, pad=1,
                             rng=np.random.default_rng(5))
    y = deconv.forward(RNG.normal(size=(1, 3, 4, 4)))
    assert y.shape == (1, 2, 8, 8)


def test_conv_transpose_gradients():
    deconv = ConvTranspose2d(2, 2, kernel=4, stride=2, pad=1,
                             rng=np.random.default_rng(5))
    check_layer_gradients(deconv, RNG.normal(size=(1, 2, 3, 3)), rtol=1e-3)


def test_maxpool_values():
    pool = MaxPool2d(2)
    x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
    y = pool.forward(x)
    np.testing.assert_array_equal(y[0, 0], [[5, 7], [13, 15]])


def test_maxpool_gradients_route_to_max():
    pool = MaxPool2d(2)
    x = RNG.normal(size=(1, 2, 4, 4))
    y = pool.forward(x)
    g = pool.backward(np.ones_like(y))
    # Each 2x2 window contributes exactly one gradient unit.
    assert g.sum() == y.size


def test_gru_cell_step_shapes():
    cell = GRUCell(3, 5, rng=np.random.default_rng(6))
    h = cell.step(RNG.normal(size=(2, 3)), np.zeros((2, 5)))
    assert h.shape == (2, 5)


def test_gru_cell_gradients():
    cell = GRUCell(3, 4, rng=np.random.default_rng(6))
    check_layer_gradients(cell, RNG.normal(size=(2, 3)), rtol=1e-3)


def test_module_parameter_discovery():
    net = mlp([4, 8, 2], rng=np.random.default_rng(7))
    params = net.parameters()
    assert len(params) == 4  # two Dense layers: weight + bias each
    assert net.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2


def test_train_eval_propagates_to_children():
    net = Sequential(Dense(3, 3), BatchNorm(3), Dense(3, 1))
    net.eval()
    assert all(not m.training for m in net.modules())
    net.train()
    assert all(m.training for m in net.modules())
