"""Gradient-checked unit tests for every layer in repro.nn.layers."""

import numpy as np
import pytest

from gradcheck import check_layer_gradients
from repro.nn import (
    Conv2d,
    ConvTranspose2d,
    Dense,
    GRUCell,
    ReLU,
    mlp,
)
from repro.nn.layers import _im2col

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


def _im2col_per_offset(x, kh, kw, stride, pad):
    """The per-kernel-offset im2col loop: the oracle ``_im2col``'s one
    strided copy must match."""
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=x.dtype)
    for i in range(kh):
        i_end = i + stride * ho
        for j in range(kw):
            j_end = j + stride * wo
            cols[:, :, i, j, :, :] = x[:, :, i:i_end:stride, j:j_end:stride]
    return cols.reshape(n, c * kh * kw, ho * wo), ho, wo


@pytest.mark.parametrize("contiguous", [True, False])
@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kernel", [1, 2, 3, 4])
def test_im2col_matches_the_per_offset_loop(kernel, stride, pad, contiguous):
    x = np.random.default_rng(kernel).standard_normal((2, 3, 7, 6))
    if not contiguous:  # a transposed view: no axis has unit stride
        x = np.random.default_rng(kernel).standard_normal(
            (6, 7, 3, 2)).transpose(3, 2, 1, 0)
    cols, ho, wo = _im2col(x, kernel, kernel, stride, pad)
    want, want_ho, want_wo = _im2col_per_offset(x, kernel, kernel, stride,
                                                pad)
    assert (ho, wo) == (want_ho, want_wo)
    assert cols.shape == want.shape and cols.dtype == want.dtype
    assert cols.tobytes() == want.tobytes()
    # The columns are a copy: writing them must never reach the input.
    assert not np.shares_memory(cols, x)
    assert cols.flags.writeable


def test_conv_transpose_upsamples():
    deconv = ConvTranspose2d(3, 2, kernel=4, stride=2, pad=1,
                             rng=np.random.default_rng(5))
    y = deconv.forward(RNG.normal(size=(1, 3, 4, 4)))
    assert y.shape == (1, 2, 8, 8)


def test_conv_transpose_gradients():
    deconv = ConvTranspose2d(2, 2, kernel=4, stride=2, pad=1,
                             rng=np.random.default_rng(5))
    check_layer_gradients(deconv, RNG.normal(size=(1, 2, 3, 3)), rtol=1e-3)


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
