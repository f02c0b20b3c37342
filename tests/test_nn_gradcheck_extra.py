"""Gradient checks for the layers tier-1 previously left unchecked.

* ``nn/sparse3d.py`` — submanifold sparse convolution: dict-structured
  activations/gradients fall outside the generic
  ``gradcheck.check_layer_gradients`` array contract, so the loss is
  assembled site by site here.
* ``neuromorphic/snn.py`` — the surrogate-gradient BPTT path.  The spike
  nonlinearity is a step function, so analytic and numeric gradients can
  only agree where the surrogate is exact: in the subthreshold regime
  the membrane dynamics are smooth (leaky integration + conv) and the
  BPTT recursion must match central differences to machine precision.
  The spiking regime is covered differentially instead, against an
  independently written reference BPTT of the same surrogate semantics.
"""

import numpy as np
import pytest

from gradcheck import numeric_gradient
from repro.kernels import BACKENDS, kernel_backend
from repro.neuromorphic.snn import SpikingConv2d
from repro.nn.sparse3d import SparseConv3d, SparseVoxelTensor


@pytest.fixture(params=BACKENDS, autouse=True)
def _kernel_backend(request):
    """Run every gradient check under both kernel backends: the analytic
    backward of each implementation must match central differences."""
    with kernel_backend(request.param):
        yield request.param


# ------------------------------------------------------------- sparse conv


def _sparse_input(rng, grid=(5, 5, 3), in_ch=3, n_active=9):
    all_coords = [(i, j, k) for i in range(grid[0])
                  for j in range(grid[1]) for k in range(grid[2])]
    picks = rng.choice(len(all_coords), size=n_active, replace=False)
    coords = [all_coords[p] for p in sorted(picks)]
    values = rng.normal(size=(n_active, in_ch))
    return SparseVoxelTensor.from_coords(coords, in_ch, grid, values=values)


def test_sparse_conv_gradients_submanifold():
    rng = np.random.default_rng(8)
    in_ch, out_ch = 3, 2
    layer = SparseConv3d(in_ch, out_ch, kernel=3, rng=rng)
    x = _sparse_input(rng, in_ch=in_ch)
    out = layer.forward(x)
    weights = {c: rng.normal(size=out_ch) for c in out.features}

    def loss() -> float:
        y = layer.forward(x)
        return float(sum(np.dot(weights[c], f)
                         for c, f in y.features.items()))

    layer.zero_grad()
    layer.forward(x)
    din = layer.backward({c: w.copy() for c, w in weights.items()})

    # Parameter gradients.
    for p in (layer.weight, layer.bias):
        np.testing.assert_allclose(
            p.grad, numeric_gradient(loss, p.data), rtol=1e-5, atol=1e-7,
            err_msg=f"{p.name} gradient mismatch")
    # Input-feature gradients, one active site at a time.
    for coord in x.coords():
        np.testing.assert_allclose(
            din[coord], numeric_gradient(loss, x.features[coord]),
            rtol=1e-5, atol=1e-7,
            err_msg=f"input gradient mismatch at {coord}")


def test_sparse_conv_preserves_active_set():
    rng = np.random.default_rng(3)
    layer = SparseConv3d(2, 4, kernel=3, rng=rng)
    x = _sparse_input(rng, in_ch=2, n_active=6)
    y = layer.forward(x)
    assert sorted(y.features) == sorted(x.features)  # submanifold property


# ------------------------------------------------------- SNN BPTT (smooth)


def _subthreshold_layer(learnable):
    # Threshold far above any reachable membrane: no spikes fire, the
    # surrogate window (width 1.0 around thr=10) is never entered, and
    # the unrolled dynamics are exactly differentiable.
    rng = np.random.default_rng(11)
    layer = SpikingConv2d(2, 3, kernel=3, stride=1, pad=1, leak=0.8,
                          threshold=10.0, learnable_dynamics=learnable,
                          rng=rng)
    x = 0.3 * np.random.default_rng(12).normal(size=(3, 1, 2, 4, 4))
    return layer, x


def _membrane_loss(layer, x, w):
    def loss() -> float:
        layer.forward(x)
        return float(np.sum(w * layer.last_membrane))
    return loss


def _run_membrane_gradcheck(learnable):
    layer, x = _subthreshold_layer(learnable)
    spikes = layer.forward(x)
    assert spikes.sum() == 0.0  # genuinely subthreshold
    w = np.random.default_rng(13).normal(size=layer.last_membrane.shape)
    loss = _membrane_loss(layer, x, w)

    layer.zero_grad()
    layer.forward(x)
    din = layer.backward(np.zeros_like(spikes), grad_membrane=w.copy())

    np.testing.assert_allclose(din, numeric_gradient(loss, x),
                               rtol=1e-4, atol=1e-7,
                               err_msg="BPTT input gradient mismatch")
    for p in layer.parameters():
        np.testing.assert_allclose(
            p.grad, numeric_gradient(loss, p.data), rtol=1e-4, atol=1e-7,
            err_msg=f"BPTT gradient mismatch for {p.name}")


def test_snn_bptt_gradients_fixed_dynamics():
    _run_membrane_gradcheck(learnable=False)


def test_snn_bptt_gradients_learnable_dynamics():
    # Adaptive-SpikeNet path: leak/threshold are parameters; the leak
    # gradient flows through every timestep's membrane recursion.
    _run_membrane_gradcheck(learnable=True)


# --------------------------------------------- SNN surrogate (spiking)


def _reference_bptt(conv, x, grad_out, leak, thr, width):
    """Independently written surrogate BPTT for a fixed-dynamics
    SpikingConv2d, straight from the update equations:

        v_pre[t] = leak * v[t-1] + conv(x[t])
        s[t]     = H(v_pre[t] - thr)          (surrogate: triangular)
        v[t]     = v_pre[t] - thr * s[t]
    """
    t_steps = x.shape[0]
    v = None
    caches = []
    for t in range(t_steps):
        current = conv.forward(x[t])
        cache = conv._cache
        v = current if v is None else leak * v + current
        s = (v > thr).astype(np.float64)
        caches.append((cache, v.copy(), s))
        v = v - thr * s
    grad_in = np.zeros_like(x)
    gv = np.zeros_like(caches[-1][1])
    for t in range(t_steps - 1, -1, -1):
        cache, v_pre, s = caches[t]
        sg = np.maximum(0.0, 1.0 - np.abs(v_pre - thr) / width) / width
        gv_pre = gv * (1.0 - thr * sg) + grad_out[t] * sg
        conv._cache = cache
        grad_in[t] = conv.backward(gv_pre)
        gv = gv_pre * leak
    return grad_in


def test_snn_surrogate_path_matches_reference_in_spiking_regime():
    rng = np.random.default_rng(21)
    leak, thr, width = 0.9, 1.0, 1.0
    layer = SpikingConv2d(1, 2, kernel=3, stride=1, pad=1, leak=leak,
                          threshold=thr, surrogate_width=width, rng=rng)
    x = np.abs(np.random.default_rng(22).normal(size=(4, 1, 1, 5, 5)))
    spikes = layer.forward(x)
    assert spikes.sum() > 0  # genuinely spiking

    grad_out = np.random.default_rng(23).normal(size=spikes.shape)
    layer.zero_grad()
    layer.forward(x)
    din = layer.backward(grad_out.copy())

    ref_conv = SpikingConv2d(1, 2, kernel=3, stride=1, pad=1, leak=leak,
                             threshold=thr, surrogate_width=width,
                             rng=np.random.default_rng(21)).conv
    ref_din = _reference_bptt(ref_conv, x, grad_out, leak, thr, width)
    np.testing.assert_allclose(din, ref_din, rtol=1e-10, atol=1e-12)
