"""Tests for neurons, spiking layers, flow models, DOTIE and the
neuromorphic energy model."""

import numpy as np
import pytest

from repro.metrics import average_endpoint_error
from repro.neuromorphic import (
    DOTIE,
    E_AC_PJ,
    E_MAC_PJ,
    FLOW_MODEL_FAMILIES,
    LIFParameters,
    SpikingConv2d,
    ann_energy_pj,
    build_flow_model,
    evaluate_aee,
    lif_step,
    snn_energy_pj,
    spike_rate,
    surrogate_gradient,
    train_flow_model,
)
from repro.sim import make_flow_dataset


# ----------------------------------------------------------------- neurons
def test_lif_integrates_and_fires():
    v = np.zeros(3)
    current = np.array([0.3, 0.6, 1.5])
    v, s = lif_step(v, current, leak=1.0, threshold=1.0)
    np.testing.assert_array_equal(s, [0, 0, 1])
    assert v[2] == pytest.approx(0.5)  # soft reset keeps the residue


def test_lif_leak_decays_subthreshold():
    v = np.array([0.8])
    v, s = lif_step(v, np.zeros(1), leak=0.5, threshold=1.0)
    assert v[0] == pytest.approx(0.4)
    assert s[0] == 0


def test_lif_accumulates_over_steps():
    v = np.zeros(1)
    fired = 0
    for _ in range(5):
        v, s = lif_step(v, np.array([0.4]), leak=1.0, threshold=1.0)
        fired += int(s[0])
    assert fired == 2  # 0.4*5 = 2.0 total drive, threshold 1.0


def test_surrogate_gradient_triangular():
    sg = surrogate_gradient(np.array([1.0, 0.5, 2.5]), threshold=1.0,
                            width=1.0)
    assert sg[0] == pytest.approx(1.0)
    assert sg[1] == pytest.approx(0.5)
    assert sg[2] == pytest.approx(0.0)


def test_lif_parameters_validation():
    with pytest.raises(ValueError):
        LIFParameters(leak=0.0)
    with pytest.raises(ValueError):
        LIFParameters(threshold=-1.0)


# ------------------------------------------------------------ spiking conv
def _spike_input(t=4, n=1, c=2, h=8, w=8, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.random((t, n, c, h, w)) < 0.3).astype(np.float64)


def test_spiking_conv_output_binary():
    layer = SpikingConv2d(2, 4, rng=np.random.default_rng(1))
    out = layer.forward(_spike_input())
    assert out.shape == (4, 1, 4, 8, 8)
    assert set(np.unique(out)) <= {0.0, 1.0}
    assert layer.last_membrane.shape == (1, 4, 8, 8)


def test_spiking_conv_requires_5d():
    layer = SpikingConv2d(2, 4)
    with pytest.raises(ValueError):
        layer.forward(np.zeros((1, 2, 8, 8)))


def test_spiking_conv_backward_shapes():
    layer = SpikingConv2d(2, 3, rng=np.random.default_rng(2))
    x = _spike_input(c=2)
    out = layer.forward(x)
    grad_in = layer.backward(np.ones_like(out))
    assert grad_in.shape == x.shape
    assert float(np.abs(layer.conv.weight.grad).sum()) > 0


def test_spiking_conv_learnable_dynamics_params():
    layer = SpikingConv2d(2, 3, learnable_dynamics=True, leak=0.9,
                          threshold=1.0, rng=np.random.default_rng(3))
    assert layer.leak() == pytest.approx(0.9, abs=1e-6)
    assert layer.threshold() == pytest.approx(1.0, abs=1e-6)
    names = [p.name for p in layer.parameters()]
    assert any("leak" in n for n in names)
    assert any("thr" in n for n in names)


def test_spiking_conv_dynamics_receive_gradients():
    layer = SpikingConv2d(2, 3, learnable_dynamics=True,
                          rng=np.random.default_rng(4))
    out = layer.forward(_spike_input(seed=5))
    layer.backward(np.random.default_rng(6).normal(size=out.shape))
    assert abs(float(layer.leak_raw.grad[0])) > 0
    assert abs(float(layer.thr_raw.grad[0])) > 0


def test_spike_rate_bounds():
    assert spike_rate(np.zeros((4, 2, 3))) == 0.0
    assert spike_rate(np.ones((4, 2, 3))) == 1.0
    assert spike_rate(np.array([])) == 0.0


# ------------------------------------------------------------ energy model
def test_snn_cheaper_at_low_rates():
    macs = 1_000_000
    ann = ann_energy_pj(macs)
    snn = snn_energy_pj(macs, timesteps=4, mean_spike_rate=0.05)
    assert snn < ann


def test_snn_energy_scales_with_rate():
    low = snn_energy_pj(1000, 4, 0.01)
    high = snn_energy_pj(1000, 4, 0.5)
    assert high == pytest.approx(50 * low)


def test_energy_validation():
    with pytest.raises(ValueError):
        ann_energy_pj(-1)
    with pytest.raises(ValueError):
        snn_energy_pj(100, 4, -0.1)


def test_ac_cheaper_than_mac():
    assert E_AC_PJ < E_MAC_PJ


# ------------------------------------------------------------- flow models
TRAIN = make_flow_dataset(12, seed=0)
TEST = make_flow_dataset(6, seed=1)


@pytest.mark.parametrize("name", sorted(FLOW_MODEL_FAMILIES))
def test_flow_models_train_and_predict(name):
    model = build_flow_model(name, channels=6, rng=np.random.default_rng(2))
    losses = train_flow_model(model, TRAIN, epochs=4,
                              rng=np.random.default_rng(3))
    assert losses[-1] < losses[0]
    pred = model.predict(TEST[0])
    assert pred.shape == (2, 16, 16)
    aee = evaluate_aee(model, TEST)
    assert np.isfinite(aee) and aee >= 0


def test_build_flow_model_unknown():
    with pytest.raises(KeyError):
        build_flow_model("flownet3")


def test_snn_models_use_less_energy_than_ann():
    ann = build_flow_model("evflownet", channels=8,
                           rng=np.random.default_rng(4))
    snn = build_flow_model("adaptive_spikenet", channels=8,
                           rng=np.random.default_rng(4))
    snn.predict(TEST[0])  # populate spike-rate cache
    assert snn.inference_energy_pj(TEST[0]) < ann.inference_energy_pj(TEST[0])


def test_hybrid_energy_between_ann_and_snn():
    ann = build_flow_model("evflownet", channels=8,
                           rng=np.random.default_rng(5))
    hyb = build_flow_model("spikeflownet", channels=8,
                           rng=np.random.default_rng(5))
    full_snn = build_flow_model("adaptive_spikenet", channels=8,
                                rng=np.random.default_rng(5))
    full_snn.predict(TEST[0])
    e_ann = ann.inference_energy_pj(TEST[0])
    e_hyb = hyb.inference_energy_pj(TEST[0])
    e_snn = full_snn.inference_energy_pj(TEST[0])
    assert e_snn < e_hyb < e_ann


def test_adaptive_spikenet_fewer_params_than_ann():
    ann = build_flow_model("evflownet", channels=8)
    snn = build_flow_model("adaptive_spikenet", channels=8)
    assert snn.num_parameters() < ann.num_parameters()


def test_flow_models_have_distinct_predictions():
    a = build_flow_model("evflownet", channels=6,
                         rng=np.random.default_rng(6))
    b = build_flow_model("fusionflownet", channels=6,
                         rng=np.random.default_rng(6))
    assert not np.allclose(a.predict(TEST[0]), b.predict(TEST[0]))


# ------------------------------------------------------------------ DOTIE
def _fast_and_slow_events(seed=0):
    """A fast-moving blob plus sparse slow background events."""
    rng = np.random.default_rng(seed)
    t, h, w = 6, 20, 20
    frames = np.zeros((t, 2, h, w))
    # Fast object: dense events along a moving 3x3 patch.
    for step in range(t):
        cx, cy = 4 + step * 2, 8
        frames[step, 0, cy:cy + 3, cx:cx + 3] = 2.0
    # Slow background: isolated single events.
    for _ in range(15):
        frames[rng.integers(t), 1, rng.integers(h), rng.integers(w)] += 1.0
    return frames


def test_dotie_detects_fast_object():
    dotie = DOTIE(leak=0.6, threshold=2.5, min_cluster=3)
    boxes = dotie.detect(_fast_and_slow_events())
    assert len(boxes) >= 1
    # The top box tracks the moving patch's row band.
    top = boxes[0]
    assert 6 <= top.center[1] <= 12


def test_dotie_filters_slow_background():
    dotie = DOTIE(leak=0.3, threshold=2.5, min_cluster=3)
    rng = np.random.default_rng(1)
    background = np.zeros((6, 2, 20, 20))
    for _ in range(20):
        background[rng.integers(6), 0, rng.integers(20),
                   rng.integers(20)] += 1.0
    assert dotie.detect(background) == []


def test_dotie_spike_map_shape():
    dotie = DOTIE()
    spikes = dotie.spike_map(_fast_and_slow_events())
    assert spikes.shape == (20, 20)
    with pytest.raises(ValueError):
        dotie.spike_map(np.zeros((2, 20, 20)))


def test_dotie_synops_counts_events():
    frames = _fast_and_slow_events()
    assert DOTIE().synops(frames) == int(frames.sum())


def test_dotie_validation():
    with pytest.raises(ValueError):
        DOTIE(leak=0.0)
    with pytest.raises(ValueError):
        DOTIE(threshold=0.0)


def test_bounding_box_geometry():
    from repro.neuromorphic import BoundingBox
    box = BoundingBox(2, 3, 6, 8, mass=5.0)
    assert box.center == (4.0, 5.5)
    assert box.area == 5 * 6
    assert box.contains(4, 5)
    assert not box.contains(0, 0)


# ---------------------------------------------------------------- AEE math
def test_aee_zero_for_perfect_flow():
    flow = np.random.default_rng(9).normal(size=(2, 8, 8))
    assert average_endpoint_error(flow, flow) == 0.0


def test_aee_known_offset():
    pred = np.zeros((2, 4, 4))
    target = np.zeros((2, 4, 4))
    target[0] += 3.0
    target[1] += 4.0
    assert average_endpoint_error(pred, target) == pytest.approx(5.0)


def test_aee_masked():
    pred = np.zeros((2, 4, 4))
    target = np.ones((2, 4, 4))
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 0] = True
    assert average_endpoint_error(pred, target, mask) == pytest.approx(
        np.sqrt(2))
