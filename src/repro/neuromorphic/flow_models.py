"""Optical-flow model families of Fig. 8 / Fig. 9 (Sec. VI).

Four architectures over the event-camera simulator, mirroring the paper's
lineup:

* **EvFlowNet** — full-ANN baseline on the accumulated event volume;
* **Spike-FlowNet** — hybrid: SNN encoder (fixed LIF dynamics) over the
  event spike train, ANN decoder;
* **Fusion-FlowNet** — events through an SNN encoder fused with frames
  through an ANN encoder (sensor fusion), joint decoder;
* **Adaptive-SpikeNet** — fully spiking with *learnable* neuronal
  dynamics; flow is decoded from the final layer's membrane potential.

All models share one protocol (predict / train_step / params / energy) so
the Fig. 9 harness treats them uniformly.  The architectural
simplification vs the originals (3 conv stages instead of U-Nets) is a
scale substitution: the AEE ordering and energy ratios come from the
encoder type and sparsity, which are preserved.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..nn.counting import count_conv2d
from ..nn.layers import Conv2d, Module, ReLU
from ..nn.losses import mse_loss
from ..nn.optim import Adam
from ..nn.sequential import Sequential
from ..sim.events import FlowSample
from .energy import ann_energy_pj, snn_energy_pj
from .snn import SpikingConv2d, spike_rate

__all__ = ["FlowModel", "EvFlowNet", "SpikeFlowNet", "FusionFlowNet",
           "AdaptiveSpikeNet", "FLOW_MODEL_FAMILIES", "build_flow_model",
           "train_flow_model", "per_sample_aee", "evaluate_aee"]


class FlowModel(Module):
    """Protocol for flow estimators over :class:`FlowSample`."""

    name: str = "flow"

    def predict(self, sample: FlowSample) -> np.ndarray:
        raise NotImplementedError

    def train_step(self, sample: FlowSample) -> float:
        raise NotImplementedError

    def inference_energy_pj(self, sample: FlowSample) -> float:
        raise NotImplementedError


def _conv_macs(conv: Conv2d, h: int, w: int) -> int:
    return count_conv2d(conv.in_ch, conv.out_ch, conv.kernel, h, w)


class EvFlowNet(FlowModel):
    """Full-ANN flow from the temporally discretized event volume."""

    name = "evflownet"

    def __init__(self, channels: int = 8, image_size: int = 16,
                 rng: Optional[np.random.Generator] = None, lr: float = 2e-3):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.channels = channels
        self.image_size = image_size
        self.net = Sequential(
            Conv2d(4, channels, rng=rng, name="evf.c1"), ReLU(),
            Conv2d(channels, channels, rng=rng, name="evf.c2"), ReLU(),
            Conv2d(channels, 2, rng=rng, name="evf.c3"),
        )
        self.opt = Adam(self.net.parameters(), lr=lr)

    def predict(self, sample: FlowSample) -> np.ndarray:
        return self.net.forward(sample.discretized_volume[None])[0]

    def train_step(self, sample: FlowSample) -> float:
        pred = self.net.forward(sample.discretized_volume[None])
        loss, grad = mse_loss(pred, sample.flow[None])
        self.opt.zero_grad()
        self.net.backward(grad)
        self.opt.step()
        return loss

    def macs(self) -> int:
        h = w = self.image_size
        return sum(_conv_macs(l, h, w) for l in self.net.layers
                   if isinstance(l, Conv2d))

    def inference_energy_pj(self, sample: FlowSample) -> float:
        return ann_energy_pj(self.macs())


class SpikeFlowNet(FlowModel):
    """Hybrid: fixed-dynamics SNN encoder + ANN decoder."""

    name = "spikeflownet"

    def __init__(self, channels: int = 8, image_size: int = 16,
                 rng: Optional[np.random.Generator] = None, lr: float = 2e-3):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.channels = channels
        self.image_size = image_size
        # Depth lives in the cheap spiking domain (two SNN stages); the
        # ANN decoder is a single thin conv — the Spike-FlowNet balance
        # that yields its energy advantage over a full ANN.
        self.encoder = SpikingConv2d(2, channels, rng=rng, threshold=0.75,
                                     name="spf.enc1")
        self.encoder2 = SpikingConv2d(channels, channels, rng=rng,
                                      threshold=0.75, name="spf.enc2")
        # Decoder consumes early/late rate codes: averaging the whole
        # spike train would discard motion direction.
        self.decoder = Sequential(
            Conv2d(2 * channels, 2, rng=rng, name="spf.d1"),
        )
        self.opt = Adam(self.encoder.parameters()
                        + self.encoder2.parameters()
                        + self.decoder.parameters(), lr=lr)

    def _forward(self, sample: FlowSample) -> np.ndarray:
        s1 = self.encoder.forward(sample.event_frames[:, None])
        spikes = self.encoder2.forward(s1)
        self._s1_rate = float(s1.mean())
        self._t_steps = spikes.shape[0]
        self._half = max(self._t_steps // 2, 1)
        early = spikes[: self._half].mean(axis=0)
        late = spikes[self._half:].mean(axis=0)
        self._spike_count = float(spikes.sum())
        return self.decoder.forward(np.concatenate([early, late], axis=1))

    def predict(self, sample: FlowSample) -> np.ndarray:
        return self._forward(sample)[0]

    def train_step(self, sample: FlowSample) -> float:
        pred = self._forward(sample)
        loss, grad = mse_loss(pred, sample.flow[None])
        self.opt.zero_grad()
        g_rate = self.decoder.backward(grad)
        g_early = g_rate[:, : self.channels]
        g_late = g_rate[:, self.channels:]
        g_spikes = np.zeros((self._t_steps,) + g_early.shape)
        g_spikes[: self._half] = g_early / self._half
        n_late = max(self._t_steps - self._half, 1)
        g_spikes[self._half:] = g_late / n_late
        g_s1 = self.encoder2.backward(g_spikes)
        self.encoder.backward(g_s1)
        self.opt.step()
        return loss

    def encoder_macs_per_timestep(self) -> int:
        h = w = self.image_size
        return (_conv_macs(self.encoder.conv, h, w)
                + _conv_macs(self.encoder2.conv, h, w))

    def decoder_macs(self) -> int:
        h = w = self.image_size
        return sum(_conv_macs(l, h, w) for l in self.decoder.layers
                   if isinstance(l, Conv2d))

    def inference_energy_pj(self, sample: FlowSample) -> float:
        t = sample.event_frames.shape[0]
        in_rate = spike_rate(np.clip(sample.event_frames, 0, 1))
        enc = snn_energy_pj(self.encoder_macs_per_timestep(), t, in_rate)
        return enc + ann_energy_pj(self.decoder_macs())


class FusionFlowNet(FlowModel):
    """Events (SNN) + frames (ANN) fusion, joint decoder."""

    name = "fusionflownet"

    def __init__(self, channels: int = 8, image_size: int = 16,
                 rng: Optional[np.random.Generator] = None, lr: float = 2e-3):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.channels = channels
        self.image_size = image_size
        half = max(channels // 2, 2)
        self.half = half
        self.event_encoder = SpikingConv2d(2, half, rng=rng, threshold=0.75,
                                           name="ff.ev")
        self.frame_encoder = Sequential(
            Conv2d(2, half, rng=rng, name="ff.fr"), ReLU())
        # Early/late event rates + frame features -> 3 * half channels.
        self.decoder = Sequential(
            Conv2d(3 * half, channels, rng=rng, name="ff.d1"), ReLU(),
            Conv2d(channels, 2, rng=rng, name="ff.d2"),
        )
        self.opt = Adam(self.event_encoder.parameters()
                        + self.frame_encoder.parameters()
                        + self.decoder.parameters(), lr=lr)

    def _forward(self, sample: FlowSample) -> np.ndarray:
        spikes = self.event_encoder.forward(sample.event_frames[:, None])
        self._t_steps = spikes.shape[0]
        self._half_t = max(self._t_steps // 2, 1)
        ev_early = spikes[: self._half_t].mean(axis=0)
        ev_late = spikes[self._half_t:].mean(axis=0)
        fr_feat = self.frame_encoder.forward(sample.frames[None])
        fused = np.concatenate([ev_early, ev_late, fr_feat], axis=1)
        return self.decoder.forward(fused)

    def predict(self, sample: FlowSample) -> np.ndarray:
        return self._forward(sample)[0]

    def train_step(self, sample: FlowSample) -> float:
        pred = self._forward(sample)
        loss, grad = mse_loss(pred, sample.flow[None])
        self.opt.zero_grad()
        g_fused = self.decoder.backward(grad)
        g_early = g_fused[:, : self.half]
        g_late = g_fused[:, self.half: 2 * self.half]
        g_fr = g_fused[:, 2 * self.half:]
        self.frame_encoder.backward(g_fr)
        g_spikes = np.zeros((self._t_steps,) + g_early.shape)
        g_spikes[: self._half_t] = g_early / self._half_t
        n_late = max(self._t_steps - self._half_t, 1)
        g_spikes[self._half_t:] = g_late / n_late
        self.event_encoder.backward(g_spikes)
        self.opt.step()
        return loss

    def inference_energy_pj(self, sample: FlowSample) -> float:
        h = w = self.image_size
        t = sample.event_frames.shape[0]
        in_rate = spike_rate(np.clip(sample.event_frames, 0, 1))
        enc = snn_energy_pj(_conv_macs(self.event_encoder.conv, h, w), t,
                            in_rate)
        frame_macs = sum(_conv_macs(l, h, w) for l in self.frame_encoder.layers
                         if isinstance(l, Conv2d))
        dec_macs = sum(_conv_macs(l, h, w) for l in self.decoder.layers
                       if isinstance(l, Conv2d))
        return enc + ann_energy_pj(frame_macs + dec_macs)


class AdaptiveSpikeNet(FlowModel):
    """Fully spiking with learnable leak/threshold; membrane readout."""

    name = "adaptive_spikenet"

    def __init__(self, channels: int = 8, image_size: int = 16,
                 rng: Optional[np.random.Generator] = None, lr: float = 2e-3):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.channels = channels
        self.image_size = image_size
        self.l1 = SpikingConv2d(2, channels, rng=rng, threshold=0.75,
                                learnable_dynamics=True, name="asn.l1")
        self.l2 = SpikingConv2d(channels, channels, rng=rng, threshold=0.75,
                                learnable_dynamics=True, name="asn.l2")
        # Readout layer: high threshold so it (almost) never fires; flow
        # is decoded from its integrated membrane potential.  Learnable
        # dynamics give the readout temporal weighting (leak < 1 weights
        # late spikes more), which is how a potential readout recovers
        # motion *direction* from the spike train.
        self.l3 = SpikingConv2d(channels, 2, rng=rng, threshold=25.0,
                                learnable_dynamics=True, leak=0.7,
                                name="asn.l3")
        self.opt = Adam(self.l1.parameters() + self.l2.parameters()
                        + self.l3.parameters(), lr=lr)

    def _forward(self, sample: FlowSample) -> np.ndarray:
        s1 = self.l1.forward(sample.event_frames[:, None])
        self._s1 = s1
        s2 = self.l2.forward(s1)
        self._s2 = s2
        self.l3.forward(s2)
        t = sample.event_frames.shape[0]
        return self.l3.last_membrane / t  # (1, 2, H, W)

    def predict(self, sample: FlowSample) -> np.ndarray:
        return self._forward(sample)[0]

    def train_step(self, sample: FlowSample) -> float:
        pred = self._forward(sample)
        loss, grad = mse_loss(pred[0], sample.flow)
        self.opt.zero_grad()
        t = sample.event_frames.shape[0]
        zero_spike_grad = np.zeros((t,) + pred.shape)
        g_s2 = self.l3.backward(zero_spike_grad,
                                grad_membrane=grad[None] / t)
        g_s1 = self.l2.backward(g_s2)
        self.l1.backward(g_s1)
        self.opt.step()
        return loss

    def inference_energy_pj(self, sample: FlowSample) -> float:
        h = w = self.image_size
        t = sample.event_frames.shape[0]
        in_rate = spike_rate(np.clip(sample.event_frames, 0, 1))
        e1 = snn_energy_pj(_conv_macs(self.l1.conv, h, w), t, in_rate)
        l1_rate = spike_rate(self._s1) if hasattr(self, "_s1") else 0.1
        e2 = snn_energy_pj(_conv_macs(self.l2.conv, h, w), t, l1_rate)
        l2_rate = spike_rate(self._s2) if hasattr(self, "_s2") else 0.1
        e3 = snn_energy_pj(_conv_macs(self.l3.conv, h, w), t, l2_rate)
        return e1 + e2 + e3


FLOW_MODEL_FAMILIES = {
    "evflownet": EvFlowNet,
    "spikeflownet": SpikeFlowNet,
    "fusionflownet": FusionFlowNet,
    "adaptive_spikenet": AdaptiveSpikeNet,
}


def build_flow_model(name: str, channels: int = 8, image_size: int = 16,
                     rng: Optional[np.random.Generator] = None) -> FlowModel:
    if name not in FLOW_MODEL_FAMILIES:
        raise KeyError(f"unknown flow model {name!r}")
    return FLOW_MODEL_FAMILIES[name](channels=channels,
                                     image_size=image_size, rng=rng)


def train_flow_model(model: FlowModel, samples: Sequence[FlowSample],
                     epochs: int = 8,
                     rng: Optional[np.random.Generator] = None
                     ) -> List[float]:
    """SGD over the sample list; returns per-epoch mean losses."""
    rng = rng if rng is not None else np.random.default_rng(0)
    idx = np.arange(len(samples))
    losses: List[float] = []
    for _ in range(epochs):
        rng.shuffle(idx)
        total = 0.0
        for i in idx:
            total += model.train_step(samples[i])
        losses.append(total / max(len(samples), 1))
    return losses


def per_sample_aee(model: FlowModel,
                   samples: Sequence[FlowSample]) -> List[float]:
    """Endpoint error of every sample individually (trace-level view).

    :func:`evaluate_aee` reduces this to its mean; golden-trace
    verification records the full vector so a drift on one sample
    cannot hide behind the aggregate.
    """
    from ..metrics.flow import average_endpoint_error
    errors: List[float] = []
    for sample in samples:
        pred = model.predict(sample)
        errors.append(average_endpoint_error(pred, sample.flow,
                                             mask=sample.has_event_mask))
    return errors


def evaluate_aee(model: FlowModel, samples: Sequence[FlowSample]) -> float:
    """Mean AEE over the samples (events-mask restricted, MVSEC-style)."""
    errors = per_sample_aee(model, samples)
    return sum(errors) / max(len(errors), 1)
