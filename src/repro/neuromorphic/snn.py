"""Spiking layers with surrogate-gradient BPTT (Sec. VI).

:class:`SpikingConv2d` runs a shared convolution at every timestep and
integrates the result through LIF dynamics.  Backward-through-time uses
the triangular surrogate for the spike nonlinearity and propagates both
the spatial (conv) and temporal (membrane) gradient paths.

With ``learnable_dynamics=True`` the leak and threshold become trainable
parameters (Adaptive-SpikeNet); otherwise they are fixed constants
(Spike-FlowNet-style encoders).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..kernels import get_kernel, kernel_timer
from ..nn.layers import Conv2d, Module
from ..nn.tensor import Parameter
from ..obs.registry import get_registry

__all__ = ["SpikingConv2d", "spike_rate"]


def spike_rate(spike_train: np.ndarray) -> float:
    """Mean firing rate of a (T, ...) spike train — the sparsity factor
    in the SNN energy model."""
    spike_train = np.asarray(spike_train)
    if spike_train.size == 0:
        return 0.0
    return float(spike_train.mean())


class SpikingConv2d(Module):
    """Conv2d + LIF dynamics unrolled over T timesteps.

    Input: (T, N, C_in, H, W) spike/current tensors.
    Output: (T, N, C_out, H', W') spike tensors, plus the final membrane
    potential via :attr:`last_membrane` (used by readout layers that
    decode rates/potentials instead of spikes).
    """

    def __init__(self, in_ch: int, out_ch: int, kernel: int = 3,
                 stride: int = 1, pad: int = 1, leak: float = 0.9,
                 threshold: float = 1.0, surrogate_width: float = 1.0,
                 learnable_dynamics: bool = False,
                 rng: Optional[np.random.Generator] = None,
                 name: str = "sconv"):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.conv = Conv2d(in_ch, out_ch, kernel=kernel, stride=stride,
                           pad=pad, rng=rng, name=f"{name}.conv")
        self.learnable_dynamics = learnable_dynamics
        self.surrogate_width = surrogate_width
        if learnable_dynamics:
            # Parameterize leak through a sigmoid and threshold through
            # softplus so gradient steps cannot leave the valid ranges.
            self.leak_raw = Parameter(
                np.array([np.log(leak / (1 - leak))]), name=f"{name}.leak")
            self.thr_raw = Parameter(
                np.array([np.log(np.expm1(threshold))]), name=f"{name}.thr")
        else:
            self._leak_const = leak
            self._thr_const = threshold
        self._cache = None
        self.last_membrane: Optional[np.ndarray] = None

    # ------------------------------------------------------------ dynamics
    def leak(self) -> float:
        if self.learnable_dynamics:
            return float(1.0 / (1.0 + np.exp(-self.leak_raw.data[0])))
        return self._leak_const

    def threshold(self) -> float:
        if self.learnable_dynamics:
            return float(np.logaddexp(0.0, self.thr_raw.data[0]))
        return self._thr_const

    # ------------------------------------------------------------- forward
    def forward(self, x: np.ndarray) -> np.ndarray:
        """LIF unroll, dispatched through the ``snn_bptt`` kernel pair
        (per-timestep reference loop vs one batched-time conv)."""
        if x.ndim != 5:
            raise ValueError("spiking input must be (T, N, C, H, W)")
        with kernel_timer("snn_bptt", "forward"):
            out = get_kernel("snn_bptt").forward(self, x)
        # Spike telemetry: the events the event-driven energy model
        # (repro.neuromorphic.energy.snn_energy_pj) prices.
        obs = get_registry()
        if obs.enabled:
            obs.counter("snn.spikes").inc(float(out.sum()))
            obs.counter("snn.neuron_steps").inc(float(out.size))
            obs.counter("snn.input_events").inc(
                float(np.count_nonzero(x)))
            obs.counter("snn.forward_passes").inc()
        return out

    def backward(self, grad: np.ndarray,
                 grad_membrane: Optional[np.ndarray] = None) -> np.ndarray:
        """BPTT: ``grad`` is (T, N, C', H', W') w.r.t. output spikes.

        ``grad_membrane`` optionally adds a gradient on the *final*
        membrane potential (for potential-readout heads).
        """
        # The forward tagged its cache with the backend that produced
        # it; the raw dynamics grads come back from the kernel and the
        # reparameterization chain rules are applied here.
        backend = self._cache[0]
        with kernel_timer("snn_bptt", "backward"):
            grad_in, d_leak, d_thr = get_kernel(
                "snn_bptt", backend=backend).backward(self, grad,
                                                      grad_membrane)
        if self.learnable_dynamics:
            sig = 1.0 / (1.0 + np.exp(-self.leak_raw.data[0]))
            self.leak_raw.grad += d_leak * sig * (1 - sig)
            thr_sig = 1.0 / (1.0 + np.exp(-self.thr_raw.data[0]))
            self.thr_raw.grad += d_thr * thr_sig
        return grad_in
