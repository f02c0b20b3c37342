"""MAC / FLOP / parameter counting for Modules.

Fig. 5a of the paper compares the multiply-accumulate cost of dynamical
models (MLP, dense Koopman, Transformer, recurrent, spectral Koopman) and
Table II reports the 335M FLOPs of the R-MAE reconstruction pass.  This
module provides analytic per-layer counting so those numbers are derived
from architecture, not measured wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from .layers import (
    Conv2d,
    ConvTranspose2d,
    Dense,
    GRUCell,
    Module,
    ReLU,
)
from .sequential import Sequential

__all__ = ["OpCount", "count_dense", "count_conv2d", "count_module", "count_macs"]


@dataclass
class OpCount:
    """Operation counts for one forward pass."""

    macs: int = 0
    flops: int = 0
    params: int = 0
    by_layer: Dict[str, int] = field(default_factory=dict)

    def add(self, name: str, macs: int, params: int = 0) -> None:
        self.macs += macs
        self.flops += 2 * macs
        self.params += params
        self.by_layer[name] = self.by_layer.get(name, 0) + macs


def count_dense(in_features: int, out_features: int) -> int:
    """MACs for one Dense forward (bias included) at batch size 1."""
    return in_features * out_features + out_features


def count_conv2d(in_ch: int, out_ch: int, kernel: int, out_h: int,
                 out_w: int) -> int:
    """MACs for one Conv2d forward at batch size 1."""
    return in_ch * out_ch * kernel * kernel * out_h * out_w


def _spatial_out(h: int, kernel: int, stride: int, pad: int) -> int:
    return (h + 2 * pad - kernel) // stride + 1


def count_module(module: Module, input_shape: Tuple[int, ...]) -> OpCount:
    """Analytically count MACs for a module at batch size 1.

    ``input_shape`` excludes the batch dimension: ``(features,)`` for
    dense stacks or ``(channels, h, w)`` for convolutional ones.
    Unknown/custom module types are counted via their parameter count
    (one MAC per parameter), a conservative lower bound.
    """
    count = OpCount()
    shape = tuple(input_shape)
    _count_into(module, shape, count)
    count.params = module.num_parameters()
    return count


def _count_into(module: Module, shape: Tuple[int, ...], count: OpCount
                ) -> Tuple[int, ...]:
    if isinstance(module, Sequential):
        for layer in module.layers:
            shape = _count_into(layer, shape, count)
        return shape
    if isinstance(module, Dense):
        count.add("dense", count_dense(module.in_features, module.out_features))
        return shape[:-1] + (module.out_features,)
    if isinstance(module, GRUCell):
        d = module.input_dim + module.hidden_dim
        count.add("gru", 3 * d * module.hidden_dim + 3 * module.hidden_dim)
        return shape[:-1] + (module.hidden_dim,)
    if isinstance(module, Conv2d):
        c, h, w = shape
        ho = _spatial_out(h, module.kernel, module.stride, module.pad)
        wo = _spatial_out(w, module.kernel, module.stride, module.pad)
        count.add("conv2d", count_conv2d(module.in_ch, module.out_ch,
                                         module.kernel, ho, wo))
        return (module.out_ch, ho, wo)
    if isinstance(module, ConvTranspose2d):
        c, h, w = shape
        ho, wo = module.out_size(h), module.out_size(w)
        count.add("deconv2d", count_conv2d(module.in_ch, module.out_ch,
                                           module.kernel, h, w))
        return (module.out_ch, ho, wo)
    if isinstance(module, ReLU):
        return shape
    # Fallback: count parameters as MACs (each weight touched once).
    n = module.num_parameters()
    if n:
        count.add(type(module).__name__.lower(), n)
    return shape


def count_macs(module: Module, input_shape: Tuple[int, ...]) -> int:
    """Shortcut returning just the MAC count."""
    return count_module(module, input_shape).macs
