"""Precision-reconfigurable fake quantization (HaLo-FL substrate, Sec. VII).

HaLo-FL selects per-tensor precisions (weights / activations / gradients)
per client to meet energy, latency, and area constraints.  This module
provides the simulation primitive: symmetric uniform fake-quantization to
``b`` bits, plus a :class:`PrecisionConfig` describing a full model's
precision assignment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "quantize",
    "quantization_noise_power",
    "PrecisionConfig",
    "SUPPORTED_BITS",
]

SUPPORTED_BITS = (2, 4, 8, 16, 32)


def quantize(x: np.ndarray, bits: int) -> np.ndarray:
    """Symmetric uniform fake-quantization to ``bits`` bits.

    At 32 bits this is the identity (full precision).  Otherwise the
    scale comes from the max-abs of ``x`` over a grid symmetric about
    zero; an all-zero tensor is returned unchanged, and it is
    idempotent: quantizing an already-quantized tensor at the same
    precision returns it exactly.
    """
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"unsupported precision {bits}; choose from {SUPPORTED_BITS}")
    if bits >= 32:
        return np.asarray(x, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    max_abs = float(np.max(np.abs(x))) if x.size else 0.0
    if max_abs == 0.0:
        return x.copy()
    levels = 2 ** (bits - 1) - 1
    scale = max_abs / levels
    if scale == 0.0:  # max_abs subnormal: grid underflows, keep exact
        return x.copy()
    q = np.round(x / scale)
    q = np.clip(q, -levels, levels)
    return q * scale


def quantization_noise_power(x: np.ndarray, bits: int) -> float:
    """Mean squared quantization error introduced at the given precision."""
    err = np.asarray(x, dtype=np.float64) - quantize(x, bits)
    return float(np.mean(err ** 2))


@dataclass(frozen=True)
class PrecisionConfig:
    """Precision assignment for weights, activations, and gradients.

    HaLo-FL's selector chooses one of these per client; the hardware model
    (:mod:`repro.hardware.energy`) translates it into energy/latency/area.
    """

    weight_bits: int = 32
    activation_bits: int = 32
    gradient_bits: int = 32

    def __post_init__(self):
        for b in (self.weight_bits, self.activation_bits, self.gradient_bits):
            if b not in SUPPORTED_BITS:
                raise ValueError(f"unsupported precision {b}")

    @property
    def mac_bits(self) -> int:
        """Effective MAC operand width (max of weight and activation)."""
        return max(self.weight_bits, self.activation_bits)

    def mean_bits(self) -> float:
        return (self.weight_bits + self.activation_bits + self.gradient_bits) / 3.0


    @staticmethod
    def full_precision() -> "PrecisionConfig":
        return PrecisionConfig(32, 32, 32)

    @staticmethod
    def uniform(bits: int) -> "PrecisionConfig":
        return PrecisionConfig(bits, bits, bits)
