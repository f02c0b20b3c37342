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
    "affine_qparams",
    "quantization_noise_power",
    "PrecisionConfig",
    "SUPPORTED_BITS",
]

SUPPORTED_BITS = (2, 4, 8, 16, 32)


def affine_qparams(lo: float, hi: float, bits: int) -> "tuple[float, int]":
    """Scale and zero-point for asymmetric affine quantization over [lo, hi].

    The represented range is widened to include 0 so that zero is exactly
    representable (padding, ReLU outputs, and all-zero channels round-trip
    bit-exactly), and the zero-point is the rounded image of ``-lo/scale``
    clipped to the integer grid — which makes both range endpoints land
    within half a step of a grid point, i.e. the round-trip error is at
    most ``scale / 2`` everywhere in ``[lo, hi]`` including the range
    endpoints.  Degenerate ranges (``lo == hi == 0``, or a range so
    small that the step underflows to zero) return the identity grid
    ``(1.0, 0)``.
    """
    if bits >= 32:
        raise ValueError("affine_qparams is for reduced precision (< 32 bits)")
    qmax = 2 ** bits - 1
    lo = min(float(lo), 0.0)
    hi = max(float(hi), 0.0)
    scale = (hi - lo) / qmax
    if scale == 0.0:  # all-zero or subnormal range: identity grid
        return 1.0, 0
    zero_point = int(round(-lo / scale))
    return scale, min(max(zero_point, 0), qmax)


def quantize(x: np.ndarray, bits: int, symmetric: bool = True) -> np.ndarray:
    """Uniform fake-quantization to ``bits`` bits.

    At 32 bits this is the identity (full precision).  The symmetric path
    (the default, used by every golden scenario) derives its scale from the
    max-abs of ``x``; an all-zero tensor is returned unchanged, and it is
    idempotent: quantizing an already-quantized tensor at the same
    precision returns it exactly.

    The asymmetric path (``symmetric=False``) is a true affine grid over
    ``[min(x), 0] .. [0, max(x)]`` via :func:`affine_qparams`: negative
    values survive (they used to be clipped to zero), zero is always
    exactly representable, and the round-trip error is bounded by half a
    quantization step everywhere — including at the range boundaries.
    """
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"unsupported precision {bits}; choose from {SUPPORTED_BITS}")
    if bits >= 32:
        return np.asarray(x, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    max_abs = float(np.max(np.abs(x))) if x.size else 0.0
    if max_abs == 0.0:
        return x.copy()
    if not symmetric:
        lo, hi = float(np.min(x)), float(np.max(x))
        if (max(hi, 0.0) - min(lo, 0.0)) / (2 ** bits - 1) == 0.0:
            return x.copy()  # range subnormal: grid underflows, keep exact
        scale, zero_point = affine_qparams(lo, hi, bits)
        q = np.round(x / scale) + zero_point
        np.clip(q, 0, 2 ** bits - 1, out=q)
        return (q - zero_point) * scale
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
