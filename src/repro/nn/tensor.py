"""Parameter containers and initialization helpers for the numpy NN substrate.

The paper's systems (R-MAE encoders, Koopman encoders, STARNet VAEs,
spiking networks, federated clients) all need a small trainable-network
substrate.  PyTorch is not available in this environment, so ``repro.nn``
implements the minimum viable deep-learning stack on numpy: parameters with
gradients, layers with explicit forward/backward, optimizers, and loss
functions.  Everything is deterministic given a seed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "Parameter",
    "glorot_uniform",
    "he_normal",
    "zeros_init",
]


class Parameter:
    """A trainable array with an accumulated gradient.

    Attributes
    ----------
    data:
        The parameter values (numpy array, float64 by default).
    grad:
        Accumulated gradient of the training loss w.r.t. ``data``.  Reset
        with :meth:`zero_grad` before each backward pass.
    name:
        Human-readable identifier used in checkpoints and debugging.
    trainable:
        When ``False`` optimizers skip this parameter (the contrastive
        Koopman encoder freezes its momentum key network this way).
    """

    def __init__(self, data: np.ndarray, name: str = "param", trainable: bool = True):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name
        self.trainable = trainable

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero in place."""
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "" if self.trainable else ", frozen"
        return f"Parameter({self.name}, shape={self.shape}{flag})"


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: Optional[tuple] = None) -> np.ndarray:
    """Glorot/Xavier uniform initialization.

    Keeps activation variance roughly constant across layers, which matters
    for the deeper occupancy decoders and flow networks.
    """
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-limit, limit, size=shape)


def he_normal(rng: np.random.Generator, fan_in: int, shape: tuple) -> np.ndarray:
    """He (Kaiming) normal initialization, appropriate before ReLU layers."""
    std = np.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, std, size=shape)


def zeros_init(shape: tuple) -> np.ndarray:
    """All-zeros initialization (biases, batch-norm shifts)."""
    return np.zeros(shape, dtype=np.float64)
