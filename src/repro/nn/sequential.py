"""Sequential container and MLP convenience constructor."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .layers import Dense, Module, ReLU

__all__ = ["Sequential", "mlp"]


class Sequential(Module):
    """Chain of layers applied in order; backward runs in reverse.

    The layer chain is fixed at construction: ``layers`` is a tuple.
    """

    def __init__(self, *layers: Module):
        self.layers = layers

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        """Pure batched inference through the chain (see
        :meth:`Module.forward_batch` for the contract)."""
        for layer in self.layers:
            x = layer.forward_batch(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad


def mlp(sizes: Sequence[int], rng: Optional[np.random.Generator] = None,
        name: str = "mlp") -> Sequential:
    """Build a multilayer perceptron with the given layer sizes.

    ``sizes = [in, h1, ..., out]``: ReLU after every hidden layer, no
    activation on the output layer.
    """
    if len(sizes) < 2:
        raise ValueError("mlp needs at least input and output sizes")
    rng = rng if rng is not None else np.random.default_rng(0)
    layers: List[Module] = []
    for i, (a, b) in enumerate(zip(sizes[:-1], sizes[1:])):
        layers.append(Dense(a, b, rng=rng, name=f"{name}.fc{i}"))
        if i < len(sizes) - 2:
            layers.append(ReLU())
    return Sequential(*layers)
