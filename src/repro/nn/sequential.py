"""Sequential container and MLP convenience constructor."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .layers import Dense, Module, ReLU

__all__ = ["Sequential", "mlp"]

# Installed by ``repro.compile.compile_mode()`` for the scope's duration:
# a module whose ``routed_forward`` / ``routed_forward_batch`` take over
# the inference forwards.  repro.nn must not import repro.compile (which
# imports the layers), so the compile layer installs itself here.
_router = None


class Sequential(Module):
    """Chain of layers applied in order; backward runs in reverse.

    The layer chain is fixed at construction (``layers`` is a tuple and
    there is no ``append``), which is what lets compile routing cache
    one artifact per Sequential.  Inside a
    ``repro.compile.compile_mode()`` scope the inference forwards route
    through a cached :class:`repro.compile.CompiledModule` artifact —
    traced once, fused, arena-backed — with loud fallback to the eager
    loop for untraceable layer stacks.  ``backward`` stays eager and
    refuses to run against a forward that executed compiled (the layer
    caches it would consume were never populated).
    """

    def __init__(self, *layers: Module):
        self.layers = layers

    def _eager_forward(self, x: np.ndarray) -> np.ndarray:
        self.__dict__["_ran_compiled"] = False
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def _eager_forward_batch(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward_batch(x)
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        if _router is not None:
            return _router.routed_forward(self, x)
        return self._eager_forward(x)

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        """Pure batched inference through the chain (see
        :meth:`Module.forward_batch` for the contract)."""
        if _router is not None:
            return _router.routed_forward_batch(self, x)
        return self._eager_forward_batch(x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self.__dict__.get("_ran_compiled"):
            from ..compile.executor import CompileError
            raise CompileError(
                "backward after a compiled forward: the compiled path "
                "does not populate layer caches. Run the forward outside "
                "compile_mode() before training.")
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
