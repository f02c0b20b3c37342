"""Numerical gradient-checking helpers shared by the nn test modules."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.nn import Module


def numeric_gradient(f: Callable[[], float], array: np.ndarray,
                     eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``f()`` w.r.t. ``array``.

    ``array`` is perturbed in place and restored.
    """
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"], op_flags=["readwrite"])
    while not it.finished:
        idx = it.multi_index
        orig = array[idx]
        array[idx] = orig + eps
        f_plus = f()
        array[idx] = orig - eps
        f_minus = f()
        array[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


def check_layer_gradients(layer: Module, x: np.ndarray,
                          rtol: float = 1e-4, atol: float = 1e-6,
                          loss_weight: Optional[np.ndarray] = None) -> None:
    """Assert analytic grads (input + parameters) match numeric ones.

    Loss = sum(w * layer(x)) for a fixed random weight tensor w, which
    exercises every output element with distinct gradient signal.
    """
    rng = np.random.default_rng(123)
    out = layer.forward(x)
    w = (rng.normal(size=out.shape) if loss_weight is None else loss_weight)

    def loss() -> float:
        return float(np.sum(w * layer.forward(x)))

    # Analytic pass.
    layer.zero_grad()
    layer.forward(x)
    dx = layer.backward(w)

    dx_num = numeric_gradient(loss, x)
    np.testing.assert_allclose(dx, dx_num, rtol=rtol, atol=atol,
                               err_msg="input gradient mismatch")
    for p in layer.parameters():
        # Re-run analytic to fill caches consistently per parameter.
        dp_num = numeric_gradient(loss, p.data)
        np.testing.assert_allclose(p.grad, dp_num, rtol=rtol, atol=atol,
                                   err_msg=f"gradient mismatch for {p.name}")
