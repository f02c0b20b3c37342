"""Optimizers: SGD, Adam and the gradient-free SPSA used by STARNet.

SPSA (Simultaneous Perturbation Stochastic Approximation) estimates a full
gradient from two function evaluations regardless of dimension, which is
why STARNet (Sec. V) uses it to compute likelihood regret on low-power edge
devices where backprop through the VAE is too expensive.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

import numpy as np

from .tensor import Parameter

__all__ = ["SGD", "Adam", "SPSA"]


class SGD:
    """Plain stochastic gradient descent."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-2):
        self.params = [p for p in params]
        self.lr = lr

    def step(self) -> None:
        for p in self.params:
            if p.trainable:
                p.data -= self.lr * p.grad

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class Adam:
    """Adam optimizer (Kingma & Ba) with bias correction."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8):
        self.params = [p for p in params]
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1t = 1.0 - self.beta1 ** self._t
        b2t = 1.0 - self.beta2 ** self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if not p.trainable:
                continue
            g = p.grad
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class SPSA:
    """Simultaneous Perturbation Stochastic Approximation.

    Minimizes a scalar objective ``f(theta)`` using only function
    evaluations: each step perturbs *all* coordinates simultaneously with a
    Rademacher vector ``delta`` and estimates the gradient as
    ``(f(theta + c*delta) - f(theta - c*delta)) / (2*c) * delta^{-1}``.

    Two evaluations per step, independent of dimension — the property that
    makes likelihood-regret affordable on edge hardware (Sec. V).
    """

    def __init__(self, a: float = 0.1, c: float = 0.05, alpha: float = 0.602,
                 gamma: float = 0.101, a_stability: float = 10.0,
                 normalize_gradient: bool = False,
                 rng: Optional[np.random.Generator] = None):
        self.a = a
        self.c = c
        self.alpha = alpha
        self.gamma = gamma
        self.a_stability = a_stability
        # Normalized-gradient SPSA: step along ghat / ||ghat||.  Makes the
        # step schedule independent of the objective's scale — essential
        # when the same optimizer must handle in-distribution inputs
        # (flat, small objective) and OOD inputs (steep, huge objective).
        self.normalize_gradient = normalize_gradient
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def minimize(self, f: Callable[[np.ndarray], float], theta0: np.ndarray,
                 steps: int = 50) -> tuple:
        """Run ``steps`` SPSA iterations from ``theta0``.

        Returns ``(theta_best, f_best, history)`` where ``history`` is the
        list of objective values at each iterate.
        """
        theta = np.asarray(theta0, dtype=np.float64).copy()
        best = theta.copy()
        f_best = float(f(theta))
        history: List[float] = [f_best]
        for k in range(steps):
            ak = self.a / (k + 1 + self.a_stability) ** self.alpha
            ck = self.c / (k + 1) ** self.gamma
            delta = self.rng.choice([-1.0, 1.0], size=theta.shape)
            f_plus = float(f(theta + ck * delta))
            f_minus = float(f(theta - ck * delta))
            ghat = (f_plus - f_minus) / (2.0 * ck) * delta
            if self.normalize_gradient:
                norm = float(np.linalg.norm(ghat))
                if norm > 0:
                    ghat = ghat / norm
            theta = theta - ak * ghat
            val = float(f(theta))
            history.append(val)
            if val < f_best:
                f_best = val
                best = theta.copy()
        return best, f_best, history
