"""Finite- and infinite-horizon discrete LQR (Sec. IV).

"Using this embedding and the spectral Koopman operator, optimal control
strategies are derived by solving a Linear Quadratic Regulator (LQR)
problem over a finite time horizon."
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

__all__ = ["riccati_recursion", "finite_horizon_lqr", "infinite_horizon_lqr",
           "LQRController"]


def riccati_recursion(a: np.ndarray, b: np.ndarray, q: np.ndarray,
                      r: np.ndarray, horizon: int
                      ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Backward Riccati pass; returns per-step gains and cost-to-go.

    Gains ``K_t`` give the optimal policy ``u_t = -K_t x_t`` for the
    finite-horizon problem with stage cost ``x'Qx + u'Ru`` and terminal
    cost ``x'Qx``.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    p = q.copy()
    gains: List[np.ndarray] = []
    costs: List[np.ndarray] = [p]
    for _ in range(horizon):
        btp = b.T @ p
        k = np.linalg.solve(r + btp @ b, btp @ a)
        p = q + a.T @ p @ (a - b @ k)
        p = 0.5 * (p + p.T)  # keep symmetric against numerical drift
        gains.append(k)
        costs.append(p)
    gains.reverse()
    costs.reverse()
    return gains, costs


def finite_horizon_lqr(a: np.ndarray, b: np.ndarray, q: np.ndarray,
                       r: np.ndarray, horizon: int) -> np.ndarray:
    """First-step gain of the finite-horizon problem (receding horizon)."""
    gains, _ = riccati_recursion(a, b, q, r, horizon)
    return gains[0]


def infinite_horizon_lqr(a: np.ndarray, b: np.ndarray, q: np.ndarray,
                         r: np.ndarray, max_iter: int = 500,
                         tol: float = 1e-9) -> np.ndarray:
    """Stationary gain via Riccati fixed-point iteration."""
    p = q.copy()
    for _ in range(max_iter):
        btp = b.T @ p
        k = np.linalg.solve(r + btp @ b, btp @ a)
        p_next = q + a.T @ p @ (a - b @ k)
        p_next = 0.5 * (p_next + p_next.T)
        if np.max(np.abs(p_next - p)) < tol:
            p = p_next
            break
        p = p_next
    btp = b.T @ p
    return np.linalg.solve(r + btp @ b, btp @ a)


class LQRController:
    """Receding-horizon LQR around a goal state.

    ``act(x)`` returns ``-K (x - x_goal)`` clipped to the action bounds.
    The gain is recomputed only when the model matrices change.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray,
                 q: Optional[np.ndarray] = None,
                 r: Optional[np.ndarray] = None,
                 horizon: int = 40,
                 action_limit: float = 1.0):
        n, m = b.shape
        self.a = np.asarray(a, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        self.q = np.eye(n) if q is None else np.asarray(q, dtype=np.float64)
        self.r = 0.1 * np.eye(m) if r is None else np.asarray(r, dtype=np.float64)
        self.horizon = horizon
        self.action_limit = action_limit
        self.gain = finite_horizon_lqr(self.a, self.b, self.q, self.r, horizon)
        self.goal = np.zeros(n)

    def set_goal(self, goal: np.ndarray) -> None:
        goal = np.asarray(goal, dtype=np.float64)
        if goal.shape != self.goal.shape:
            raise ValueError("goal dimension mismatch")
        self.goal = goal

    def act(self, x: np.ndarray) -> np.ndarray:
        u = -self.gain @ (np.asarray(x) - self.goal)
        return np.clip(u, -self.action_limit, self.action_limit)
