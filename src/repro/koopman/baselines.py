"""Dynamical-model families compared in Fig. 5 (MACs and robustness).

The paper benchmarks its spectral Koopman model against:

* an **MLP dynamics** model (CURL-style latent forward model);
* a **dense Koopman** model (full ``d x d`` linear operator);
* a **Transformer** dynamics model (attention over a history window);
* a **recurrent** (GRU) dynamics model (Dreamer-style).

Every trainable family implements the same protocol: ``predict`` one
step and ``train_batch`` on transitions.  Linear families control via
LQR; nonlinear families via random-shooting MPC, which is what drives
the control-side MAC gap in Fig. 5a.  :func:`fig5a_macs` prices all
five families analytically at a shared latent dim; the Transformer
exists only there, since Fig. 5b never fits one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn.layers import Dense, GRUCell
from ..nn.losses import mse_loss
from ..nn.optim import Adam
from ..nn.sequential import mlp
from .lqr import LQRController
from .spectral import SpectralKoopmanOperator

__all__ = ["DynamicsModel", "MLPDynamics", "DenseKoopmanDynamics",
           "RecurrentDynamics", "SpectralKoopmanDynamics", "build_model",
           "MODEL_FAMILIES", "fit_dynamics_model"]

# Random-shooting MPC settings shared by the nonlinear families.
MPC_SAMPLES = 32
MPC_HORIZON = 8


class DynamicsModel:
    """Protocol: one-step latent dynamics."""

    name: str = "base"
    state_dim: int
    action_dim: int

    def predict(self, z: np.ndarray, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def train_batch(self, z: np.ndarray, u: np.ndarray,
                    z_next: np.ndarray) -> float:
        raise NotImplementedError

    def reset_context(self) -> None:
        """Clear any history the model keeps between episodes."""


class MLPDynamics(DynamicsModel):
    """z' = MLP([z, u]) — the CURL-style forward model."""

    name = "mlp"

    def __init__(self, state_dim: int, action_dim: int, hidden: int = 64,
                 rng: Optional[np.random.Generator] = None, lr: float = 1e-3):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.state_dim, self.action_dim = state_dim, action_dim
        self.hidden = hidden
        self.net = mlp([state_dim + action_dim, hidden, hidden, state_dim],
                       rng=rng, name="mlpdyn")
        self.opt = Adam(self.net.parameters(), lr=lr)

    def predict(self, z: np.ndarray, u: np.ndarray) -> np.ndarray:
        zu = np.concatenate([np.atleast_2d(z), np.atleast_2d(u)], axis=1)
        return self.net.forward(zu)

    def train_batch(self, z, u, z_next) -> float:
        pred = self.predict(z, u)
        loss, grad = mse_loss(pred, np.atleast_2d(z_next))
        self.opt.zero_grad()
        self.net.backward(grad)
        self.opt.step()
        return loss


class DenseKoopmanDynamics(DynamicsModel):
    """z' = A z + B u with a full dense operator, fit by ridge regression."""

    name = "dense_koopman"

    def __init__(self, state_dim: int, action_dim: int,
                 ridge: float = 1e-4,
                 rng: Optional[np.random.Generator] = None):
        self.state_dim, self.action_dim = state_dim, action_dim
        self.ridge = ridge
        self.a = np.eye(state_dim)
        self.b = np.zeros((state_dim, action_dim))
        self._xs: List[np.ndarray] = []
        self._ys: List[np.ndarray] = []

    def predict(self, z, u) -> np.ndarray:
        z, u = np.atleast_2d(z), np.atleast_2d(u)
        return z @ self.a.T + u @ self.b.T

    def train_batch(self, z, u, z_next) -> float:
        """Accumulate data and refit the least-squares operator."""
        z, u, z_next = np.atleast_2d(z), np.atleast_2d(u), np.atleast_2d(z_next)
        self._xs.append(np.concatenate([z, u], axis=1))
        self._ys.append(z_next)
        x = np.concatenate(self._xs)
        y = np.concatenate(self._ys)
        gram = x.T @ x + self.ridge * np.eye(x.shape[1])
        w = np.linalg.solve(gram, x.T @ y)  # (d+m, d)
        self.a = w[: self.state_dim].T
        self.b = w[self.state_dim:].T
        loss, _ = mse_loss(self.predict(z, u), z_next)
        return loss


class RecurrentDynamics(DynamicsModel):
    """GRU latent dynamics (Dreamer-style recurrent world model)."""

    name = "recurrent"

    def __init__(self, state_dim: int, action_dim: int, hidden: int = 48,
                 rng: Optional[np.random.Generator] = None, lr: float = 1e-3):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.state_dim, self.action_dim = state_dim, action_dim
        self.hidden = hidden
        self.cell = GRUCell(state_dim + action_dim, hidden, rng=rng)
        self.readout = Dense(hidden, state_dim, rng=rng, name="gru.readout")
        self.opt = Adam(self.cell.parameters() + self.readout.parameters(),
                        lr=lr)
        self._h: Optional[np.ndarray] = None

    def reset_context(self) -> None:
        self._h = None

    def predict(self, z, u) -> np.ndarray:
        z, u = np.atleast_2d(z), np.atleast_2d(u)
        x = np.concatenate([z, u], axis=1)
        h = self._h if self._h is not None and self._h.shape[0] == x.shape[0] \
            else np.zeros((x.shape[0], self.hidden))
        h_new = self.cell.step(x, h)
        self._h = h_new
        return self.readout.forward(h_new)

    def train_batch(self, z, u, z_next) -> float:
        z, u, z_next = np.atleast_2d(z), np.atleast_2d(u), np.atleast_2d(z_next)
        x = np.concatenate([z, u], axis=1)
        h = np.zeros((x.shape[0], self.hidden))
        h_new = self.cell.step(x, h)
        pred = self.readout.forward(h_new)
        loss, grad = mse_loss(pred, z_next)
        self.opt.zero_grad()
        gh = self.readout.backward(grad)
        self.cell.backward(gh)
        self.opt.step()
        self._h = None
        return loss


class SpectralKoopmanDynamics(DynamicsModel):
    """The paper's model: linear lift into the spectral eigenbasis.

    A block-diagonal real-Jordan operator can only represent dynamics
    *in its own eigenbasis*, so the model learns a linear lift ``E``
    (state -> latent) and projection ``D`` (latent -> state) around the
    spectral core — the role the contrastive encoder plays for visual
    observations.  Training minimizes state-prediction error plus a
    latent-consistency term keeping the dynamics linear in the latent.

    Per-step prediction MACs count the spectral advance plus the
    projection; the lift runs once per observation and is amortized over
    MPC/LQR horizons (and is part of the shared encoder in the paper's
    visual setting).
    """

    name = "spectral_koopman"

    def __init__(self, state_dim: int, action_dim: int, n_pairs: int = 4,
                 rng: Optional[np.random.Generator] = None, lr: float = 5e-3,
                 dt: float = 0.02, enforce_stability: bool = False,
                 consistency_weight: float = 0.5):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.state_dim, self.action_dim = state_dim, action_dim
        self.latent_dim = 2 * n_pairs
        # Stability enforcement is off by default here: raw system
        # identification must be able to represent open-loop-unstable
        # plants (the falling pole).  The contrastive encoder, whose
        # embedding is goal-relative, keeps it on.
        self.op = SpectralKoopmanOperator(n_pairs, action_dim, dt=dt,
                                          enforce_stability=enforce_stability,
                                          rng=rng)
        self.lift = Dense(state_dim, self.latent_dim, rng=rng, name="spk.lift")
        self.proj = Dense(self.latent_dim, state_dim, rng=rng, name="spk.proj")
        self.consistency_weight = consistency_weight
        params = (self.op.parameters() + self.lift.parameters()
                  + self.proj.parameters())
        self.opt = Adam(params, lr=lr)

    def encode(self, s: np.ndarray) -> np.ndarray:
        return self.lift.forward(np.atleast_2d(s))

    def decode(self, z: np.ndarray) -> np.ndarray:
        return self.proj.forward(np.atleast_2d(z))

    def predict(self, s, u) -> np.ndarray:
        z = self.encode(s)
        z_next = self.op.advance(z, np.atleast_2d(u))
        return self.decode(z_next)

    def train_batch(self, s, u, s_next) -> float:
        s, u, s_next = np.atleast_2d(s), np.atleast_2d(u), np.atleast_2d(s_next)
        z = self.lift.forward(s)
        z_next_hat = self.op.advance(z, u)
        s_next_hat = self.proj.forward(z_next_hat)
        loss_pred, g_pred = mse_loss(s_next_hat, s_next)
        # Latent consistency: predicted latent should match the lift of
        # the true next state (stop-gradient on the target).
        z_next_target = self.lift.forward(s_next)
        loss_cons, g_cons = mse_loss(z_next_hat, z_next_target)
        self.opt.zero_grad()
        g_z_next = self.proj.backward(g_pred)
        g_z_next = g_z_next + self.consistency_weight * g_cons
        g_zu = self.op.backward(g_z_next)
        # Re-run lift forward on s so its cache matches before backward.
        self.lift.forward(s)
        self.lift.backward(g_zu[:, : self.latent_dim])
        self.opt.step()
        return loss_pred + self.consistency_weight * loss_cons

    def prediction_macs(self) -> int:
        # Spectral advance + projection; lift amortized (see class doc).
        return (self.op.prediction_macs()
                + self.latent_dim * self.state_dim)

    def lqr(self, horizon: int = 40, action_limit: float = 1.0,
            q_state: Optional[np.ndarray] = None) -> LQRController:
        """Latent-space LQR with the state cost pulled back through D."""
        qs = np.eye(self.state_dim) if q_state is None else q_state
        d = self.proj.weight.data.T  # (state, latent) mapping z -> s
        qz = d.T @ qs @ d + 1e-6 * np.eye(self.latent_dim)
        return LQRController(self.op.dynamics_matrix(), self.op.b.data,
                             q=qz, horizon=horizon,
                             action_limit=action_limit)

    def latent_goal(self, s_goal: np.ndarray) -> np.ndarray:
        return self.encode(s_goal)[0]


MODEL_FAMILIES = {
    "mlp": MLPDynamics,
    "dense_koopman": DenseKoopmanDynamics,
    "recurrent": RecurrentDynamics,
    "spectral_koopman": SpectralKoopmanDynamics,
}


def build_model(name: str, state_dim: int, action_dim: int,
                rng: Optional[np.random.Generator] = None) -> DynamicsModel:
    """Instantiate a dynamics model family by name."""
    if name not in MODEL_FAMILIES:
        raise KeyError(f"unknown model family {name!r}")
    return MODEL_FAMILIES[name](state_dim, action_dim, rng=rng)


def fig5a_macs(latent_dim: int = 16, action_dim: int = 1,
               hidden: int = 64, d_model: int = 32, context: int = 4,
               gru_hidden: int = 48) -> Dict[str, Dict[str, int]]:
    """Fig. 5a's accounting: per-family MACs at a *shared* latent dim.

    In the paper every model consumes the same visual encoder's latent,
    so the comparison is between latent-dynamics cores: the spectral
    Koopman core costs ``4K + L*m`` per step (block-diagonal), dense
    Koopman ``L^2 + L*m``, and the nonlinear families pay their full
    network per MPC rollout step.  Returns
    ``{family: {"prediction": macs, "control": macs, "total": macs}}``.
    """
    if latent_dim % 2:
        raise ValueError("latent_dim must be even (complex eigenpairs)")
    l, m = latent_dim, action_dim
    pred = {
        "mlp": ((l + m) * hidden + hidden + hidden * hidden + hidden
                + hidden * l + l),
        "dense_koopman": l * l + l * m,
        "transformer": (context * (l + m) * d_model
                        + 3 * context * d_model * d_model
                        + 2 * context * context * d_model
                        + context * d_model * d_model
                        + context * 4 * d_model * d_model
                        + d_model * l),
        "recurrent": 3 * (l + m + gru_hidden) * gru_hidden + gru_hidden * l,
        "spectral_koopman": 4 * (l // 2) + l * m,
    }
    out: Dict[str, Dict[str, int]] = {}
    for name, p in pred.items():
        if name in ("dense_koopman", "spectral_koopman"):
            control = m * l  # LQR feedback u = -K z
        else:
            control = MPC_SAMPLES * MPC_HORIZON * p
        out[name] = {"prediction": int(p), "control": int(control),
                     "total": int(p + control)}
    return out


def fit_dynamics_model(model: DynamicsModel, transitions: Tuple[np.ndarray,
                                                                np.ndarray,
                                                                np.ndarray],
                       epochs: int = 20, batch_size: int = 64,
                       rng: Optional[np.random.Generator] = None,
                       cache=None) -> List[float]:
    """Fit any family on (Z, U, Z_next) arrays; returns per-epoch losses.

    Deterministic given (model state, transitions, hyper-parameters,
    RNG state) and therefore memoized through the artifact cache; pass
    ``cache=False`` to force recomputation (``REPRO_CACHE=0`` disables
    globally).
    """
    from ..runtime.cache import cached_fit

    rng = rng if rng is not None else np.random.default_rng(0)
    z, u, z_next = transitions

    def train() -> List[float]:
        n = z.shape[0]
        losses = []
        for _ in range(epochs):
            order = rng.permutation(n)
            total, count = 0.0, 0
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                total += model.train_batch(z[idx], u[idx], z_next[idx])
                count += 1
            losses.append(total / max(count, 1))
            if isinstance(model, DenseKoopmanDynamics):
                break  # closed-form fit converges in one pass
        return losses

    return cached_fit(
        "koopman_fit",
        {"family": model.name, "z": z, "u": u, "z_next": z_next,
         "epochs": epochs, "batch_size": batch_size},
        model, rng, train, cache=cache)
