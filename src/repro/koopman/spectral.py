"""Spectral Koopman operator with learnable eigenvalues (Sec. IV).

RoboKoop's hypothesis: robust representations need fewer interactions "if
the task embedding space can be modeled linearly and a finite set of
stable (negative) eigenvalues of the Koopman operator are identified."

The operator is parameterized directly in its spectrum: ``K`` complex
eigenpairs ``mu_i + j omega_i``.  In discrete time each pair becomes a
2x2 scaled-rotation block

    exp(mu_i dt) * [[cos(omega_i dt), -sin(omega_i dt)],
                    [sin(omega_i dt),  cos(omega_i dt)]]

so the dynamics matrix is block-diagonal.  That structure is the entire
efficiency story of Fig. 5a: advancing the latent costs ``4K`` MACs
instead of the ``(2K)^2`` of a dense Koopman matrix, and stability is a
*parameterization constraint* (mu < 0) instead of a property to hope for.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn.layers import Module
from ..nn.tensor import Parameter

__all__ = ["SpectralKoopmanOperator"]


class SpectralKoopmanOperator(Module):
    """Block-diagonal linear latent dynamics z' = Lambda(mu, omega) z + B u.

    Parameters
    ----------
    n_pairs:
        Number of complex-conjugate eigenpairs ``K``; latent dim = 2K.
    action_dim:
        Dimension of the control input.
    dt:
        Discrete step the spectrum is integrated over.
    enforce_stability:
        When True (default), the continuous-time real parts are squashed
        to be strictly negative (``mu = -softplus(raw)``), guaranteeing a
        stable operator by construction.
    """

    def __init__(self, n_pairs: int, action_dim: int, dt: float = 0.02,
                 enforce_stability: bool = True,
                 rng: Optional[np.random.Generator] = None):
        if n_pairs < 1 or action_dim < 1:
            raise ValueError("n_pairs and action_dim must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.n_pairs = n_pairs
        self.action_dim = action_dim
        self.dt = dt
        self.enforce_stability = enforce_stability
        self.mu_raw = Parameter(rng.uniform(0.1, 1.0, size=n_pairs),
                                name="koopman.mu_raw")
        self.omega = Parameter(rng.uniform(-2.0, 2.0, size=n_pairs),
                               name="koopman.omega")
        self.b = Parameter(rng.normal(0, 0.1, size=(2 * n_pairs, action_dim)),
                           name="koopman.B")
        self._cache = None

    # ------------------------------------------------------------- spectrum
    @property
    def latent_dim(self) -> int:
        return 2 * self.n_pairs

    def mu(self) -> np.ndarray:
        """Continuous-time real parts of the eigenvalues."""
        if self.enforce_stability:
            return -np.logaddexp(0.0, self.mu_raw.data)  # -softplus
        return self.mu_raw.data.copy()

    def eigenvalues(self) -> np.ndarray:
        """Discrete-time complex eigenvalues exp((mu + j omega) dt)."""
        lam = (self.mu() + 1j * self.omega.data) * self.dt
        return np.exp(lam)

    def is_stable(self) -> bool:
        """All discrete eigenvalues strictly inside the unit circle."""
        return bool(np.all(np.abs(self.eigenvalues()) < 1.0))

    def dynamics_matrix(self) -> np.ndarray:
        """Dense (2K, 2K) block-diagonal realization of the spectrum."""
        k = self.n_pairs
        a = np.zeros((2 * k, 2 * k))
        decay = np.exp(self.mu() * self.dt)
        ang = self.omega.data * self.dt
        for i in range(k):
            c, s = np.cos(ang[i]), np.sin(ang[i])
            block = decay[i] * np.array([[c, -s], [s, c]])
            a[2 * i:2 * i + 2, 2 * i:2 * i + 2] = block
        return a

    # -------------------------------------------------------------- forward
    def advance(self, z: np.ndarray, u: np.ndarray) -> np.ndarray:
        """One latent step using only the block structure (4K MACs)."""
        z = np.atleast_2d(z)
        u = np.atleast_2d(u)
        k = self.n_pairs
        decay = np.exp(self.mu() * self.dt)
        ang = self.omega.data * self.dt
        c, s = np.cos(ang), np.sin(ang)
        zr = z[:, 0::2]
        zi = z[:, 1::2]
        out = np.empty_like(z)
        out[:, 0::2] = decay * (c * zr - s * zi)
        out[:, 1::2] = decay * (s * zr + c * zi)
        out = out + u @ self.b.data.T
        self._cache = (z, u, decay, c, s)
        return out

    def forward(self, zu: np.ndarray) -> np.ndarray:
        """Module interface: input is [z | u] concatenated."""
        z, u = zu[:, : self.latent_dim], zu[:, self.latent_dim:]
        return self.advance(z, u)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Gradients for mu_raw, omega, B, and the inputs."""
        z, u, decay, c, s = self._cache
        gr = grad[:, 0::2]
        gi = grad[:, 1::2]
        zr = z[:, 0::2]
        zi = z[:, 1::2]

        # d out / d B
        self.b.grad += grad.T @ u

        # Rotation-block partials.
        # out_r = decay (c zr - s zi);  out_i = decay (s zr + c zi)
        d_decay = (gr * (c * zr - s * zi) + gi * (s * zr + c * zi)).sum(axis=0)
        d_ang = (gr * decay * (-s * zr - c * zi)
                 + gi * decay * (c * zr - s * zi)).sum(axis=0)
        # chain: decay = exp(mu dt); ang = omega dt
        mu = self.mu()
        d_mu = d_decay * decay * self.dt
        if self.enforce_stability:
            # mu = -softplus(raw)  =>  dmu/draw = -sigmoid(raw)
            sig = 1.0 / (1.0 + np.exp(-np.clip(self.mu_raw.data, -60, 60)))
            self.mu_raw.grad += d_mu * (-sig)
        else:
            self.mu_raw.grad += d_mu
        self.omega.grad += d_ang * self.dt

        # Gradients w.r.t. inputs.
        dz = np.empty_like(z)
        dz[:, 0::2] = decay * (c * gr + s * gi)
        dz[:, 1::2] = decay * (-s * gr + c * gi)
        du = grad @ self.b.data
        return np.concatenate([dz, du], axis=1)

    # ------------------------------------------------------------- counting
    def prediction_macs(self) -> int:
        """MACs per latent step: 4 per pair + B u."""
        return 4 * self.n_pairs + self.latent_dim * self.action_dim
