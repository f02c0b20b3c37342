"""Contrastive spectral Koopman encoder (Sec. IV, Fig. 4).

"This encoder generates key and query samples for each observation at
time t, where positive samples apply random cropping augmentations to the
state x_t, and negative samples use augmentations on other states.  The
query encoder maps visual observations to a complex-valued Koopman
embedding space with learnable eigenvalues."

Implementation: a query MLP encoder over rendered observations, a
momentum (EMA) key encoder, InfoNCE contrastive training with
random-crop augmentation, and a next-latent prediction loss that couples
the encoder to the spectral operator.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn.losses import info_nce, mse_loss
from ..nn.optim import Adam
from ..nn.sequential import mlp
from ..sim.cartpole import render_observation
from .spectral import SpectralKoopmanOperator

__all__ = ["ContrastiveKoopmanEncoder"]


class ContrastiveKoopmanEncoder:
    """Query/key visual encoder into the Koopman embedding space.

    Parameters
    ----------
    image_size:
        Side length of the rendered observation (flattened as input).
    n_pairs:
        Eigenpair count of the operator; latent dim = 2 * n_pairs.
    momentum:
        EMA coefficient for the key encoder update.
    """

    def __init__(self, image_size: int, n_pairs: int, action_dim: int = 1,
                 hidden: Sequence[int] = (96, 64), momentum: float = 0.99,
                 temperature: float = 0.1, dt: float = 0.02,
                 rng: Optional[np.random.Generator] = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.rng = rng
        self.image_size = image_size
        self.latent_dim = 2 * n_pairs
        self.momentum = momentum
        self.temperature = temperature
        sizes = [image_size * image_size, *hidden, self.latent_dim]
        self.query = mlp(sizes, rng=rng, name="koop.query")
        self.key = mlp(sizes, rng=rng, name="koop.key")
        self._sync_key(hard=True)
        for p in self.key.parameters():
            p.trainable = False
        self.operator = SpectralKoopmanOperator(n_pairs, action_dim, dt=dt,
                                                rng=rng)
        self.opt = Adam(self.query.parameters() + self.operator.parameters(),
                        lr=1e-3)

    # ------------------------------------------------------------ encoders
    def _sync_key(self, hard: bool = False) -> None:
        m = 0.0 if hard else self.momentum
        for pq, pk in zip(self.query.parameters(), self.key.parameters()):
            pk.data = m * pk.data + (1.0 - m) * pq.data

    def encode(self, images: np.ndarray) -> np.ndarray:
        """Query-encode a batch of images (N, S, S) -> (N, latent)."""
        flat = np.atleast_3d(images).reshape(images.shape[0] if images.ndim == 3
                                             else 1, -1)
        return self.query.forward(flat)

    def encode_key(self, images: np.ndarray) -> np.ndarray:
        flat = np.atleast_3d(images).reshape(images.shape[0] if images.ndim == 3
                                             else 1, -1)
        return self.key.forward(flat)

    def encode_state(self, state: np.ndarray) -> np.ndarray:
        """Render a cart-pole state and encode it (single latent row)."""
        img = render_observation(state, size=self.image_size)
        return self.encode(img[None])[0]

    # ------------------------------------------------------------ training
    def _augment(self, states: np.ndarray) -> np.ndarray:
        """Random-crop-augmented renders of a batch of states."""
        return np.stack([
            render_observation(s, size=self.image_size, crop_jitter=2,
                               rng=self.rng)
            for s in states
        ])

    def contrastive_step(self, states: np.ndarray) -> float:
        """One InfoNCE step over a batch of states.

        Two independent augmentations per state; query views meet key
        views, negatives are the other rows of the batch.
        """
        queries = self.encode(self._augment(states))
        keys = self.encode_key(self._augment(states))
        loss, grad_q, _ = info_nce(queries, keys, self.temperature)
        self.opt.zero_grad()
        self.query.backward(grad_q)
        self.opt.step()
        self._sync_key()
        return loss

    def prediction_step(self, states: np.ndarray, actions: np.ndarray,
                        next_states: np.ndarray) -> float:
        """Next-latent prediction loss regularizing the operator.

        Minimizes || K(phi(x_t), u_t) - sg(phi_key(x_{t+1})) ||^2 —
        training both the encoder (through z_t) and the spectral
        parameters.
        """
        z = self.encode(self._augment(states))
        u = np.atleast_2d(actions)
        if u.shape[0] != z.shape[0]:
            u = u.reshape(z.shape[0], -1)
        z_pred = self.operator.advance(z, u)
        z_target = self.encode_key(self._augment(next_states))
        loss, grad = mse_loss(z_pred, z_target)
        self.opt.zero_grad()
        grad_zu = self.operator.backward(grad)
        self.query.backward(grad_zu[:, : self.latent_dim])
        self.opt.step()
        self._sync_key()
        return loss

    def train(self, states: np.ndarray, actions: np.ndarray,
              next_states: np.ndarray, epochs: int = 10,
              batch_size: int = 32) -> Tuple[List[float], List[float]]:
        """Alternate contrastive and prediction steps over the dataset."""
        n = states.shape[0]
        con_losses, pred_losses = [], []
        for _ in range(epochs):
            order = self.rng.permutation(n)
            c_total, p_total, batches = 0.0, 0.0, 0
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                if idx.size < 2:
                    continue
                c_total += self.contrastive_step(states[idx])
                p_total += self.prediction_step(states[idx], actions[idx],
                                                next_states[idx])
                batches += 1
            con_losses.append(c_total / max(batches, 1))
            pred_losses.append(p_total / max(batches, 1))
        return con_losses, pred_losses
