"""Variational Autoencoder on feature vectors (STARNet's density model).

STARNet (Sec. V) models the distribution of intermediate task-network
features with a VAE and flags inputs whose likelihood-regret is large.
This VAE works on flat feature vectors: encoder -> (mu, logvar) ->
reparameterize -> decoder -> Gaussian reconstruction likelihood.  The
monitor scores inputs through :func:`repro.starnet.per_sample_elbo`
(the deterministic bound at ``z = mu``) and the regret kernels.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .layers import Dense, Module, ReLU
from .losses import gaussian_kl, mse_loss
from .optim import Adam
from .sequential import mlp

__all__ = ["VAE", "train_vae"]


class VAE(Module):
    """Gaussian-latent, Gaussian-observation VAE for feature vectors."""

    def __init__(self, input_dim: int, latent_dim: int = 8,
                 hidden: Sequence[int] = (64, 32),
                 rng: Optional[np.random.Generator] = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_dim = input_dim
        self.latent_dim = latent_dim
        self.rng = rng
        self.encoder = mlp([input_dim, *hidden], rng=rng, name="vae.enc")
        # The encoder trunk ends in an activation; heads map to mu/logvar.
        self.enc_act = ReLU()
        self.mu_head = Dense(hidden[-1], latent_dim, rng=rng, name="vae.mu")
        self.logvar_head = Dense(hidden[-1], latent_dim, rng=rng, name="vae.logvar")
        self.decoder = mlp([latent_dim, *reversed(hidden), input_dim], rng=rng,
                           name="vae.dec")
        self._cache = None

    def encode(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior (mu, logvar) rows; pure inference, no cache touched."""
        h = self.enc_act.forward_batch(self.encoder.forward_batch(x))
        return self.mu_head.forward_batch(h), \
            self.logvar_head.forward_batch(h)

    def decode(self, z: np.ndarray) -> np.ndarray:
        """Reconstruction rows; pure inference, no cache touched."""
        return self.decoder.forward_batch(z)

    def decode_vjp(self, z: np.ndarray
                   ) -> Tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """:meth:`decode` and the gradient map back to ``z``.

        ``vjp(g)`` is what ``decoder.backward(g)`` returns after a
        training decode of ``z`` — the same ``g @ W.T`` chain through the
        same ReLU masks, bit for bit — but the decode keeps its
        activations to itself: no layer cache is written and no weight
        gradient accumulates.
        """
        pullbacks = []
        x = z
        for layer in self.decoder.layers:
            if isinstance(layer, Dense):
                x = layer.forward_batch(x)
                pullbacks.append(lambda g, w=layer.weight.data: g @ w.T)
            elif isinstance(layer, ReLU):
                mask = x > 0
                x = np.where(mask, x, 0.0)
                pullbacks.append(lambda g, m=mask: g * m)
            else:
                raise TypeError(f"decode_vjp: no pullback for "
                                f"{type(layer).__name__}")

        def vjp(g: np.ndarray) -> np.ndarray:
            for pullback in reversed(pullbacks):
                g = pullback(g)
            return g

        return x, vjp

    def loss_and_grads(self, x: np.ndarray, beta: float = 1.0) -> float:
        """One training step's loss; accumulates gradients on parameters."""
        h_enc = self.encoder(x)
        h = self.enc_act(h_enc)
        mu = self.mu_head(h)
        logvar = self.logvar_head(h)
        eps = self.rng.standard_normal(mu.shape)
        std = np.exp(0.5 * np.clip(logvar, -30, 30))
        z = mu + std * eps
        recon = self.decoder(z)

        recon_loss, d_recon = mse_loss(recon, x)
        # Scale so the reconstruction term is summed over dims, mean over batch
        # (the standard VAE convention) rather than mean over all elements.
        scale = x.shape[-1]
        recon_loss *= scale
        d_recon = d_recon * scale
        kl, d_mu_kl, d_logvar_kl = gaussian_kl(mu, logvar)

        dz = self.decoder.backward(d_recon)
        d_mu = dz + d_mu_kl * beta
        d_logvar = dz * eps * std * 0.5 + d_logvar_kl * beta
        dh = self.mu_head.backward(d_mu) + self.logvar_head.backward(d_logvar)
        self.encoder.backward(self.enc_act.backward(dh))
        return float(recon_loss + beta * kl)


def train_vae(vae: VAE, data: np.ndarray, epochs: int = 30,
              batch_size: int = 32, lr: float = 1e-3, beta: float = 1.0,
              rng: Optional[np.random.Generator] = None,
              cache=None) -> list:
    """Train a VAE on feature rows; returns per-epoch mean losses.

    Deterministic given (architecture, data, hyper-parameters, RNG
    state) and therefore memoized through the artifact cache; pass
    ``cache=False`` to force recomputation (``REPRO_CACHE=0`` disables
    globally).
    """
    from ..runtime.cache import cached_fit

    rng = rng if rng is not None else np.random.default_rng(0)

    def train() -> list:
        opt = Adam(vae.parameters(), lr=lr)
        n = data.shape[0]
        losses = []
        for _ in range(epochs):
            order = rng.permutation(n)
            epoch_loss, batches = 0.0, 0
            for start in range(0, n, batch_size):
                batch = data[order[start:start + batch_size]]
                opt.zero_grad()
                loss = vae.loss_and_grads(batch, beta=beta)
                opt.step()
                epoch_loss += loss
                batches += 1
            losses.append(epoch_loss / max(batches, 1))
        return losses

    return cached_fit(
        "vae_train",
        {"data": data, "epochs": epochs, "batch_size": batch_size,
         "lr": lr, "beta": beta},
        vae, rng, train, cache=cache)
