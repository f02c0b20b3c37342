"""Loss functions: each returns ``(value, gradient_wrt_prediction)``.

The gradient convention matches the layers' ``backward``: gradients are of
the *mean* loss over the batch unless noted otherwise.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "mse_loss",
    "bce_with_logits",
    "softmax",
    "cross_entropy_with_logits",
    "info_nce",
    "gaussian_kl",
]

_CLIP = 60.0


def mse_loss(pred: np.ndarray, target: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean squared error and its gradient."""
    diff = pred - target
    loss = float(np.mean(diff ** 2))
    grad = 2.0 * diff / diff.size
    return loss, grad


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -_CLIP, _CLIP)))


def bce_with_logits(logits: np.ndarray, target: np.ndarray,
                    weight: Optional[np.ndarray] = None) -> Tuple[float, np.ndarray]:
    """Binary cross-entropy on logits (stable log-sum-exp form).

    Used by the R-MAE occupancy decoder: each voxel is an independent
    occupied/empty Bernoulli.  ``weight`` optionally reweights elements
    (e.g. to balance the sparse-occupancy class skew).
    """
    z = np.clip(logits, -_CLIP, _CLIP)
    per = np.maximum(z, 0) - z * target + np.log1p(np.exp(-np.abs(z)))
    p = _sigmoid(z)
    grad = p - target
    if weight is not None:
        per = per * weight
        grad = grad * weight
    n = per.size
    return float(per.sum() / n), grad / n


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def cross_entropy_with_logits(logits: np.ndarray,
                              labels: np.ndarray) -> Tuple[float, np.ndarray]:
    """Multiclass cross-entropy; ``labels`` are integer class indices."""
    n = logits.shape[0]
    p = softmax(logits)
    idx = (np.arange(n), labels)
    loss = float(-np.log(np.clip(p[idx], 1e-12, None)).mean())
    grad = p.copy()
    grad[idx] -= 1.0
    return loss, grad / n


def info_nce(queries: np.ndarray, keys: np.ndarray,
             temperature: float = 0.1) -> Tuple[float, np.ndarray, np.ndarray]:
    """InfoNCE contrastive loss between matched query/key batches.

    Row ``i`` of ``queries`` should match row ``i`` of ``keys``; every
    other row is a negative.  Returns ``(loss, grad_queries, grad_keys)``.
    This is the contrastive term of the spectral Koopman encoder (Sec. IV).
    """
    n = queries.shape[0]
    logits = queries @ keys.T / temperature
    p = softmax(logits)
    idx = (np.arange(n), np.arange(n))
    loss = float(-np.log(np.clip(p[idx], 1e-12, None)).mean())
    dlogits = p.copy()
    dlogits[idx] -= 1.0
    dlogits /= n * temperature
    grad_q = dlogits @ keys
    grad_k = dlogits.T @ queries
    return loss, grad_q, grad_k


def gaussian_kl(mu: np.ndarray, logvar: np.ndarray) -> Tuple[float, np.ndarray, np.ndarray]:
    """KL( N(mu, exp(logvar)) || N(0, I) ), summed over latent dims, mean
    over batch.  Returns ``(value, grad_mu, grad_logvar)``.

    This is the VAE regularizer used by STARNet's feature-distribution
    model.
    """
    n = mu.shape[0]
    var = np.exp(np.clip(logvar, -_CLIP, _CLIP))
    kl = 0.5 * (var + mu ** 2 - 1.0 - logvar)
    grad_mu = mu / n
    grad_logvar = 0.5 * (var - 1.0) / n
    return float(kl.sum() / n), grad_mu, grad_logvar
