"""Likelihood Regret with gradient-free (SPSA) optimization (Sec. V).

Likelihood Regret (Xiao et al.) scores how much a VAE's posterior must be
re-optimized for one specific input:

    LR(x) = max_q ELBO_q(x) - ELBO_encoder(x)

In-distribution inputs are already near-optimally encoded (small regret);
out-of-distribution inputs leave large ELBO on the table (large regret).
STARNet replaces the inner gradient ascent with SPSA so the score runs on
edge devices without backprop: 2 function evaluations per step
irrespective of latent dimension.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..nn.optim import SPSA
from ..nn.vae import VAE

__all__ = ["per_sample_elbo", "likelihood_regret_spsa",
           "likelihood_regret_exact", "reconstruction_error_score"]


def per_sample_elbo(vae: VAE, x: np.ndarray, mu: np.ndarray,
                    logvar: np.ndarray) -> float:
    """ELBO of one input under an arbitrary Gaussian posterior q(mu, logvar).

    Evaluates the *deterministic* bound at ``z = mu`` — no Monte-Carlo
    noise, which matters because the SPSA regret optimization compares
    ELBO values whose differences would otherwise be swamped by sampling
    variance.
    """
    x = np.atleast_2d(x)
    mu = np.atleast_2d(mu)
    logvar = np.atleast_2d(np.clip(logvar, -10.0, 10.0))
    recon = vae.decode(mu)
    recon_term = -float(np.sum((recon - x) ** 2))
    var = np.exp(logvar)
    kl = 0.5 * float(np.sum(var + mu ** 2 - 1.0 - logvar))
    return recon_term - kl


def _posterior_objective(vae: VAE, x: np.ndarray) -> Callable[[np.ndarray], float]:
    latent = vae.latent_dim

    def objective(theta: np.ndarray) -> float:
        mu = theta[:latent]
        logvar = theta[latent:]
        # Negative deterministic ELBO: SPSA minimizes.
        return -per_sample_elbo(vae, x, mu, logvar)

    return objective


def likelihood_regret_spsa(vae: VAE, x: np.ndarray, steps: int = 30,
                           rng: Optional[np.random.Generator] = None
                           ) -> float:
    """SPSA-approximated likelihood regret of a single feature vector.

    Uses normalized-gradient SPSA so the parameter-space step schedule is
    independent of the ELBO's magnitude: in-distribution inputs sit on a
    flat landscape (small steps suffice) while OOD inputs sit on a steep
    one (raw SPSA steps would explode).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    mu0, logvar0 = vae.encode(x)
    base_elbo = per_sample_elbo(vae, x, mu0, logvar0)
    theta0 = np.concatenate([mu0.ravel(), logvar0.ravel()])
    objective = _posterior_objective(vae, x)
    spsa = SPSA(a=1.0, c=0.1, normalize_gradient=True,
                rng=np.random.default_rng(rng.integers(2 ** 31)))
    _, best_neg_elbo, _ = spsa.minimize(objective, theta0, steps=steps)
    best_elbo = -best_neg_elbo
    return float(max(best_elbo - base_elbo, 0.0))


def likelihood_regret_exact(vae: VAE, x: np.ndarray, steps: int = 50,
                            lr: float = 0.05,
                            rng: Optional[np.random.Generator] = None
                            ) -> float:
    """Exact-gradient likelihood regret (the ablation reference).

    Optimizes the per-sample posterior mean by gradient ascent on the
    ELBO, using the decoder's gradient map (:meth:`VAE.decode_vjp`) for
    dELBO/dz.  Variance is held at the encoder's output (the mean shift
    dominates regret).  Leaves the VAE's caches and gradients untouched.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    mu, logvar = vae.encode(x)
    base_elbo = per_sample_elbo(vae, x, mu, logvar)
    mu_opt = mu.copy()
    best_elbo = base_elbo
    for _ in range(steps):
        recon, vjp = vae.decode_vjp(mu_opt)
        # d/dz of -(recon residual)^2 term
        grad_recon = -2.0 * (recon - x)
        dz = vjp(grad_recon)
        # d/dmu of -KL = -mu
        grad = dz - mu_opt
        mu_opt = mu_opt + lr * grad
        elbo = per_sample_elbo(vae, x, mu_opt, logvar)
        best_elbo = max(best_elbo, elbo)
    return float(max(best_elbo - base_elbo, 0.0))


def reconstruction_error_score(vae: VAE, x: np.ndarray,
                               rng: Optional[np.random.Generator] = None
                               ) -> float:
    """Plain reconstruction-error OOD score (the weak ablation baseline)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    mu, _ = vae.encode(x)
    recon = vae.decode(mu)
    return float(np.sum((recon - x) ** 2))
