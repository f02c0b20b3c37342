"""STARNet likelihood-regret scoring kernels.

Reference: one row at a time through the original functions in
``repro.starnet.likelihood_regret``, consuming the monitor RNG in row
order — exactly the stream the committed goldens saw.

Vectorized: the whole evaluation batch at once.  The deterministic
per-row ELBO is a batched encode/decode plus row-wise reductions; the
SPSA inner optimization runs all rows in lock-step (each row keeps its
own delta generator so the perturbation streams match the reference
draw-for-draw: seeds are pulled from the shared RNG in the same row
order the reference pulls them).  Each SPSA step stacks its three
evaluations, f(θ_k) and f(θ_k ± c_kδ_k), into one decoder GEMM, and
exact regret decodes each iterate once: ``steps + 1`` decodes per
score where the reference makes ``3·steps + 2`` (SPSA) and
``2·steps + 1`` (exact), 26 and 51 at the monitor's defaults.  Exact
regret pulls dz back through :meth:`VAE.decode_vjp`, so no score
computes a weight gradient or writes a layer cache.  Drift vs the
reference is BLAS re-association only.

Kernel API: ``score_rows(vae, X, method, spsa_steps, rng) -> (B,)``.
"""

from __future__ import annotations

import numpy as np

from . import register_kernel

# SPSA hyper-parameters pinned by likelihood_regret_spsa (must track
# repro.nn.optim.SPSA defaults for alpha/gamma/a_stability).
_SPSA_A = 1.0
_SPSA_C = 0.1
_SPSA_ALPHA = 0.602
_SPSA_GAMMA = 0.101
_SPSA_STABILITY = 10.0
_EXACT_STEPS = 50
_EXACT_LR = 0.05


class ReferenceLikelihoodRegret:
    """Row-at-a-time scoring through the original single-sample code."""

    def score_rows(self, vae, X, method, spsa_steps, rng) -> np.ndarray:
        from ..starnet.likelihood_regret import (
            likelihood_regret_exact, likelihood_regret_spsa,
            reconstruction_error_score)

        out = []
        for row in X:
            if method == "spsa":
                out.append(likelihood_regret_spsa(
                    vae, row, steps=spsa_steps, rng=rng))
            elif method == "exact":
                out.append(likelihood_regret_exact(vae, row, rng=rng))
            else:
                out.append(reconstruction_error_score(vae, row, rng=rng))
        return np.asarray(out, dtype=np.float64)


def elbo_rows(X: np.ndarray, mu: np.ndarray, logvar: np.ndarray,
              recon: np.ndarray) -> np.ndarray:
    """Deterministic per-row ELBO at z = mu (batched per_sample_elbo),
    from ``recon``, the decode of mu.  Written as the ufunc calls that
    ``np.clip`` and ``np.sum`` make (the same values bit for bit), since
    the SPSA step calls it once per step."""
    logvar = np.minimum(np.maximum(logvar, -10.0), 10.0)
    recon_term = -np.add.reduce((recon - X) ** 2, axis=1)
    kl = 0.5 * np.add.reduce(np.exp(logvar) + mu ** 2 - 1.0 - logvar,
                             axis=1)
    return recon_term - kl


class VectorizedLikelihoodRegret:
    """Whole-batch regret: lock-step SPSA / batched gradient ascent."""

    def score_rows(self, vae, X, method, spsa_steps, rng) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[0] == 0:
            return np.zeros(0)
        if method == "spsa":
            return self._spsa(vae, X, spsa_steps, rng)
        if method == "exact":
            return self._exact(vae, X)
        mu, _ = vae.encode(X)
        recon = vae.decode(mu)
        return np.sum((recon - X) ** 2, axis=1)

    def _spsa(self, vae, X, steps, rng) -> np.ndarray:
        """One stacked decode per step: ``[θ_k, θ_k + c_kδ_k,
        θ_k − c_kδ_k]``.

        The reference evaluates f(θ_k) after each update and the next
        step's f(θ_k ± c_kδ_k) apart, yet all three depend only on θ_k
        and δ_k, so they share one decoder pass (``steps + 1`` decodes
        per score; step 0's θ_0 rows are also the base ELBO).  The three
        blocks live in one preallocated array, θ_k updated in place, and
        the row norms are the ufunc calls ``np.linalg.norm`` would make:
        the same values bit for bit, in fewer Python calls per step.
        """
        latent = vae.latent_dim
        b = X.shape[0]
        mu0, logvar0 = vae.encode(X)
        # One generator per row, seeded in row order from the shared RNG
        # — the exact draws the reference makes inside its per-row loop.
        # Each row's Rademacher signs for every step come from one
        # ``integers`` call: the same stream, step by step, as the
        # reference's per-step ``choice([-1.0, 1.0])``.
        signs = np.stack([
            np.random.default_rng(rng.integers(2 ** 31)).integers(
                0, 2, size=(steps, 2 * latent))
            for _ in range(b)], axis=1) * 2.0 - 1.0
        X3 = np.concatenate([X, X, X])
        stack = np.empty((3 * b, 2 * latent))
        theta, plus, minus = stack[:b], stack[b:2 * b], stack[2 * b:]
        theta[:, :latent] = mu0
        theta[:, latent:] = logvar0
        f_iterates = np.empty((steps + 1, b))   # f(θ_0) .. f(θ_steps)

        def neg_elbo(th: np.ndarray, rows: np.ndarray) -> np.ndarray:
            mu = th[:, :latent]
            return -elbo_rows(rows, mu, th[:, latent:], vae.decode(mu))

        for k in range(steps):
            ak = _SPSA_A / (k + 1 + _SPSA_STABILITY) ** _SPSA_ALPHA
            ck = _SPSA_C / (k + 1) ** _SPSA_GAMMA
            delta = signs[k]
            step = ck * delta
            np.add(theta, step, out=plus)
            np.subtract(theta, step, out=minus)
            f = neg_elbo(stack, X3)
            f_iterates[k] = f[:b]
            ghat = ((f[b:2 * b] - f[2 * b:]) / (2.0 * ck))[:, None] * delta
            # Normalized-gradient SPSA, per row.
            norms = np.sqrt(np.add.reduce(ghat * ghat, axis=1))
            theta -= ak * (ghat / np.where(norms > 0, norms, 1.0)[:, None])
        f_iterates[steps] = neg_elbo(theta, X)
        base = -f_iterates[0]
        return np.maximum(-f_iterates.min(axis=0) - base, 0.0)

    def _exact(self, vae, X) -> np.ndarray:
        """Gradient ascent decoding each iterate once: the decode that
        scores μ_{k+1} also gives the gradient map the next step follows
        (``steps + 1`` decodes per score), and no weight gradient is
        computed."""
        mu, logvar = vae.encode(X)
        recon, vjp = vae.decode_vjp(mu)
        base = elbo_rows(X, mu, logvar, recon)
        mu_opt = mu
        best = base
        for _ in range(_EXACT_STEPS):
            dz = vjp(-2.0 * (recon - X))
            mu_opt = mu_opt + _EXACT_LR * (dz - mu_opt)
            recon, vjp = vae.decode_vjp(mu_opt)
            best = np.maximum(best, elbo_rows(X, mu_opt, logvar, recon))
        return np.maximum(best - base, 0.0)


register_kernel("likelihood_regret", "reference",
                ReferenceLikelihoodRegret())
register_kernel("likelihood_regret", "vectorized",
                VectorizedLikelihoodRegret())
