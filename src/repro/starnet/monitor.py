"""The STARNet trust monitor (Sec. V, Fig. 6).

Two-stage mechanism:

1. **Offline** — a VAE learns the distribution of nominal task features.
2. **Online** — each incoming feature vector is scored with
   (SPSA-approximated) likelihood regret; scores are normalized against
   the calibration distribution and mapped to a trust value in [0, 1].

Implements the :class:`repro.core.Monitor` protocol so it can gate any
sensing-to-action loop.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.components import Monitor, Percept
from ..kernels import get_kernel, kernel_timer
from ..nn.vae import VAE, train_vae
from ..obs.registry import get_registry

__all__ = ["STARNet", "ScoreMethod"]

ScoreMethod = str  # "spsa" | "exact" | "recon"


class STARNet(Monitor):
    """VAE + likelihood-regret sensor-trust monitor."""

    def __init__(self, feature_dim: int, latent_dim: int = 6,
                 score_method: ScoreMethod = "spsa", spsa_steps: int = 25,
                 rng: Optional[np.random.Generator] = None):
        if score_method not in ("spsa", "exact", "recon"):
            raise ValueError(f"unknown score method {score_method!r}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.rng = rng
        self.feature_dim = feature_dim
        self.score_method = score_method
        self.spsa_steps = spsa_steps
        self.vae = VAE(feature_dim, latent_dim=latent_dim,
                       hidden=(48, 24), rng=rng)
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None
        self._cal_mean = 0.0
        self._cal_std = 1.0
        self._fitted = False

    # ------------------------------------------------------------- training
    def fit(self, nominal_features: np.ndarray, epochs: int = 40,
            calibration_fraction: float = 0.25) -> List[float]:
        """Train the VAE on nominal features and calibrate the score.

        A held-out calibration slice provides the nominal score
        distribution used to normalize online scores into trust values.
        """
        x = np.asarray(nominal_features, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.feature_dim:
            raise ValueError("features must be (N, feature_dim)")
        if x.shape[0] < 8:
            raise ValueError("need at least 8 nominal samples")
        self._mean = x.mean(axis=0)
        self._std = x.std(axis=0) + 1e-6
        xn = (x - self._mean) / self._std
        n_cal = max(4, int(len(xn) * calibration_fraction))
        train, cal = xn[:-n_cal], xn[-n_cal:]
        losses = train_vae(self.vae, train, epochs=epochs,
                           rng=np.random.default_rng(self.rng.integers(2 ** 31)))
        self._fitted = True
        cal_scores = self._raw_score_batch(cal)
        self._cal_mean = float(cal_scores.mean())
        self._cal_std = float(cal_scores.std() + 1e-6)
        return losses

    # -------------------------------------------------------------- scoring
    def _normalize(self, features: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("fit() the monitor before scoring")
        return (np.asarray(features, dtype=np.float64) - self._mean) / self._std

    def _raw_score_batch(self, xn: np.ndarray) -> np.ndarray:
        """Regret scores for a batch of already-normalized rows.

        Dispatched through the ``likelihood_regret`` kernel pair: the
        reference backend walks the rows one at a time through the
        original single-sample functions (consuming ``self.rng`` in row
        order), the vectorized backend runs the whole batch in lock-step.
        """
        xn = np.atleast_2d(np.asarray(xn, dtype=np.float64))
        if xn.shape[0] == 0:
            return np.zeros(0)
        if self.score_method == "spsa":
            get_registry().counter("starnet.spsa_iterations").inc(
                self.spsa_steps * xn.shape[0])
        with kernel_timer("likelihood_regret", "score_rows"):
            return get_kernel("likelihood_regret").score_rows(
                self.vae, xn, self.score_method, self.spsa_steps, self.rng)

    def _raw_score(self, xn: np.ndarray) -> float:
        return float(self._raw_score_batch(xn)[0])

    def score(self, features: np.ndarray) -> float:
        """Anomaly score of one feature vector (higher = more anomalous)."""
        return self._raw_score(self._normalize(features))

    def score_batch(self, features: np.ndarray) -> np.ndarray:
        return self._raw_score_batch(
            self._normalize(np.atleast_2d(features)))

    def zscore(self, features: np.ndarray) -> float:
        """Score standardized against the nominal calibration scores."""
        return (self.score(features) - self._cal_mean) / self._cal_std

    # ------------------------------------------------------- Monitor proto
    def assess(self, percept: Percept) -> float:
        """Trust in [0, 1]: sigmoid of the negated calibrated z-score."""
        obs = get_registry()
        with obs.trace_span("starnet.assess"):
            z = self.zscore(percept.features)
            trust = float(1.0 / (1.0 + np.exp(np.clip(z - 3.0, -60, 60))))
        obs.counter("starnet.assessments").inc()
        obs.histogram("starnet.trust").observe(trust)
        obs.histogram("starnet.zscore").observe(z)
        return trust

    def assess_batch(self, percepts: List[Percept]) -> np.ndarray:
        """Trust values for a batch of percepts in one scoring pass.

        Row ``i`` matches :meth:`assess` on ``percepts[i]`` within the
        ``likelihood_regret`` kernel drift tolerance, for every method:
        batched decodes re-associate BLAS sums, so even ``exact`` is not
        bit-identical (last-ulp gaps in a few rows).  ``spsa`` draws one
        seed per row from the monitor RNG in row order, exactly as
        sequential :meth:`assess` calls do, so both leave the RNG in the
        same state.  This is the monitor's micro-batch runner for the
        serving runtime.
        """
        if not percepts:
            return np.zeros(0)
        obs = get_registry()
        feats = np.stack([np.asarray(p.features, dtype=np.float64)
                          for p in percepts])
        with obs.trace_span("starnet.assess_batch"):
            scores = self._raw_score_batch(self._normalize(feats))
            z = (scores - self._cal_mean) / self._cal_std
            trust = 1.0 / (1.0 + np.exp(np.clip(z - 3.0, -60, 60)))
        obs.counter("starnet.assessments").inc(len(percepts))
        for ti, zi in zip(trust, z):
            obs.histogram("starnet.trust").observe(float(ti))
            obs.histogram("starnet.zscore").observe(float(zi))
        return trust
