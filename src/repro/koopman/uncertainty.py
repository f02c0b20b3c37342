"""Conformal uncertainty for Koopman predictions (Sec. IV future work).

"Incorporating uncertainty quantification within Koopman representations
to adjust sensing actions based on confidence estimates can help reduce
cascading errors in uncertain environments."

Split-conformal prediction: calibrate the distribution of prediction
residuals on held-out transitions; at runtime every prediction carries a
distribution-free radius valid at the requested coverage level.  The
radius is exactly the "confidence estimate" an action-to-sensing policy
can key sensing effort on.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

__all__ = ["ConformalPredictor", "uncertainty_to_coverage"]


class ConformalPredictor:
    """Split-conformal radius around any one-step dynamics predictor."""

    def __init__(self, predict: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        self._predict = predict
        self._scores: Optional[np.ndarray] = None

    def calibrate(self, z: np.ndarray, u: np.ndarray,
                  z_next: np.ndarray) -> None:
        """Store nonconformity scores (L2 residuals) on held-out data."""
        z, u, z_next = np.atleast_2d(z), np.atleast_2d(u), np.atleast_2d(z_next)
        if z.shape[0] < 2:
            raise ValueError("need at least 2 calibration transitions")
        pred = np.atleast_2d(self._predict(z, u))
        self._scores = np.sort(np.linalg.norm(pred - z_next, axis=1))

    def radius(self, alpha: float = 0.1) -> float:
        """Prediction-set radius at coverage 1 - alpha.

        Uses the finite-sample-valid quantile index
        ceil((n + 1)(1 - alpha)) / n.
        """
        if self._scores is None:
            raise RuntimeError("calibrate() before querying radii")
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        n = len(self._scores)
        k = int(np.ceil((n + 1) * (1 - alpha)))
        k = min(max(k, 1), n)
        return float(self._scores[k - 1])

    def empirical_coverage(self, z: np.ndarray, u: np.ndarray,
                           z_next: np.ndarray, alpha: float = 0.1) -> float:
        """Fraction of test transitions inside the radius (should be
        >= 1 - alpha up to finite-sample noise)."""
        pred = np.atleast_2d(self._predict(np.atleast_2d(z),
                                           np.atleast_2d(u)))
        errors = np.linalg.norm(pred - np.atleast_2d(z_next), axis=1)
        return float((errors <= self.radius(alpha)).mean())


def uncertainty_to_coverage(radius: float, nominal_radius: float,
                            min_coverage: float = 0.1) -> float:
    """Map a conformal radius into a sensing-coverage command.

    When the model is confident (radius at or below its nominal
    calibration), sensing can be frugal; as uncertainty grows, coverage
    ramps linearly to full fidelity — closing the uncertainty-aware
    action-to-sensing loop the paper proposes.
    """
    if nominal_radius <= 0:
        raise ValueError("nominal radius must be positive")
    excess = max(radius / nominal_radius - 1.0, 0.0)
    return float(np.clip(min_coverage + excess, min_coverage, 1.0))
