"""Temporal-consistency monitoring (Sec. V future work).

"Future enhancements include ... temporal consistency checks for
detecting gradual sensor degradation."

A single-shot anomaly score misses slow drift: each individual reading
looks plausible, but the *trend* is monotone.  :class:`DriftDetector`
tracks two exponential moving averages of the anomaly score at different
timescales and flags when the fast average departs from the slow one by
a calibrated margin (a CUSUM-flavoured EWMA test).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

__all__ = ["DriftDetector"]


class DriftDetector:
    """Two-timescale EWMA drift test on a stream of anomaly scores."""

    def __init__(self, fast: float = 0.3, slow: float = 0.02,
                 threshold_sigma: float = 3.0, warmup: int = 10):
        if not 0 < slow < fast <= 1:
            raise ValueError("need 0 < slow < fast <= 1")
        if warmup < 2:
            raise ValueError("warmup must be >= 2")
        self.fast_alpha = fast
        self.slow_alpha = slow
        self.threshold_sigma = threshold_sigma
        self.warmup = warmup
        self._fast: Optional[float] = None
        self._slow: Optional[float] = None
        self._var: float = 0.0
        self._n = 0

    def update(self, score: float) -> bool:
        """Feed one score; returns True when drift is detected."""
        score = float(score)
        self._n += 1
        if self._fast is None:
            self._fast = self._slow = score
            return False
        prev_fast = self._fast
        self._fast = (1 - self.fast_alpha) * self._fast \
            + self.fast_alpha * score
        self._slow = (1 - self.slow_alpha) * self._slow \
            + self.slow_alpha * score
        # Noise scale is estimated around the *fast* average: the fast
        # EWMA tracks any drift closely, so its residuals measure pure
        # noise.  (Estimating around the slow average would let sustained
        # drift inflate the threshold and mask itself.)
        dev = abs(score - prev_fast)
        self._var = 0.95 * self._var + 0.05 * dev * dev
        if self._n < self.warmup:
            return False
        sigma = np.sqrt(self._var) + 1e-9
        return (self._fast - self._slow) > self.threshold_sigma * sigma

    @property
    def gap(self) -> float:
        """Current fast-slow EWMA gap (signed; positive = rising scores)."""
        if self._fast is None:
            return 0.0
        return self._fast - self._slow

    def monitor_stream(self, scores: List[float]) -> Optional[int]:
        """Convenience: first index at which drift fires (None if never)."""
        for i, s in enumerate(scores):
            if self.update(s):
                return i
        return None
