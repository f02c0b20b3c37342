"""Context-aware anomaly thresholds (Sec. V future work).

"Future enhancements include context-aware anomaly detection to reduce
false positives ..."

:class:`ContextAwareThreshold` calibrates anomaly thresholds *per context
bucket* (e.g. scene density): a score that is normal in a cluttered
scene can be anomalous in an empty one; global thresholds must slacken
to cover both, costing false negatives — or tighten, costing false
positives.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = ["ContextAwareThreshold"]


class ContextAwareThreshold:
    """Per-context anomaly thresholds from nominal score quantiles."""

    def __init__(self, n_buckets: int = 3, quantile: float = 0.95):
        if n_buckets < 1:
            raise ValueError("need at least one bucket")
        if not 0.5 < quantile < 1.0:
            raise ValueError("quantile must be in (0.5, 1)")
        self.n_buckets = n_buckets
        self.quantile = quantile
        self._edges: Optional[np.ndarray] = None
        self._thresholds: Optional[np.ndarray] = None

    def fit(self, contexts: Sequence[float],
            scores: Sequence[float]) -> "ContextAwareThreshold":
        """Calibrate bucket edges and per-bucket score thresholds."""
        contexts = np.asarray(contexts, dtype=np.float64)
        scores = np.asarray(scores, dtype=np.float64)
        if contexts.shape != scores.shape or contexts.size < 2 * self.n_buckets:
            raise ValueError("need matching arrays with enough samples")
        qs = np.linspace(0, 1, self.n_buckets + 1)[1:-1]
        self._edges = np.quantile(contexts, qs)
        buckets = np.digitize(contexts, self._edges)
        thresholds = np.empty(self.n_buckets)
        global_thr = float(np.quantile(scores, self.quantile))
        for b in range(self.n_buckets):
            in_bucket = scores[buckets == b]
            thresholds[b] = (float(np.quantile(in_bucket, self.quantile))
                             if in_bucket.size >= 3 else global_thr)
        self._thresholds = thresholds
        return self

    def bucket(self, context: float) -> int:
        if self._edges is None:
            raise RuntimeError("fit() before use")
        return int(np.digitize([context], self._edges)[0])

    def threshold(self, context: float) -> float:
        if self._thresholds is None:
            raise RuntimeError("fit() before use")
        return float(self._thresholds[self.bucket(context)])

    def is_anomalous(self, context: float, score: float) -> bool:
        return score > self.threshold(context)

    def false_positive_rate(self, contexts: Sequence[float],
                            scores: Sequence[float]) -> float:
        """FPR on a nominal stream (should sit near 1 - quantile)."""
        flags = [self.is_anomalous(c, s)
                 for c, s in zip(contexts, scores)]
        return float(np.mean(flags))
