"""ROC / AUC utilities for anomaly-detection evaluation (Sec. V)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["roc_auc"]


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Area under the ROC curve via the Mann-Whitney statistic.

    Exactly handles ties; 0.5 means the score cannot separate the
    classes, 1.0 means perfect separation.  Degenerate single-class
    input (all-positive or all-negative labels) carries no separation
    evidence, so it returns chance level 0.5 rather than the NaN a
    naive 0/0 normalization would produce — monitors evaluating a batch
    that happens to be all-nominal keep a well-defined reading.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have the same shape")
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        return 0.5
    # Rank-sum formulation with midranks for ties.
    combined = np.concatenate([pos, neg])
    order = np.argsort(combined, kind="stable")
    ranks = np.empty_like(combined)
    ranks[order] = np.arange(1, combined.size + 1, dtype=np.float64)
    # midranks for ties
    sorted_scores = combined[order]
    i = 0
    while i < combined.size:
        j = i
        while j + 1 < combined.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        if j > i:
            mid = (i + j + 2) / 2.0
            for k in range(i, j + 1):
                ranks[order[k]] = mid
        i = j + 1
    rank_sum = ranks[: pos.size].sum()
    u = rank_sum - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))
