"""Average Precision evaluation for BEV object detection (Table I metric).

Predictions are matched greedily to ground-truth centres by BEV distance
(the nuScenes-style centre-distance criterion — rotated-IoU matching adds
nothing at our grid resolution).  AP is the area under the all-point
interpolated precision/recall curve, evaluated per class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..kernels import get_kernel, kernel_timer

__all__ = ["Detection", "compute_ap", "evaluate_class", "MATCH_DISTANCE_M"]

# Class-specific centre-distance match thresholds (metres).  Larger
# objects tolerate larger centre offsets.
MATCH_DISTANCE_M: Dict[str, float] = {
    "Car": 4.0,
    "Pedestrian": 2.5,
    "Cyclist": 2.5,
}


@dataclass(frozen=True)
class Detection:
    """One predicted object: class, BEV centre, confidence."""

    cls: str
    x: float
    y: float
    score: float


def _match_scene(preds: List[Detection], gts: np.ndarray,
                 max_dist: float) -> List[Tuple[float, bool]]:
    """Greedy per-scene matching.

    Returns (score, is_true_positive) per prediction, highest-score
    first; each ground truth may be claimed once.  Dispatched through
    the ``bev_match`` kernel pair (per-GT Python scan vs one broadcast
    distance matrix); both backends are exactly equivalent because
    ``np.hypot`` is an elementwise ufunc.
    """
    with kernel_timer("bev_match", "match_scene"):
        return get_kernel("bev_match").match_scene(preds, gts, max_dist)


def compute_ap(matches: Sequence[Tuple[float, bool]],
               n_ground_truth: int) -> float:
    """All-point interpolated AP from (score, tp) pairs.

    Returns AP in [0, 1]; 0 when there are no ground truths or no
    predictions.
    """
    if n_ground_truth == 0:
        return 0.0
    if not matches:
        return 0.0
    order = sorted(matches, key=lambda m: -m[0])
    tp = np.array([m[1] for m in order], dtype=np.float64)
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(1.0 - tp)
    recall = cum_tp / n_ground_truth
    precision = cum_tp / np.maximum(cum_tp + cum_fp, 1e-12)
    # All-point interpolation: make precision monotone non-increasing.
    for i in range(len(precision) - 2, -1, -1):
        precision[i] = max(precision[i], precision[i + 1])
    # Integrate P dR.
    ap = 0.0
    prev_r = 0.0
    for r, p in zip(recall, precision):
        ap += (r - prev_r) * p
        prev_r = r
    return float(np.clip(ap, 0.0, 1.0))


def evaluate_class(per_scene_preds: Sequence[List[Detection]],
                   per_scene_gts: Sequence[np.ndarray],
                   cls: str) -> float:
    """AP (in percent) for one class over a dataset of scenes."""
    if len(per_scene_preds) != len(per_scene_gts):
        raise ValueError("prediction/GT scene count mismatch")
    max_dist = MATCH_DISTANCE_M.get(cls, 3.0)
    matches: List[Tuple[float, bool]] = []
    n_gt = 0
    for preds, gts in zip(per_scene_preds, per_scene_gts):
        cls_preds = [p for p in preds if p.cls == cls]
        gts = np.asarray(gts).reshape(-1, 2)
        n_gt += len(gts)
        matches.extend(_match_scene(cls_preds, gts, max_dist))
    return 100.0 * compute_ap(matches, n_gt)
