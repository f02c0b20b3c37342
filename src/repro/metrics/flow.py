"""Optical-flow metrics (Sec. VI): average endpoint error."""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["average_endpoint_error"]


def average_endpoint_error(pred: np.ndarray, target: np.ndarray,
                           mask: Optional[np.ndarray] = None) -> float:
    """Mean Euclidean distance between predicted and true flow vectors.

    ``pred`` and ``target`` are (2, H, W) (dx, dy) fields; ``mask``
    optionally restricts the average to valid pixels (events-only
    evaluation on MVSEC uses a mask of pixels with events).
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.shape[0] != 2:
        raise ValueError("flow fields must both be (2, H, W)")
    err = np.sqrt(((pred - target) ** 2).sum(axis=0))
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != err.shape:
            raise ValueError("mask shape mismatch")
        if not mask.any():
            return 0.0
        return float(err[mask].mean())
    return float(err.mean())
