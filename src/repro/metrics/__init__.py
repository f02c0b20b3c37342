"""``repro.metrics`` — shared evaluation metrics (AUC, optical flow)."""

from .auc import roc_auc
from .flow import average_endpoint_error

__all__ = ["roc_auc", "average_endpoint_error"]
