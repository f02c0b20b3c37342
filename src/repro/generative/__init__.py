"""``repro.generative`` — generative sensing / R-MAE (Sec. III)."""

from .baselines import PRETRAIN_METHODS, pretrain_also, pretrain_occmae
from .energy_account import (
    EDGE_GPU_PJ_PER_FLOP,
    EnergyReport,
    compare_energy,
    energy_ratio,
    reconstruction_energy_mj,
)
from .rmae import RMAE, RMAEConfig, pretrain_rmae, reconstruction_iou

__all__ = [
    "RMAE", "RMAEConfig", "pretrain_rmae", "reconstruction_iou",
    "pretrain_occmae", "pretrain_also", "PRETRAIN_METHODS",
    "EnergyReport", "compare_energy", "energy_ratio",
    "reconstruction_energy_mj", "EDGE_GPU_PJ_PER_FLOP",
]
