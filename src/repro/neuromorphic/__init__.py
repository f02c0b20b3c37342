"""``repro.neuromorphic`` — spiking sensing-action loops (Sec. VI)."""

from .dotie import DOTIE, BoundingBox
from .energy import (
    E_AC_PJ,
    E_MAC_PJ,
    ann_energy_pj,
    snn_energy_pj,
)
from .flow_models import (
    FLOW_MODEL_FAMILIES,
    AdaptiveSpikeNet,
    EvFlowNet,
    FlowModel,
    FusionFlowNet,
    SpikeFlowNet,
    build_flow_model,
    evaluate_aee,
    per_sample_aee,
    train_flow_model,
)
from .neurons import LIFParameters, lif_step, surrogate_gradient
from .snn import SpikingConv2d, spike_rate

__all__ = [
    "lif_step", "surrogate_gradient", "LIFParameters",
    "SpikingConv2d", "spike_rate",
    "E_MAC_PJ", "E_AC_PJ", "ann_energy_pj", "snn_energy_pj",
    "FlowModel", "EvFlowNet", "SpikeFlowNet", "FusionFlowNet",
    "AdaptiveSpikeNet", "FLOW_MODEL_FAMILIES", "build_flow_model",
    "train_flow_model", "per_sample_aee", "evaluate_aee",
    "DOTIE", "BoundingBox",
]
