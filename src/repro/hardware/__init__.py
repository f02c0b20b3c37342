"""``repro.hardware`` — analytic energy / latency / area / link-budget models."""

from .energy import (
    MAC_ENERGY_PJ,
    MEMORY_ENERGY_PJ_PER_BYTE,
    EnergyLedger,
    mac_energy_pj,
    memory_energy_pj,
    model_inference_energy_mj,
)
from .imc import CrossbarModel, compare_architectures, digital_mvm_energy_pj
from .latency import MAC_AREA_UM2, MAC_LATENCY_NS, HardwareProfile, mac_area_um2, mac_latency_ns
from .lidar_power import LidarPowerModel

__all__ = [
    "MAC_ENERGY_PJ", "MEMORY_ENERGY_PJ_PER_BYTE",
    "mac_energy_pj", "memory_energy_pj", "model_inference_energy_mj",
    "EnergyLedger", "MAC_LATENCY_NS", "MAC_AREA_UM2", "mac_latency_ns",
    "mac_area_um2", "HardwareProfile", "LidarPowerModel",
    "CrossbarModel", "digital_mvm_energy_pj", "compare_architectures",
]
