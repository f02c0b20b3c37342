"""``repro.sim`` — environment substrates replacing the paper's datasets.

Procedural street scenes + raycast LiDAR (KITTI substitute), the
corruption suite (KITTI-C substitute), cart-pole with disturbances, the
DVS event-camera simulator (MVSEC substitute), synthetic classification
data with federated sharding (CIFAR-10 substitute), and the multi-agent
coverage gridworld.
"""

from .cartpole import CartPole, CartPoleParams, DisturbanceProcess, render_observation
from .corruptions import (
    CORRUPTIONS,
    apply_corruption,
    apply_corruption_stack,
    beam_missing,
    corruption_names,
    cross_sensor,
    crosstalk,
    fog,
    motion_blur,
    normalize_stack,
    rain,
    snow,
)
from .datasets import ClassificationDataset, make_synthetic_cifar, shard_dirichlet, shard_iid
from .events import EventCameraConfig, EventCameraSimulator, FlowSample, make_flow_dataset
from .gridworld import AgentState, CoverageGridWorld, GridWorldConfig
from .lidar import LidarConfig, LidarScan, LidarScanner
from .scenes import CLASS_DIMENSIONS, CLASS_NAMES, Scene, SceneObject, sample_scene

__all__ = [
    "CLASS_NAMES", "CLASS_DIMENSIONS", "Scene", "SceneObject",
    "sample_scene",
    "LidarConfig", "LidarScan", "LidarScanner",
    "CORRUPTIONS", "apply_corruption", "apply_corruption_stack",
    "normalize_stack", "corruption_names",
    "snow", "rain", "fog", "beam_missing", "motion_blur", "crosstalk",
    "cross_sensor",
    "CartPole", "CartPoleParams", "DisturbanceProcess", "render_observation",
    "EventCameraConfig", "EventCameraSimulator", "FlowSample",
    "make_flow_dataset",
    "ClassificationDataset", "make_synthetic_cifar", "shard_iid",
    "shard_dirichlet",
    "AgentState", "CoverageGridWorld", "GridWorldConfig",
]
