"""``repro.voxel`` — voxelization and R-MAE radial masking."""

from .grid import VoxelGridConfig, VoxelizedCloud, voxelize, voxelize_batch
from .masking import (
    RadialMaskConfig,
    angular_only_mask,
    beam_mask_from_segments,
    radial_mask,
    segment_of_azimuth,
    uniform_mask,
)

__all__ = [
    "VoxelGridConfig", "VoxelizedCloud", "voxelize", "voxelize_batch",
    "RadialMaskConfig", "radial_mask", "uniform_mask", "angular_only_mask",
    "beam_mask_from_segments", "segment_of_azimuth",
]
