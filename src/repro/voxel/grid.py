"""Voxelization of LiDAR point clouds.

The R-MAE pipeline (Fig. 3) starts by voxelizing the input point cloud;
only non-empty voxels carry features through the sparse encoder.  The
grid covers a forward region around the sensor with independent x/y/z
resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..kernels import get_kernel, kernel_timer

__all__ = ["VoxelGridConfig", "VoxelizedCloud", "voxelize", "voxelize_batch"]

Coord = Tuple[int, int, int]


@dataclass(frozen=True)
class VoxelGridConfig:
    """Spatial extent and resolution of the voxel grid.

    Defaults give a 32 x 32 x 4 grid over an 80 m x 80 m x 4 m region —
    coarse enough for fast numpy training, fine enough that cars span
    multiple voxels and pedestrians occupy one.
    """

    x_range: Tuple[float, float] = (0.0, 80.0)
    y_range: Tuple[float, float] = (-40.0, 40.0)
    z_range: Tuple[float, float] = (-0.5, 3.5)
    nx: int = 32
    ny: int = 32
    nz: int = 4

    @property
    def shape(self) -> Tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @property
    def voxel_size(self) -> Tuple[float, float, float]:
        return ((self.x_range[1] - self.x_range[0]) / self.nx,
                (self.y_range[1] - self.y_range[0]) / self.ny,
                (self.z_range[1] - self.z_range[0]) / self.nz)

    def point_to_voxel(self, point: np.ndarray) -> Optional[Coord]:
        """Voxel index of a world point, or None if outside the grid.

        Uses floor (not ``int`` truncation): a point slightly below the
        grid's lower bound must map outside, not into cell 0.
        """
        sx, sy, sz = self.voxel_size
        i = int(np.floor((point[0] - self.x_range[0]) / sx))
        j = int(np.floor((point[1] - self.y_range[0]) / sy))
        k = int(np.floor((point[2] - self.z_range[0]) / sz))
        if 0 <= i < self.nx and 0 <= j < self.ny and 0 <= k < self.nz:
            return (i, j, k)
        return None

    def voxel_centers(self, coords: Sequence[Coord]) -> np.ndarray:
        """World centres of the given voxels, one ``(x, y, z)`` row each."""
        ijk = np.array(coords, dtype=np.float64).reshape(-1, 3)
        lower = np.array([self.x_range[0], self.y_range[0], self.z_range[0]])
        return lower + (ijk + 0.5) * self.voxel_size

    def voxel_polar(self, coords: Sequence[Coord]
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Azimuth (radians) and horizontal distance from the sensor of
        each voxel centre."""
        c = self.voxel_centers(coords)
        return np.arctan2(c[:, 1], c[:, 0]), np.hypot(c[:, 0], c[:, 1])

    def voxel_center(self, coord: Coord) -> np.ndarray:
        return self.voxel_centers([coord])[0]

    def voxel_range(self, coord: Coord) -> float:
        """Horizontal distance from the sensor to the voxel centre."""
        return float(self.voxel_polar([coord])[1][0])

    def voxel_azimuth(self, coord: Coord) -> float:
        """Azimuth angle (radians) of the voxel centre from the sensor."""
        return float(self.voxel_polar([coord])[0][0])


@dataclass
class VoxelizedCloud:
    """Occupied voxels with aggregated per-voxel features.

    Features per voxel: [point count (log1p), mean intensity,
    mean z offset within voxel, mean range / 100].
    """

    config: VoxelGridConfig
    features: Dict[Coord, np.ndarray]
    point_labels: Dict[Coord, int]  # majority object id per voxel

    FEATURE_DIM = 4

    @property
    def coords(self) -> List[Coord]:
        return list(self.features.keys())

    @property
    def num_occupied(self) -> int:
        return len(self.features)

    def occupancy_dense(self) -> np.ndarray:
        """Dense binary occupancy (nx, ny, nz)."""
        out = np.zeros(self.config.shape)
        for c in self.features:
            out[c] = 1.0
        return out

    def masked(self, keep: Dict[Coord, bool]) -> "VoxelizedCloud":
        """Sub-cloud containing only voxels where ``keep`` is True."""
        feats = {c: f for c, f in self.features.items() if keep.get(c, False)}
        labels = {c: l for c, l in self.point_labels.items() if c in feats}
        return VoxelizedCloud(self.config, feats, labels)


def voxelize(points: np.ndarray, labels: Optional[np.ndarray] = None,
             config: Optional[VoxelGridConfig] = None) -> VoxelizedCloud:
    """Aggregate a point cloud (N, 4: x, y, z, intensity) into voxels.

    A batch of one through :func:`voxelize_batch`.  Raises
    ``ValueError`` on non-finite coordinates, which have no voxel.
    """
    return voxelize_batch([points], None if labels is None else [labels],
                          config)[0]


def voxelize_batch(points: Sequence[np.ndarray],
                   labels: Optional[Sequence[np.ndarray]] = None,
                   config: Optional[VoxelGridConfig] = None
                   ) -> List[VoxelizedCloud]:
    """Voxelize a batch of point clouds in one kernel pass.

    ``points[s]`` is scan ``s``'s (N_s, 4) cloud and ``labels[s]`` its
    point labels (all ``-1`` when ``labels`` is None).  Cloud ``s`` of
    the result is byte-identical to :func:`voxelize` on scan ``s`` alone,
    on both kernel backends: the same voxels in the same order with the
    same feature bytes and labels.  Raises ``ValueError`` naming the
    first scan with a non-finite coordinate.
    """
    config = config or VoxelGridConfig()
    if not points:
        return []
    sizes = [p.shape[0] for p in points]
    # A batch of one reads its arrays in place: no kernel writes them.
    flat = points[0] if len(points) == 1 else np.concatenate(points)
    if labels is None:
        flat_labels = np.full(flat.shape[0], -1, dtype=np.int64)
    else:
        flat_labels = labels[0] if len(labels) == 1 \
            else np.concatenate(labels)
    bad = ~np.isfinite(flat[:, :3]).all(axis=1)
    if bad.any():
        for scan, rows in enumerate(np.split(bad, np.cumsum(sizes)[:-1])):
            if rows.any():
                raise ValueError(
                    f"voxelize: {int(rows.sum())} point(s) of scan {scan} "
                    f"have non-finite x/y/z coordinates")
    with kernel_timer("voxelize", "voxelize"):
        pairs = get_kernel("voxelize").voxelize(flat, flat_labels, sizes,
                                                config)
    return [VoxelizedCloud(config, features, vox_labels)
            for features, vox_labels in pairs]
