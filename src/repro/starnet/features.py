"""Feature extraction from the primary task network (Sec. V, Fig. 6).

STARNet "evaluates intermediate sensor features from primary tasks".  The
LiDAR extractor pools the R-MAE sparse encoder's voxel features into a
fixed vector.  It is deterministic given its inputs, so the monitor sees
exactly what the detector sees.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..generative.rmae import RMAE
from ..nn.sparse3d import SparseGlobalPool
from ..sim.lidar import LidarScan
from ..voxel.grid import VoxelGridConfig, voxelize

__all__ = ["LidarFeatureExtractor", "scan_statistics"]


def scan_statistics(scan: LidarScan) -> np.ndarray:
    """Cheap scan-level statistics appended to the pooled features.

    Distributional descriptors that corruption families visibly shift:
    point count, range mean/std, near-range density, intensity mean/std,
    height spread, and beam-occupancy fraction.
    """
    if scan.num_points == 0:
        return np.zeros(9)
    r = scan.ranges
    z = scan.points[:, 2]
    inten = scan.points[:, 3]
    near = float((r < 5.0).mean())
    beam_frac = len(np.unique(scan.beam_ids)) / max(scan.fired_mask.sum(), 1)
    # Azimuth consistency: actual point azimuth vs the firing beam's
    # nominal azimuth.  Tangential smear (motion blur) and teleported
    # returns inflate this; clean scans keep it near the noise floor.
    cfg = scan.config
    az_grid = np.linspace(-np.deg2rad(cfg.azimuth_fov_deg) / 2,
                          np.deg2rad(cfg.azimuth_fov_deg) / 2,
                          cfg.n_azimuth, endpoint=False)
    az_idx = np.clip(scan.beam_ids // cfg.n_elevation, 0, cfg.n_azimuth - 1)
    az_nominal = az_grid[az_idx]
    az_actual = np.arctan2(scan.points[:, 1], scan.points[:, 0])
    dev = np.angle(np.exp(1j * (az_actual - az_nominal)))
    az_consistency = float(np.mean(np.abs(dev)))
    return np.array([
        np.log1p(scan.num_points) / 10.0,
        r.mean() / 50.0,
        r.std() / 25.0,
        near,
        inten.mean(),
        inten.std(),
        z.std() / 3.0,
        beam_frac,
        az_consistency,
    ])


class LidarFeatureExtractor:
    """Pooled R-MAE encoder features + scan statistics.

    The encoder is the *primary task's* backbone (shared with the
    detector), which is exactly the STARNet setup: the monitor taps the
    task network's intermediate representation rather than raw data.
    """

    def __init__(self, rmae: RMAE, grid: Optional[VoxelGridConfig] = None):
        self.rmae = rmae
        self.grid = grid or rmae.grid
        self.pool = SparseGlobalPool()

    @property
    def feature_dim(self) -> int:
        return self.rmae.config.encoder_channels[1] + 9

    def extract(self, scan: LidarScan) -> np.ndarray:
        cloud = voxelize(scan.points, scan.labels, self.grid)
        if cloud.num_occupied == 0:
            pooled = np.zeros(self.rmae.config.encoder_channels[1])
        else:
            sparse = self.rmae.encode(cloud)
            pooled = self.pool.forward(sparse)
        return np.concatenate([pooled, scan_statistics(scan)])

    def extract_batch(self, scans: List[LidarScan]) -> np.ndarray:
        return np.stack([self.extract(s) for s in scans])
