"""R-MAE's two-stage radial masking (Sec. III).

"The masking operates in two stages: (1) grouping voxels into angular
segments and sampling a subset for sensing, and (2) applying
distance-dependent probabilistic masking to address the R^4 energy
scaling with range."

Stage 1 keeps a fraction of angular segments (entire LiDAR firing
sectors).  Stage 2 thins the surviving voxels with a keep-probability that
*decays with range*, because far pulses are the expensive ones (energy
grows as R^4).  The same machinery also produces the beam-firing mask the
scanner consumes, closing the sensing-to-action loop: the model decides
where to spend pulses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..sim.lidar import LidarConfig
from .grid import Coord, VoxelizedCloud

__all__ = ["RadialMaskConfig", "radial_mask", "uniform_mask",
           "angular_only_mask", "beam_mask_from_segments",
           "segment_of_azimuth"]


@dataclass(frozen=True)
class RadialMaskConfig:
    """Parameters of the two-stage mask.

    ``segment_keep_fraction`` of the angular segments survive stage 1.
    Within kept segments, stage 2 keeps a voxel at range ``r`` with
    probability ``min(1, (r0 / max(r, r0)) ** range_exponent)`` — near
    voxels always kept, far voxels exponentially thinned.  The defaults
    land at roughly 8-10% total sensed fraction, the paper's operating
    point.
    """

    n_segments: int = 24
    segment_keep_fraction: float = 0.25
    range_exponent: float = 2.0
    reference_range_m: float = 12.0

    def __post_init__(self):
        if not 0.0 < self.segment_keep_fraction <= 1.0:
            raise ValueError("segment_keep_fraction must be in (0, 1]")
        if self.n_segments < 1:
            raise ValueError("need at least one angular segment")

    def range_keep_probability(self, range_m: float) -> float:
        """Stage-2 keep probability for a voxel at the given range."""
        r0 = self.reference_range_m
        if range_m <= r0:
            return 1.0
        return float((r0 / range_m) ** self.range_exponent)


def _segments(azimuth_rad: np.ndarray, n_segments: int) -> np.ndarray:
    """Angular segment index of each azimuth in [-pi, pi)."""
    frac = (azimuth_rad + np.pi) / (2 * np.pi)
    return np.clip(frac * n_segments, 0, n_segments - 1).astype(np.int64)


def segment_of_azimuth(azimuth_rad: float, n_segments: int) -> int:
    """Angular segment index of an azimuth in [-pi, pi)."""
    return int(_segments(azimuth_rad, n_segments))


def _keep_probability(config: RadialMaskConfig,
                      ranges_m: np.ndarray) -> np.ndarray:
    """``range_keep_probability`` of each range.  The power stays
    Python's float ``**`` (libm ``pow``): numpy's array power may round
    differently in the last ulp."""
    return np.array([config.range_keep_probability(r)
                     for r in ranges_m.tolist()], dtype=np.float64)


def _stage2(keep: np.ndarray, ranges_m: np.ndarray,
            config: RadialMaskConfig, rng: np.random.Generator) -> None:
    """Stage 2 in place: the i-th True entry of ``keep``, at range
    ``ranges_m[i]``, stays True if the i-th uniform drawn falls below its
    keep probability."""
    p = _keep_probability(config, ranges_m)
    keep[keep] = rng.random(p.size) < p


def _keep_dict(cloud: VoxelizedCloud, keep: np.ndarray) -> Dict[Coord, bool]:
    return dict(zip(cloud.coords, keep.tolist()))


def _sample_segments(config: RadialMaskConfig,
                     rng: np.random.Generator) -> np.ndarray:
    n_keep = max(1, int(round(config.n_segments * config.segment_keep_fraction)))
    kept = rng.choice(config.n_segments, size=n_keep, replace=False)
    mask = np.zeros(config.n_segments, dtype=bool)
    mask[kept] = True
    return mask


def radial_mask(cloud: VoxelizedCloud, config: Optional[RadialMaskConfig] = None,
                rng: Optional[np.random.Generator] = None
                ) -> Tuple[Dict[Coord, bool], np.ndarray]:
    """Two-stage R-MAE mask over a voxelized cloud.

    Returns ``(keep, segment_mask)`` where ``keep[coord]`` is True for
    voxels that remain *sensed* (visible to the encoder) and
    ``segment_mask`` records which angular segments stage 1 kept.
    """
    config = config or RadialMaskConfig()
    rng = rng if rng is not None else np.random.default_rng(0)
    segment_mask = _sample_segments(config, rng)
    azimuth, ranges = cloud.config.voxel_polar(cloud.coords)
    keep = segment_mask[_segments(azimuth, config.n_segments)]
    _stage2(keep, ranges[keep], config, rng)
    return _keep_dict(cloud, keep), segment_mask


def uniform_mask(cloud: VoxelizedCloud, keep_fraction: float,
                 rng: Optional[np.random.Generator] = None
                 ) -> Dict[Coord, bool]:
    """Ablation baseline: keep each voxel i.i.d. with ``keep_fraction``."""
    if not 0.0 <= keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in [0, 1]")
    rng = rng if rng is not None else np.random.default_rng(0)
    return _keep_dict(cloud, rng.random(cloud.num_occupied) < keep_fraction)


def angular_only_mask(cloud: VoxelizedCloud,
                      config: Optional[RadialMaskConfig] = None,
                      rng: Optional[np.random.Generator] = None
                      ) -> Dict[Coord, bool]:
    """Ablation baseline: stage 1 only (no range-dependent thinning)."""
    config = config or RadialMaskConfig()
    rng = rng if rng is not None else np.random.default_rng(0)
    segment_mask = _sample_segments(config, rng)
    azimuth, _ = cloud.config.voxel_polar(cloud.coords)
    return _keep_dict(cloud, segment_mask[_segments(azimuth,
                                                    config.n_segments)])


def beam_mask_from_segments(segment_mask: np.ndarray,
                            lidar: LidarConfig,
                            mask_config: RadialMaskConfig,
                            expected_ranges: Optional[np.ndarray] = None,
                            rng: Optional[np.random.Generator] = None
                            ) -> np.ndarray:
    """Translate a segment mask into a beam-firing mask for the scanner.

    This is the action-to-sensing hook: the stage-1 decision (which
    angular sectors to sense) maps to which azimuth columns of the beam
    grid fire.  When ``expected_ranges`` (per-beam predicted ranges, e.g.
    from the previous reconstruction) is given, stage-2 range thinning is
    applied per beam as well.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    az_angles = np.linspace(-np.pi, np.pi, lidar.n_azimuth, endpoint=False)
    columns = np.asarray(segment_mask, dtype=bool)[
        _segments(az_angles, mask_config.n_segments)]
    fired = np.repeat(columns, lidar.n_elevation)
    if expected_ranges is not None:
        _stage2(fired, np.asarray(expected_ranges, dtype=np.float64)[
            np.flatnonzero(fired)], mask_config, rng)
    return fired
