"""Raycast LiDAR scanner over procedural scenes.

Models a spinning multi-channel LiDAR: a grid of (azimuth, elevation)
beams, each raycast against the scene's boxes and ground plane.  Per-beam
masks (the hook R-MAE's radial masking uses) select which pulses are
actually fired, and the power model prices each fired pulse.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..hardware.lidar_power import LidarPowerModel
from ..kernels import get_kernel, kernel_timer
from ..obs.registry import get_registry
from .scenes import Scene

__all__ = ["LidarConfig", "LidarScan", "LidarScanner"]


@dataclass(frozen=True)
class LidarConfig:
    """Beam geometry and range limits of the scanner.

    The default grid (72 azimuth x 20 elevation = 1440 beams) matches the
    pulse count implied by Table II: 72 mJ / 50 uJ = 1440 pulses per scan.
    """

    n_azimuth: int = 72
    n_elevation: int = 20
    azimuth_fov_deg: float = 360.0
    elevation_min_deg: float = -15.0
    elevation_max_deg: float = 3.0
    max_range_m: float = 120.0
    sensor_height_m: float = 1.8
    range_noise_std_m: float = 0.02

    @property
    def n_beams(self) -> int:
        return self.n_azimuth * self.n_elevation

    def beam_directions(self) -> np.ndarray:
        """Unit direction vectors for every beam, shape (n_beams, 3).

        Beams are ordered azimuth-major: index = az * n_elevation + el.
        Computed once per distinct config and shared, so the returned
        array is read-only.
        """
        return _beam_directions(self)

    def beam_azimuth_index(self, beam: int) -> int:
        return beam // self.n_elevation


@functools.lru_cache(maxsize=64)
def _beam_directions(cfg: LidarConfig) -> np.ndarray:
    az = np.linspace(-np.deg2rad(cfg.azimuth_fov_deg) / 2,
                     np.deg2rad(cfg.azimuth_fov_deg) / 2,
                     cfg.n_azimuth, endpoint=False)
    el = np.linspace(np.deg2rad(cfg.elevation_min_deg),
                     np.deg2rad(cfg.elevation_max_deg),
                     cfg.n_elevation)
    dirs = np.empty((cfg.n_azimuth * cfg.n_elevation, 3))
    i = 0
    for a in az:
        ca, sa = np.cos(a), np.sin(a)
        for e in el:
            ce, se = np.cos(e), np.sin(e)
            dirs[i] = (ca * ce, sa * ce, se)
            i += 1
    dirs.setflags(write=False)
    return dirs


@dataclass
class LidarScan:
    """One LiDAR sweep.

    Attributes
    ----------
    points:
        (N, 4) array: x, y, z, intensity for every returned echo.
    labels:
        (N,) object id of the hit (-1 = ground / no object).
    beam_ids:
        (N,) index of the beam that produced each point.
    fired_mask:
        (n_beams,) bool — which beams were actually fired.
    ranges:
        (N,) hit ranges in metres (matching ``points`` rows).
    """

    points: np.ndarray
    labels: np.ndarray
    beam_ids: np.ndarray
    fired_mask: np.ndarray
    ranges: np.ndarray
    config: LidarConfig

    @property
    def num_points(self) -> int:
        return int(self.points.shape[0])

    @property
    def coverage_fraction(self) -> float:
        """Fraction of the full beam grid that was fired."""
        return int(np.count_nonzero(self.fired_mask)) / self.fired_mask.size

    def sensing_energy_mj(self, power: Optional[LidarPowerModel] = None,
                          adaptive: bool = True) -> float:
        """Energy of the pulses fired for this scan.

        Missed pulses (no echo) still cost full energy: they were emitted
        at max-range power.  Hits under adaptive transmission cost the
        range-scaled energy.  The pricing runs in a ``sim.energy`` span.
        """
        with get_registry().trace_span("sim.energy"):
            power = power or LidarPowerModel()
            n_fired = int(np.count_nonzero(self.fired_mask))
            n_hits = self.num_points
            # Corrupted scans can carry more returns than fired pulses
            # (spurious backscatter/ghost echoes), so clamp at zero.
            n_misses = max(n_fired - n_hits, 0)
            miss_mj = n_misses * power.reference_pulse_uj * 1e-3
            hit_mj = power.scan_energy_mj(self.ranges, adaptive=adaptive)
            return float(miss_mj + max(hit_mj, 0.0))

    def subset(self, mask: np.ndarray) -> "LidarScan":
        """A new scan containing only the selected points."""
        return LidarScan(self.points[mask], self.labels[mask],
                         self.beam_ids[mask], self.fired_mask.copy(),
                         self.ranges[mask], self.config)


class LidarScanner:
    """Raycasting scanner: scene + beam mask -> :class:`LidarScan`."""

    def __init__(self, config: Optional[LidarConfig] = None,
                 rng: Optional[np.random.Generator] = None):
        self.config = config or LidarConfig()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._dirs = self.config.beam_directions()

    def scan(self, scene: Scene,
             fired_mask: Optional[np.ndarray] = None) -> LidarScan:
        """Raycast every fired beam against the scene.

        ``fired_mask`` selects the subset of beams to emit (all by
        default).  Each beam returns at most one echo: the nearest
        box-surface or ground intersection within range.  The raycast
        runs on the ``lidar_raycast`` kernel; both backends return the
        same bytes and leave ``rng`` in the same state.
        """
        cfg = self.config
        if fired_mask is None:
            fired_mask = np.ones(cfg.n_beams, dtype=bool)
        fired_mask = np.asarray(fired_mask, dtype=bool)
        if fired_mask.shape != (cfg.n_beams,):
            raise ValueError(
                f"fired_mask must have shape ({cfg.n_beams},)")

        with kernel_timer("lidar_raycast", "scan"):
            points, labels, beams, ranges = get_kernel("lidar_raycast").scan(
                cfg, self._dirs, scene, fired_mask, self.rng)
        return LidarScan(points=points, labels=labels, beam_ids=beams,
                         fired_mask=fired_mask, ranges=ranges, config=cfg)
