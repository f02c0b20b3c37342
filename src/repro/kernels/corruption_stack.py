"""Fused corruption-stack kernels (scenario sweep hot path).

Reference: the per-stage composition — each stage calls the original
corruption function from :mod:`repro.sim.corruptions`, which rebuilds a
full ``LidarScan`` (fired_mask copy, dataclass construction, defensive
array copies) between stages.

Vectorized: one traversal over the scan.  The stack is applied to a set
of working arrays (points / labels / beam_ids / ranges) that flow
through all stages without intermediate scan materialization; arrays are
copied exactly once on first mutation and mutated in place afterwards.
Every RNG draw happens with the same generator, the same distribution,
the same size and the same order as the reference (including size-0
draws and the ``if pts.size`` / ``num_points == 0`` draw guards), and
every floating-point op is the same ufunc on the same values — so the
fused output is **bit-identical** to the sequential composition, not
merely close.  ``repro verify`` and the property suite hold it to exact
equality.

Both backends require severity > 0 for every stage and one private
generator per stage; :func:`repro.sim.apply_corruption_stack` enforces
that contract (severity-0 stages are exact identities and are filtered,
with their generators, before dispatch).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from . import register_kernel

Stage = Tuple[str, float]


class ReferenceCorruptionStack:
    """Sequential per-stage composition (the differential baseline)."""

    def apply(self, scan, stages: Sequence[Stage],
              rngs: Sequence[np.random.Generator]):
        from ..sim.corruptions import CORRUPTIONS
        out = scan
        for (name, severity), rng in zip(stages, rngs):
            out = CORRUPTIONS[name](out, severity=severity, rng=rng)
        return out


class _Arrays:
    """Working arrays with copy-on-first-write ownership tracking.

    Arrays start as views of the input scan; any stage output produced
    by fancy indexing or concatenation is fresh (owned) and may be
    mutated in place.  ``own_*`` copies lazily before the first in-place
    mutation of a still-borrowed array.
    """

    __slots__ = ("pts", "lbl", "beam", "rngs",
                 "pts_owned", "lbl_owned", "beam_owned", "rngs_owned")

    def __init__(self, scan):
        self.pts = scan.points
        self.lbl = scan.labels
        self.beam = scan.beam_ids
        self.rngs = scan.ranges
        self.pts_owned = False
        self.lbl_owned = False
        self.beam_owned = False
        self.rngs_owned = False

    @property
    def n(self) -> int:
        return self.pts.shape[0]

    def drop(self, keep: np.ndarray) -> None:
        self.pts = self.pts[keep]
        self.lbl = self.lbl[keep]
        self.beam = self.beam[keep]
        self.rngs = self.rngs[keep]
        self.pts_owned = self.lbl_owned = True
        self.beam_owned = self.rngs_owned = True

    def own_pts(self) -> np.ndarray:
        if not self.pts_owned:
            self.pts = self.pts.copy()
            self.pts_owned = True
        return self.pts

    def own_lbl(self) -> np.ndarray:
        if not self.lbl_owned:
            self.lbl = self.lbl.copy()
            self.lbl_owned = True
        return self.lbl

    def own_rngs(self) -> np.ndarray:
        if not self.rngs_owned:
            self.rngs = self.rngs.copy()
            self.rngs_owned = True
        return self.rngs

    def add_spurious(self, new_pts: np.ndarray, new_ranges: np.ndarray,
                     rng: np.random.Generator) -> None:
        # Mirrors corruptions._add_spurious exactly, including the
        # size-0 integers draw and the conditional points concat.
        n_new = new_pts.shape[0]
        lbl = np.full(n_new, -2, dtype=np.int64)
        beam = rng.integers(0, max(len(self.beam), 1) + 1, size=n_new)
        if n_new:
            self.pts = np.concatenate([self.pts, new_pts])
            self.pts_owned = True
        self.lbl = np.concatenate([self.lbl, lbl])
        self.beam = np.concatenate([self.beam, beam.astype(np.int64)])
        self.rngs = np.concatenate([self.rngs, new_ranges])
        self.lbl_owned = self.beam_owned = self.rngs_owned = True


class FusedCorruptionStack:
    """Single-traversal stack applicator, bit-identical to the reference."""

    def apply(self, scan, stages: Sequence[Stage],
              rngs: Sequence[np.random.Generator]):
        from ..sim.lidar import LidarScan
        a = _Arrays(scan)
        config = scan.config
        for (name, severity), rng in zip(stages, rngs):
            getattr(self, "_" + name)(a, config, severity, rng)
        return LidarScan(
            points=a.pts if a.pts_owned else a.pts.copy(),
            labels=a.lbl if a.lbl_owned else a.lbl.copy(),
            beam_ids=a.beam if a.beam_owned else a.beam.copy(),
            ranges=a.rngs if a.rngs_owned else a.rngs.copy(),
            fired_mask=scan.fired_mask.copy(), config=config)

    # Each stage replicates its corruption's draw order exactly; ``n``
    # is sampled before the drop wherever the reference uses the
    # stage-input count for spurious-return sizing.

    def _snow(self, a: _Arrays, config, severity: float,
              rng: np.random.Generator) -> None:
        n = a.n
        keep = rng.random(n) > 0.35 * severity
        a.drop(keep)
        n_flakes = int(severity * max(n, 40) * 0.8)
        r = rng.exponential(3.0, size=n_flakes) + 0.5
        az = rng.uniform(-np.pi, np.pi, size=n_flakes)
        el = rng.uniform(-0.3, 0.3, size=n_flakes)
        flakes = np.stack([r * np.cos(az) * np.cos(el),
                           r * np.sin(az) * np.cos(el),
                           r * np.sin(el) + config.sensor_height_m,
                           rng.uniform(0.6, 1.0, size=n_flakes)], axis=1)
        a.add_spurious(flakes, r, rng)

    def _rain(self, a: _Arrays, config, severity: float,
              rng: np.random.Generator) -> None:
        n = a.n
        keep = rng.random(n) > 0.2 * severity
        a.drop(keep)
        if a.pts.size:
            a.pts[:, 3] *= (1.0 - 0.5 * severity)
        n_drops = int(severity * max(n, 40) * 0.3)
        r = rng.exponential(5.0, size=n_drops) + 0.5
        az = rng.uniform(-np.pi, np.pi, size=n_drops)
        drops = np.stack([r * np.cos(az), r * np.sin(az),
                          rng.uniform(0.0, 3.0, size=n_drops),
                          rng.uniform(0.2, 0.5, size=n_drops)], axis=1)
        a.add_spurious(drops, r, rng)

    def _fog(self, a: _Arrays, config, severity: float,
             rng: np.random.Generator) -> None:
        n = a.n
        if n == 0:
            return
        sigma = 0.03 * severity
        survival = np.exp(-2.0 * sigma * a.rngs)
        keep = rng.random(n) < survival
        a.drop(keep)
        if a.pts.size:
            noise = rng.normal(0.0, 0.1 * severity,
                               size=(a.pts.shape[0], 3))
            a.pts[:, :3] += noise
            a.pts[:, 3] *= (1.0 - 0.4 * severity)

    def _beam_missing(self, a: _Arrays, config, severity: float,
                      rng: np.random.Generator) -> None:
        n_el = config.n_elevation
        n_dead = int(round(severity * n_el * 0.6))
        dead_rows = set(rng.choice(n_el, size=min(n_dead, n_el),
                                   replace=False).tolist())
        rows = a.beam % n_el
        keep = ~np.isin(rows, list(dead_rows))
        a.drop(keep)

    def _motion_blur(self, a: _Arrays, config, severity: float,
                     rng: np.random.Generator) -> None:
        if a.pts.size:
            pts = a.own_pts()
            az = np.arctan2(pts[:, 1], pts[:, 0])
            jitter = rng.normal(0.0, 0.02 * severity, size=pts.shape[0])
            tangent = np.stack([-np.sin(az), np.cos(az)], axis=1)
            pts[:, :2] += tangent * (jitter * a.rngs)[:, None]

    def _crosstalk(self, a: _Arrays, config, severity: float,
                   rng: np.random.Generator) -> None:
        if a.pts.size:
            n = a.n
            hit = rng.random(n) < 0.5 * severity
            if hit.any():
                pts = a.own_pts()
                norm = np.linalg.norm(pts[hit, :3], axis=1)
                norm = np.where(norm < 1e-9, 1.0, norm)
                fake_r = rng.uniform(2.0, config.max_range_m * 0.8,
                                     size=int(hit.sum()))
                pts[hit, :3] *= (fake_r / norm)[:, None]
                a.own_rngs()[hit] = fake_r
                a.own_lbl()[hit] = -2

    def _cross_sensor(self, a: _Arrays, config, severity: float,
                      rng: np.random.Generator) -> None:
        n_ghost = int(severity * 120)
        phase = rng.uniform(0, 2 * np.pi)
        az = phase + np.linspace(0, np.pi, max(n_ghost, 1))
        r = 8.0 + 4.0 * np.sin(6.0 * az) + rng.normal(0, 0.3, size=az.shape)
        r = np.clip(r, 1.0, None)
        ghosts = np.stack([r * np.cos(az), r * np.sin(az),
                           np.full_like(az, config.sensor_height_m),
                           np.full_like(az, 0.9)], axis=1)
        a.add_spurious(ghosts, r, rng)


register_kernel("corruption_stack", "reference", ReferenceCorruptionStack())
register_kernel("corruption_stack", "vectorized", FusedCorruptionStack())
