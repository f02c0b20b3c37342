"""LiDAR raycast kernels (the scanner's hot path).

Reference: the original per-beam loop from
``repro.sim.lidar.LidarScanner.scan``, moved here verbatim — one
``SceneObject.ray_intersect`` slab test per beam and object, one scalar
range-noise draw per hit, in beam order.

Vectorized: every fired beam is tested against every object in one
``(n_objects, n_beams)`` slab test, with the same per-axis arithmetic,
and each beam keeps the first object at its nearest in-range hit.
Because one beam flipping between hit and miss would shift every later
noise draw, this backend is **byte-identical** to the reference, not
tolerance-close; that rests on three choices:

* beam directions are rotated into every box frame with the stacked
  ``d[None, :, None, :] @ rot_t[:, None]``, which runs the reference's
  per-vector product once per (object, beam) — a plain ``d @ rot.T`` is
  one GEMM that rounds differently in the last ulp;
* the range noise is one ``rng.normal(0, std, size=n_hits)`` draw with
  hits in beam order, which yields the reference's scalar draws in turn;
* the intensity square uses Python-float ``**`` (libm ``pow``, as the
  reference's scalar ``**`` does), not numpy's array power.

Both backends take the scanner's config, its beam directions, the
scene, the validated fired mask and the scanner's generator, and return
``(points, labels, beam_ids, ranges)``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from . import register_kernel


class ReferenceLidarRaycast:
    """Original per-beam, per-object raycast loop (seed op order)."""

    def scan(self, cfg, dirs: np.ndarray, scene, fired_mask: np.ndarray,
             rng: np.random.Generator):
        origin = np.array([0.0, 0.0, cfg.sensor_height_m])
        pts: List[np.ndarray] = []
        labels: List[int] = []
        beams: List[int] = []
        ranges: List[float] = []
        for beam in np.flatnonzero(fired_mask):
            d = dirs[beam]
            best_t, best_obj = np.inf, -1
            # Ground-plane intersection for downward beams.
            if d[2] < -1e-9:
                t_ground = (scene.ground_z - origin[2]) / d[2]
                if 0 < t_ground < cfg.max_range_m:
                    best_t, best_obj = t_ground, -1
            for obj in scene.objects:
                t = obj.ray_intersect(origin, d)
                if t is not None and t < best_t and t < cfg.max_range_m:
                    best_t, best_obj = t, obj.object_id
            if not np.isfinite(best_t):
                continue
            noisy_t = best_t + rng.normal(0.0, cfg.range_noise_std_m)
            noisy_t = max(noisy_t, 0.1)
            hit = origin + noisy_t * d
            if best_obj >= 0:
                reflect = scene.objects[best_obj].reflectivity
            else:
                reflect = 0.2
            # Intensity: reflectivity attenuated by 1/R^2 echo spreading.
            intensity = reflect / max(noisy_t / 10.0, 1.0) ** 2
            pts.append(np.array([hit[0], hit[1], hit[2], intensity]))
            labels.append(best_obj)
            beams.append(int(beam))
            ranges.append(noisy_t)

        if pts:
            points = np.stack(pts)
        else:
            points = np.zeros((0, 4))
        return (points, np.asarray(labels, dtype=np.int64),
                np.asarray(beams, dtype=np.int64),
                np.asarray(ranges, dtype=np.float64))


def _slab_ranges(objects, origin: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``obj.ray_intersect`` for every object (rows) and every row of
    ``d`` (columns) at once; ``inf`` where the reference returns
    ``None``."""
    yaw = -np.array([obj.yaw for obj in objects])
    c, s = np.cos(yaw), np.sin(yaw)
    rot = np.zeros((len(objects), 3, 3))
    rot[:, 0, 0], rot[:, 0, 1] = c, -s
    rot[:, 1, 0], rot[:, 1, 1] = s, c
    rot[:, 2, 2] = 1.0
    rot_t = rot.transpose(0, 2, 1)
    centers = np.array([obj.center for obj in objects])
    o = ((origin - centers)[:, None, :] @ rot_t)[:, 0, :]
    d = (d[None, :, None, :] @ rot_t[:, None])[:, :, 0, :]
    half = np.array([obj.size for obj in objects]) / 2.0
    shape = d.shape[:2]
    t_min = np.zeros(shape)
    t_max = np.full(shape, np.inf)
    valid = np.ones(shape, dtype=bool)
    for axis in range(3):
        da = d[:, :, axis]
        oa, ha = o[:, axis, None], half[:, axis, None]
        parallel = np.abs(da) < 1e-12
        valid &= ~(parallel & (np.abs(oa) > ha))
        da = np.where(parallel, 1.0, da)
        t1 = (-ha - oa) / da
        t2 = (ha - oa) / da
        # t_min only grows and t_max only shrinks, so the reference's
        # early ``t_min > t_max`` exit is the same test made at the end.
        t_min = np.where(parallel, t_min,
                         np.maximum(t_min, np.minimum(t1, t2)))
        t_max = np.where(parallel, t_max,
                         np.minimum(t_max, np.maximum(t1, t2)))
    valid &= (t_min <= t_max) & ~(t_max < 1e-9)
    return np.where(valid, np.where(t_min > 1e-9, t_min, t_max), np.inf)


class VectorizedLidarRaycast:
    """Every fired beam against every object in one slab test
    (byte-identical)."""

    def scan(self, cfg, dirs: np.ndarray, scene, fired_mask: np.ndarray,
             rng: np.random.Generator):
        origin = np.array([0.0, 0.0, cfg.sensor_height_m])
        beams = np.flatnonzero(fired_mask)
        d = dirs[beams]
        best_t = np.full(beams.size, np.inf)
        best_obj = np.full(beams.size, -1, dtype=np.int64)
        down = d[:, 2] < -1e-9
        t_ground = np.full(beams.size, np.inf)
        t_ground[down] = (scene.ground_z - origin[2]) / d[down, 2]
        on_ground = (0 < t_ground) & (t_ground < cfg.max_range_m)
        best_t[on_ground] = t_ground[on_ground]
        if scene.objects:
            t = _slab_ranges(scene.objects, origin, d)
            t[~(t < cfg.max_range_m)] = np.inf
            # The first object at the nearest range, as the reference's
            # strict ``<`` over objects in order keeps it; the ground
            # keeps a tie too.
            first = np.argmin(t, axis=0)
            t = t[first, np.arange(beams.size)]
            closer = t < best_t
            best_t[closer] = t[closer]
            ids = np.array([obj.object_id for obj in scene.objects],
                           dtype=np.int64)
            best_obj[closer] = ids[first[closer]]

        hit = np.isfinite(best_t)
        n_hits = int(hit.sum())
        best_obj = best_obj[hit]
        noisy_t = best_t[hit] + rng.normal(0.0, cfg.range_noise_std_m,
                                           size=n_hits)
        noisy_t = np.maximum(noisy_t, 0.1)
        reflect = np.full(n_hits, 0.2)
        fg = best_obj >= 0
        table = np.array([obj.reflectivity for obj in scene.objects])
        reflect[fg] = table[best_obj[fg]]
        spread = np.array([x ** 2 for x in
                           np.maximum(noisy_t / 10.0, 1.0).tolist()])
        points = np.empty((n_hits, 4))
        points[:, :3] = origin + noisy_t[:, None] * d[hit]
        points[:, 3] = reflect / spread
        return points, best_obj, beams[hit].astype(np.int64), noisy_t


register_kernel("lidar_raycast", "reference", ReferenceLidarRaycast())
register_kernel("lidar_raycast", "vectorized", VectorizedLidarRaycast())
