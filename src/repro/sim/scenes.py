"""Procedural 3-D street scenes (the KITTI substitute).

A scene is a ground plane plus oriented boxes for cars, pedestrians,
cyclists, and buildings.  Object dimensions follow the KITTI class
statistics so that detector behaviour (small/rare pedestrians vs large
cars) transfers.  Scenes are sampled deterministically from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["CLASS_NAMES", "CLASS_DIMENSIONS", "SceneObject", "Scene",
           "sample_scene"]

# Detection classes of Table I, in its order.
CLASS_NAMES: Tuple[str, ...] = ("Car", "Pedestrian", "Cyclist")

# Mean (length, width, height) in metres per class, KITTI-like.
CLASS_DIMENSIONS: Dict[str, Tuple[float, float, float]] = {
    "Car": (4.2, 1.8, 1.6),
    "Pedestrian": (0.8, 0.7, 1.75),
    "Cyclist": (1.8, 0.7, 1.75),
    "Building": (12.0, 8.0, 8.0),
}

# Surface reflectivity per class (affects LiDAR intensity and max range).
CLASS_REFLECTIVITY: Dict[str, float] = {
    "Car": 0.7,       # painted metal, retroreflective plates
    "Pedestrian": 0.35,
    "Cyclist": 0.45,
    "Building": 0.5,
    "Ground": 0.2,
}


@dataclass
class SceneObject:
    """An oriented box in the scene.

    ``center`` is the box centre (x, y, z); ``size`` is (length, width,
    height); ``yaw`` rotates the box around +z.  The sensor sits at the
    origin looking along +x.
    """

    cls: str
    center: np.ndarray
    size: np.ndarray
    yaw: float = 0.0
    object_id: int = -1

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        self.size = np.asarray(self.size, dtype=np.float64)
        if self.center.shape != (3,) or self.size.shape != (3,):
            raise ValueError("center and size must be 3-vectors")
        if np.any(self.size <= 0):
            raise ValueError("box dimensions must be positive")

    @property
    def reflectivity(self) -> float:
        return CLASS_REFLECTIVITY.get(self.cls, 0.4)

    def world_to_box(self, points: np.ndarray) -> np.ndarray:
        """Transform world points into the box's local frame."""
        c, s = np.cos(-self.yaw), np.sin(-self.yaw)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return (points - self.center) @ rot.T

    def ray_intersect(self, origin: np.ndarray, direction: np.ndarray
                      ) -> Optional[float]:
        """Slab-test ray/box intersection; returns hit distance or None."""
        o = self.world_to_box(origin[None, :])[0]
        c, s = np.cos(-self.yaw), np.sin(-self.yaw)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        d = direction @ rot.T
        half = self.size / 2.0
        t_min, t_max = 0.0, np.inf
        for axis in range(3):
            if abs(d[axis]) < 1e-12:
                if abs(o[axis]) > half[axis]:
                    return None
                continue
            t1 = (-half[axis] - o[axis]) / d[axis]
            t2 = (half[axis] - o[axis]) / d[axis]
            if t1 > t2:
                t1, t2 = t2, t1
            t_min = max(t_min, t1)
            t_max = min(t_max, t2)
            if t_min > t_max:
                return None
        if t_max < 1e-9:
            return None
        return float(t_min if t_min > 1e-9 else t_max)


@dataclass
class Scene:
    """A collection of scene objects plus the ground plane."""

    objects: List[SceneObject] = field(default_factory=list)
    ground_z: float = 0.0
    extent_m: float = 80.0

    def __post_init__(self):
        for i, obj in enumerate(self.objects):
            obj.object_id = i

    def foreground(self) -> List[SceneObject]:
        """Objects belonging to the detection classes of Table I."""
        return [o for o in self.objects if o.cls in CLASS_NAMES]

    def class_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for o in self.objects:
            counts[o.cls] = counts.get(o.cls, 0) + 1
        return counts


def _place_object(rng: np.random.Generator, cls: str, placed: List[SceneObject],
                  min_range: float, max_range: float,
                  azimuth_limit: float = np.pi / 3) -> Optional[SceneObject]:
    """Rejection-sample a non-overlapping pose for one object."""
    dims = np.asarray(CLASS_DIMENSIONS[cls])
    for _ in range(40):
        r = rng.uniform(min_range, max_range)
        az = rng.uniform(-azimuth_limit, azimuth_limit)
        size = dims * rng.uniform(0.85, 1.15, size=3)
        center = np.array([r * np.cos(az), r * np.sin(az), size[2] / 2.0])
        yaw = rng.uniform(-np.pi, np.pi)
        candidate = SceneObject(cls, center, size, yaw)
        clearance = max(size[:2]) / 2.0
        ok = all(
            np.linalg.norm(candidate.center[:2] - other.center[:2])
            > clearance + max(other.size[:2]) / 2.0 + 0.5
            for other in placed
        )
        if ok:
            return candidate
    return None


def sample_scene(rng: np.random.Generator,
                 n_cars: Optional[int] = None,
                 n_pedestrians: Optional[int] = None,
                 n_cyclists: Optional[int] = None,
                 n_buildings: Optional[int] = None,
                 min_range: float = 6.0,
                 max_range: float = 55.0,
                 azimuth_limit: float = np.pi / 3) -> Scene:
    """Sample a random street scene.

    Counts default to KITTI-like frequencies: cars common, pedestrians and
    cyclists rarer.  All randomness comes from ``rng``.
    """
    if n_cars is None:
        n_cars = int(rng.integers(2, 6))
    if n_pedestrians is None:
        n_pedestrians = int(rng.integers(0, 3))
    if n_cyclists is None:
        n_cyclists = int(rng.integers(0, 3))
    if n_buildings is None:
        n_buildings = int(rng.integers(1, 4))

    placed: List[SceneObject] = []
    plan = ([("Car", n_cars), ("Pedestrian", n_pedestrians),
             ("Cyclist", n_cyclists)])
    for cls, count in plan:
        for _ in range(count):
            obj = _place_object(rng, cls, placed, min_range, max_range,
                                azimuth_limit)
            if obj is not None:
                placed.append(obj)
    # Buildings sit far to the sides and back of the scene.
    for _ in range(n_buildings):
        obj = _place_object(rng, "Building", placed, 35.0, 70.0,
                            azimuth_limit)
        if obj is not None:
            placed.append(obj)
    return Scene(objects=placed)
