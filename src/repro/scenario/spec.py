"""Declarative scenario specs: corruption stacks × platforms × traffic.

A :class:`Scenario` is a *value*, not a computation: a corruption stack
(ordered ``(name, severity)`` stages), a platform (LiDAR geometry in the
RoboSense "adapt across platforms" sense), a traffic regime (scene
density), a base seed, and the name of a registered evaluator.  Being a
plain frozen value gives the sweep engine everything it needs:

* **content addressing** — :meth:`Scenario.fingerprint` hashes the full
  input closure through :func:`repro.runtime.fingerprint`, so the replay
  store recognises a scenario across grid reorderings, plan extensions
  and unrelated spec additions;
* **deterministic randomness** — every RNG stream used to execute the
  scenario is spawned from :meth:`Scenario.content_seed` (derived from
  the fingerprint), so results never depend on the scenario's position
  in a sweep, the worker count, or which other scenarios run alongside;
* **cheap expansion** — :class:`SweepPlan` is a grid over stacks ×
  platforms × traffic × seeds that expands to thousands of scenarios
  without touching the simulator.

``PLATFORMS`` keep the small beam grids they were first swept with:
the grid is part of every scenario fingerprint, so changing it would
change every fingerprint, the payload SHAs of the committed sweep
results and the ``scenario_sweep`` golden.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..runtime.cache import fingerprint
from ..runtime.seeding import spawn_rngs
from ..sim.corruptions import normalize_stack
from ..sim.lidar import LidarConfig

__all__ = ["CorruptionStage", "Scenario", "SweepPlan", "stack_grid",
           "PLATFORMS", "TRAFFIC"]


# Platform regimes: LiDAR geometry per deployment target.  The beam
# grids stay small because every scenario fingerprint, the committed
# sweep SHAs and the scenario_sweep golden depend on them; relative
# geometry differences between platforms are preserved.
PLATFORMS: Dict[str, Dict[str, float]] = {
    "vehicle": dict(n_azimuth=24, n_elevation=6, max_range_m=120.0,
                    sensor_height_m=1.8),
    "drone": dict(n_azimuth=16, n_elevation=4, max_range_m=60.0,
                  sensor_height_m=12.0),
    "quadruped": dict(n_azimuth=12, n_elevation=5, max_range_m=40.0,
                      sensor_height_m=0.5),
}

# Traffic regimes: scene composition densities for sample_scene.
TRAFFIC: Dict[str, Dict[str, int]] = {
    "sparse": dict(n_cars=1, n_pedestrians=1, n_cyclists=0, n_buildings=1),
    "urban": dict(n_cars=3, n_pedestrians=2, n_cyclists=1, n_buildings=2),
    "dense": dict(n_cars=5, n_pedestrians=4, n_cyclists=2, n_buildings=3),
}


@dataclass(frozen=True)
class CorruptionStage:
    """One stage of a corruption stack: a corruption name + severity."""

    name: str
    severity: float

    def as_tuple(self) -> Tuple[str, float]:
        return (self.name, float(self.severity))


def _as_stages(stack: Sequence) -> Tuple[CorruptionStage, ...]:
    return tuple(CorruptionStage(name, severity)
                 for name, severity in normalize_stack(stack))


@dataclass(frozen=True)
class Scenario:
    """A fully-specified evaluation point (a pure value, see module doc)."""

    stack: Tuple[CorruptionStage, ...]
    platform: str = "vehicle"
    traffic: str = "urban"
    seed: int = 0
    evaluator: str = "scan_stats"

    def __post_init__(self):
        object.__setattr__(self, "stack", _as_stages(self.stack))
        if self.platform not in PLATFORMS:
            raise ValueError(
                f"unknown platform {self.platform!r}; valid platforms: "
                f"{', '.join(sorted(PLATFORMS))}")
        if self.traffic not in TRAFFIC:
            raise ValueError(
                f"unknown traffic regime {self.traffic!r}; valid "
                f"regimes: {', '.join(sorted(TRAFFIC))}")

    # ------------------------------------------------------------ identity
    def as_dict(self) -> dict:
        return {
            "stack": [[s.name, float(s.severity)] for s in self.stack],
            "platform": self.platform,
            "traffic": self.traffic,
            "seed": int(self.seed),
            "evaluator": self.evaluator,
        }

    def fingerprint(self) -> str:
        """Content address of the full input closure.

        Covers the stack (names, severities, order), platform and
        traffic *parameters* (not just their names — retuning a platform
        invalidates its cached results), seed and evaluator name.  The
        kernel backend is deliberately excluded: the fused corruption
        stack and the raycast are bit-identical to their references, so
        replayed results are valid under either backend.
        """
        return fingerprint("scenario", self.as_dict(),
                           PLATFORMS[self.platform], TRAFFIC[self.traffic])

    def content_seed(self) -> int:
        """Base seed for every RNG stream, derived from the fingerprint
        so randomness is a function of scenario *content* alone."""
        return int(self.fingerprint(), 16)

    # ----------------------------------------------------------- execution
    def lidar_config(self) -> LidarConfig:
        return LidarConfig(**PLATFORMS[self.platform])

    def rng_streams(self):
        """``(scene_rng, scanner_rng, evaluator_rng, stage_rngs)`` —
        independent private streams, one per stochastic consumer."""
        rngs = spawn_rngs(self.content_seed(), 3 + len(self.stack))
        return rngs[0], rngs[1], rngs[2], rngs[3:]


def stack_grid(names: Sequence[str], severities: Sequence[float],
               depth: int = 2) -> List[Tuple[Tuple[str, float], ...]]:
    """Every ordered corruption stack up to ``depth`` distinct stages.

    Order matters (snow-then-crosstalk corrupts the flakes too;
    crosstalk-then-snow does not), so permutations are enumerated, not
    combinations: 7 corruptions × 4 severities at depth 2 gives
    28 singles + 672 ordered pairs = 700 stacks.
    """
    if depth < 1:
        raise ValueError("need depth >= 1")
    stacks: List[Tuple[Tuple[str, float], ...]] = []
    for d in range(1, depth + 1):
        for combo in itertools.permutations(names, d):
            for sevs in itertools.product(severities, repeat=d):
                stacks.append(tuple(zip(combo, sevs)))
    return stacks


@dataclass(frozen=True)
class SweepPlan:
    """A grid of scenarios: stacks × platforms × traffic × seeds."""

    stacks: Tuple[Tuple[Tuple[str, float], ...], ...]
    platforms: Tuple[str, ...] = ("vehicle",)
    traffics: Tuple[str, ...] = ("urban",)
    seeds: Tuple[int, ...] = (0,)
    evaluator: str = "scan_stats"

    def __post_init__(self):
        object.__setattr__(self, "stacks",
                           tuple(tuple(normalize_stack(s))
                                 for s in self.stacks))
        object.__setattr__(self, "platforms", tuple(self.platforms))
        object.__setattr__(self, "traffics", tuple(self.traffics))
        object.__setattr__(self, "seeds",
                           tuple(int(s) for s in self.seeds))

    @property
    def count(self) -> int:
        return (len(self.stacks) * len(self.platforms)
                * len(self.traffics) * len(self.seeds))

    def scenarios(self) -> List[Scenario]:
        """Expand the grid in deterministic nested order (stack-major)."""
        return [Scenario(stack=stack, platform=platform, traffic=traffic,
                         seed=seed, evaluator=self.evaluator)
                for stack in self.stacks
                for platform in self.platforms
                for traffic in self.traffics
                for seed in self.seeds]
