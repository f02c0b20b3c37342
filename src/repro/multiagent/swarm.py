"""Coordinated vs uncoordinated swarm sensing (Sec. VII + conclusion).

The conclusion claims "multi-agent sensing-to-action loops, leveraging
federated learning and distributed collaboration, can achieve a threefold
reduction in energy consumption."  This harness measures exactly that:
the same coverage task run by

* an **uncoordinated** swarm — every agent senses at the radius needed
  to guarantee coverage alone (full overlap, full cost), and
* a **coordinated** swarm — rectangular partitioning + minimal radii.

Both are scored on event-detection rate and total sensing energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..sim.gridworld import CoverageGridWorld, GridWorldConfig
from .coverage import coverage_redundancy, plan_coordinated_step

__all__ = ["SwarmResult", "run_uncoordinated", "run_coordinated",
           "compare_swarm_strategies"]


@dataclass
class SwarmResult:
    """Outcome of one swarm run."""

    strategy: str
    detection_rate: float
    total_energy_mj: float
    mean_redundancy: float
    steps: int


def _solo_radius(config: GridWorldConfig) -> int:
    """Radius one agent would need to cover the whole world alone.

    An uncoordinated agent cannot rely on teammates, so it senses to the
    world's diagonal from its position — the worst-case requirement.
    """
    return int(np.ceil(np.sqrt(2) * config.size / 2))


def run_uncoordinated(config: Optional[GridWorldConfig] = None,
                      steps: int = 40, seed: int = 0) -> SwarmResult:
    """Every agent independently senses at the solo radius; random walk."""
    config = config or GridWorldConfig()
    world = CoverageGridWorld(config, rng=np.random.default_rng(seed))
    radius = _solo_radius(config)
    redundancy = []
    rng = np.random.default_rng(seed + 1)
    for _ in range(steps):
        commands = []
        for _agent in world.agents:
            dx, dy = int(rng.integers(-1, 2)), int(rng.integers(-1, 2))
            commands.append(((dx, dy), radius))
        out = world.step(commands)
        redundancy.append(coverage_redundancy(out["sensed_sets"]))
    return SwarmResult("uncoordinated", world.detection_rate,
                       world.total_energy_mj, float(np.mean(redundancy)),
                       steps)


def run_coordinated(config: Optional[GridWorldConfig] = None,
                    steps: int = 40, seed: int = 0) -> SwarmResult:
    """Rectangular-partitioned coverage with minimal radii."""
    config = config or GridWorldConfig()
    world = CoverageGridWorld(config, rng=np.random.default_rng(seed))
    redundancy = []
    for _ in range(steps):
        positions = [a.position for a in world.agents]
        commands = plan_coordinated_step(config.size, positions)
        out = world.step(commands)
        redundancy.append(coverage_redundancy(out["sensed_sets"]))
    return SwarmResult("coordinated", world.detection_rate,
                       world.total_energy_mj, float(np.mean(redundancy)),
                       steps)


def compare_swarm_strategies(config: Optional[GridWorldConfig] = None,
                             steps: int = 40, seed: int = 0
                             ) -> Dict[str, SwarmResult]:
    """Run both strategies on identical worlds; returns both results.

    The headline number is
    ``uncoordinated.total_energy_mj / coordinated.total_energy_mj`` at
    comparable detection rates (the paper's ~3x claim).
    """
    return {
        "uncoordinated": run_uncoordinated(config, steps=steps, seed=seed),
        "coordinated": run_coordinated(config, steps=steps, seed=seed),
    }
