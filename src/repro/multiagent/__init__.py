"""``repro.multiagent`` — swarm sensing-action coordination (Sec. VII)."""

from .coverage import (
    coverage_redundancy,
    minimal_radius,
    plan_coordinated_step,
    rectangular_partition,
)
from .swarm import SwarmResult, compare_swarm_strategies, run_coordinated, run_uncoordinated

__all__ = [
    "minimal_radius", "coverage_redundancy",
    "plan_coordinated_step", "rectangular_partition",
    "SwarmResult", "run_uncoordinated", "run_coordinated",
    "compare_swarm_strategies",
]
