"""Redundancy-aware coverage assignment for agent swarms (Sec. VII).

"One agent can reduce its sensing load if another has superior coverage
or access to relevant data, improving overall system efficiency."

The coordinator partitions the world into balanced rectangular cells,
matches each agent to the nearest unclaimed one, and gives each agent
the *smallest sensing radius that still covers its own cell* —
eliminating the overlapping observations an uncoordinated swarm pays
for.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["minimal_radius", "coverage_redundancy",
           "rectangular_partition", "plan_coordinated_step"]

Cell = Tuple[int, int]


def minimal_radius(position: Cell, cells: Sequence[Cell]) -> int:
    """Smallest integer radius covering all assigned cells from position."""
    if not cells:
        return 0
    px, py = position
    worst = max((cx - px) ** 2 + (cy - py) ** 2 for cx, cy in cells)
    return int(np.ceil(np.sqrt(worst)))


def coverage_redundancy(sensed_sets: Sequence[set]) -> float:
    """Total observations / unique cells observed (1.0 = no overlap)."""
    union = set().union(*sensed_sets) if sensed_sets else set()
    total = sum(len(s) for s in sensed_sets)
    return total / max(len(union), 1)


def rectangular_partition(size: int, n_agents: int) -> List[List[Cell]]:
    """Balanced rows x cols rectangular partition of the grid.

    Unlike Lloyd iterations (which preserve a collinear start's
    degenerate symmetry), a direct rectangular tessellation guarantees
    near-square, near-equal responsibility regions.
    """
    if n_agents < 1:
        raise ValueError("need at least one agent")
    rows = int(np.floor(np.sqrt(n_agents)))
    while n_agents % rows:
        rows -= 1
    cols = n_agents // rows
    x_cuts = np.linspace(0, size, rows + 1).astype(int)
    y_cuts = np.linspace(0, size, cols + 1).astype(int)
    regions: List[List[Cell]] = []
    for r in range(rows):
        for c in range(cols):
            region = [(x, y)
                      for x in range(x_cuts[r], x_cuts[r + 1])
                      for y in range(y_cuts[c], y_cuts[c + 1])]
            regions.append(region)
    return regions


def plan_coordinated_step(size: int, positions: Sequence[Cell]
                          ) -> List[Tuple[Cell, int]]:
    """Per-agent (move, radius) commands under coordinated coverage.

    Agents are matched to balanced rectangular regions; each steps toward
    its region's centroid and senses with the minimal radius that still
    covers the region from its (new) position — so the fleet's total
    sensing footprint shrinks as agents settle onto their stations.
    """
    regions = rectangular_partition(size, len(positions))
    # Over-provisioned swarms (more agents than distinct strips) yield
    # empty regions; their owners simply hold position with radius 0.
    centroids = [
        (np.mean(np.asarray(r, dtype=np.float64), axis=0) if r
         else np.array([size / 2.0, size / 2.0]))
        for r in regions
    ]
    # Greedy matching of agents to the nearest unclaimed region.
    unclaimed = set(range(len(regions)))
    match: Dict[int, int] = {}
    for i, position in enumerate(positions):
        best, best_d = None, np.inf
        for ri in unclaimed:
            d = ((centroids[ri][0] - position[0]) ** 2
                 + (centroids[ri][1] - position[1]) ** 2)
            if d < best_d:
                best, best_d = ri, d
        match[i] = best
        unclaimed.discard(best)

    commands: List[Tuple[Cell, int]] = []
    for i, position in enumerate(positions):
        region = regions[match[i]]
        centroid = centroids[match[i]]
        dx = int(np.clip(round(centroid[0] - position[0]), -1, 1))
        dy = int(np.clip(round(centroid[1] - position[1]), -1, 1))
        moved = (position[0] + dx, position[1] + dy)
        radius = minimal_radius(moved, region)
        commands.append(((dx, dy), radius))
    return commands
