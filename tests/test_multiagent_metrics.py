"""Tests for multi-agent coordination and shared metrics (AUC, AEE)."""

import numpy as np
import pytest

from repro.metrics import average_endpoint_error, roc_auc
from repro.multiagent import (
    compare_swarm_strategies,
    coverage_redundancy,
    minimal_radius,
    plan_coordinated_step,
    rectangular_partition,
    run_coordinated,
)
from repro.sim import GridWorldConfig


# ---------------------------------------------------------------- coverage
def test_minimal_radius_exact():
    assert minimal_radius((0, 0), [(0, 0)]) == 0
    assert minimal_radius((0, 0), [(3, 4)]) == 5
    assert minimal_radius((5, 5), []) == 0


def test_coverage_redundancy():
    assert coverage_redundancy([{(0, 0)}, {(0, 0)}]) == pytest.approx(2.0)
    assert coverage_redundancy([{(0, 0)}, {(1, 1)}]) == pytest.approx(1.0)


def test_rectangular_partition_balanced():
    regions = rectangular_partition(12, 4)
    assert len(regions) == 4
    total = sum(len(r) for r in regions)
    assert total == 144
    sizes = [len(r) for r in regions]
    assert max(sizes) - min(sizes) <= 12  # near-equal areas


def test_rectangular_partition_no_overlap():
    regions = rectangular_partition(10, 5)
    seen = set()
    for region in regions:
        for cell in region:
            assert cell not in seen
            seen.add(cell)


def test_rectangular_partition_validation():
    with pytest.raises(ValueError):
        rectangular_partition(8, 0)


def test_plan_coordinated_step_moves_toward_regions():
    commands = plan_coordinated_step(12, [(0, 0), (11, 11), (0, 11),
                                          (11, 0)])
    assert len(commands) == 4
    for (dx, dy), radius in commands:
        assert dx in (-1, 0, 1) and dy in (-1, 0, 1)
        assert radius >= 0


def test_coordinated_radii_shrink_as_agents_settle():
    size = 12
    positions = [(0, 0), (11, 11), (0, 11), (11, 0)]
    radii_before = [r for _, r in plan_coordinated_step(size, positions)]
    # March agents toward their stations for a while.
    for _ in range(10):
        commands = plan_coordinated_step(size, positions)
        positions = [(p[0] + c[0][0], p[1] + c[0][1])
                     for p, c in zip(positions, commands)]
    radii_after = [r for _, r in plan_coordinated_step(size, positions)]
    assert sum(radii_after) <= sum(radii_before)


# ------------------------------------------------------------------ swarm
def test_swarm_strategies_comparable_detection():
    res = compare_swarm_strategies(steps=30, seed=1)
    un, co = res["uncoordinated"], res["coordinated"]
    assert un.detection_rate > 0.8
    assert co.detection_rate > 0.8
    assert abs(un.detection_rate - co.detection_rate) < 0.2


def test_swarm_coordination_saves_energy():
    res = compare_swarm_strategies(steps=30, seed=2)
    ratio = (res["uncoordinated"].total_energy_mj
             / res["coordinated"].total_energy_mj)
    assert ratio > 2.0  # the paper's ~3x claim at our scale


def test_swarm_coordination_reduces_redundancy():
    res = compare_swarm_strategies(steps=30, seed=3)
    assert (res["coordinated"].mean_redundancy
            < res["uncoordinated"].mean_redundancy)


def test_swarm_runs_with_odd_agent_counts():
    cfg = GridWorldConfig(size=9, n_agents=3)
    res = run_coordinated(cfg, steps=10, seed=5)
    assert res.steps == 10


# ---------------------------------------------------------------- metrics
def test_roc_auc_perfect_separation():
    scores = [0.1, 0.2, 0.8, 0.9]
    labels = [0, 0, 1, 1]
    assert roc_auc(scores, labels) == 1.0


def test_roc_auc_inverted():
    assert roc_auc([0.9, 0.8, 0.1, 0.2], [0, 0, 1, 1]) == 0.0


def test_roc_auc_random_is_half():
    rng = np.random.default_rng(6)
    scores = rng.random(2000)
    labels = rng.integers(0, 2, 2000)
    assert abs(roc_auc(scores, labels) - 0.5) < 0.05


def test_roc_auc_ties_midrank():
    # All equal scores -> AUC exactly 0.5.
    assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == pytest.approx(0.5)


def test_roc_auc_degenerate_single_class_is_chance_level():
    # No negatives (or no positives): no separation evidence, defined 0.5.
    assert roc_auc([0.5, 0.6], [1, 1]) == 0.5
    assert roc_auc([0.5, 0.6], [0, 0]) == 0.5


def test_roc_auc_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        roc_auc([0.5, 0.6, 0.7], [1, 0])


def test_aee_shape_validation():
    with pytest.raises(ValueError):
        average_endpoint_error(np.zeros((3, 4, 4)), np.zeros((3, 4, 4)))
    with pytest.raises(ValueError):
        average_endpoint_error(np.zeros((2, 4, 4)), np.zeros((2, 4, 4)),
                               mask=np.zeros((2, 2), dtype=bool))
