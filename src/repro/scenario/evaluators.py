"""Scenario evaluators: seeded closures scoring one corrupted scan.

An evaluator is a named, registered function
``(clean_scan, corrupted_scan, rng) -> {metric: float}``.  Scenarios
reference evaluators *by name* so a :class:`~repro.scenario.Scenario`
stays a picklable, fingerprintable value — the replay store keys on the
evaluator name, which means a renamed evaluator naturally invalidates
its cached results while an unrelated evaluator's entries survive.

Evaluators must be deterministic given their inputs and draw randomness
only from the passed ``rng`` (their private stream spawned from the
scenario's content seed), and must return plain finite floats — the
sweep payload is serialized canonically for cross-worker byte-identity
checks.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

__all__ = ["register_evaluator", "get_evaluator", "scan_stats"]

EVALUATORS: Dict[str, Callable] = {}


def register_evaluator(name: str):
    """Decorator: register an evaluator under ``name``."""
    def deco(fn: Callable) -> Callable:
        EVALUATORS[name] = fn
        return fn
    return deco


def get_evaluator(name: str) -> Callable:
    if name not in EVALUATORS:
        raise ValueError(
            f"unknown evaluator {name!r}; valid evaluators: "
            f"{', '.join(sorted(EVALUATORS))}")
    return EVALUATORS[name]


@register_evaluator("scan_stats")
def scan_stats(clean, corrupted, rng: np.random.Generator
               ) -> Dict[str, float]:
    """Cheap corruption-impact statistics on the raw scans.

    Measures what the corruption did to the point cloud — retention,
    spurious clutter, range/intensity distortion, residual coverage and
    sensing energy — the raw material for robustness curves without
    dragging a full perception model into every scenario.
    """
    n_clean = clean.num_points
    n = corrupted.num_points
    spurious = (corrupted.labels == -2)
    genuine = ~spurious
    out = {
        "points_clean": float(n_clean),
        "points": float(n),
        "retention": float(n / n_clean) if n_clean else 0.0,
        "spurious_fraction": float(spurious.mean()) if n else 0.0,
        "coverage_fraction": float(corrupted.coverage_fraction),
        "energy_mj": float(corrupted.sensing_energy_mj()),
    }
    if n:
        out["range_mean"] = float(corrupted.ranges.mean())
        out["intensity_mean"] = float(corrupted.points[:, 3].mean())
    else:
        out["range_mean"] = 0.0
        out["intensity_mean"] = 0.0
    if n_clean:
        out["range_mean_clean"] = float(clean.ranges.mean())
        # Range-distribution shift, on a seeded probe subsample so the
        # cost stays flat as scans grow.
        probe = rng.choice(max(n_clean, 1), size=min(64, n_clean),
                           replace=False)
        probe_r = np.sort(clean.ranges[probe])
        if n:
            corr_sorted = np.sort(corrupted.ranges)
            idx = np.clip((np.arange(probe_r.size) * corr_sorted.size)
                          // max(probe_r.size, 1), 0, corr_sorted.size - 1)
            out["range_shift"] = float(
                np.abs(corr_sorted[idx] - probe_r).mean())
        else:
            out["range_shift"] = float(probe_r.mean())
    else:
        out["range_mean_clean"] = 0.0
        out["range_shift"] = 0.0
    return out
