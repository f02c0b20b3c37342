"""Sec. V (text) — STARNet anomaly-detection AUC per corruption family.

Paper values (LiDAR-only): crosstalk 0.9658, cross-sensor interference
0.9938, AUC above 0.90 across natural corruptions, external disruptions,
and internal sensor failures — *without training on any fault type*.

This bench runs the full protocol on the synthetic corruption suite at a
moderate severity and claims the paper's band: all seven corruption
families evaluated, every family detectable (AUC >= 0.85), internal
sensor failures (crosstalk, cross-sensor interference) at AUC >= 0.9 —
all blocking; AUC drift against the stored baseline is a warning.
"""

from typing import List

from repro.runtime.bench import Claim, check
from repro.starnet import AUCExperimentConfig, run_auc_experiment

from bench_utils import assert_claims, print_table, save_result

PAPER_REFERENCE = {
    "crosstalk": 0.9658,
    "cross_sensor": 0.9938,
}
FAMILIES = {"snow", "rain", "fog", "beam_missing", "motion_blur",
            "crosstalk", "cross_sensor"}
AUC_FLOOR = 0.85           # every family stays detectable
INTERNAL_AUC_FLOOR = 0.9   # the paper's strongest detections
AUC_TOL = 0.08             # drift vs the stored baseline (warning)


def run(smoke: bool = False) -> dict:
    """Single config: ``smoke`` is ignored."""
    config = AUCExperimentConfig(n_fit_scans=28, n_test_scans=14,
                                 severity=0.45, spsa_steps=30,
                                 vae_epochs=40, seed=0)
    return run_auc_experiment(config)


def claims(payload: dict, baseline: dict) -> List[Claim]:
    out = [Claim("same-corruption-families", set(payload) == set(baseline),
                 True, f"families {sorted(payload)}"),
           Claim("seven-corruption-families", set(payload) == FAMILIES,
                 True, f"{len(set(payload) & FAMILIES)} of the "
                 f"{len(FAMILIES)} paper families, "
                 f"{len(set(payload) - FAMILIES)} others")]
    for family in sorted(baseline):
        if family not in payload:
            continue
        auc = payload[family]
        out.append(Claim(f"auc-floor-{family}", auc >= AUC_FLOOR, True,
                         f"{auc:.4f} (floor {AUC_FLOOR})"))
        out.append(Claim(f"auc-drift-{family}",
                         abs(auc - baseline[family]) <= AUC_TOL, False,
                         f"{auc:.4f} vs baseline {baseline[family]:.4f} "
                         f"(tol {AUC_TOL})"))
    for family in PAPER_REFERENCE:
        auc = payload.get(family, 0.0)
        out.append(Claim(f"internal-failure-auc-{family}",
                         auc >= INTERNAL_AUC_FLOOR, True,
                         f"{auc:.4f} (floor {INTERNAL_AUC_FLOOR})"))
    return out


def test_starnet_auc(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    verdict = check("starnet_auc", result)
    rows = []
    for name, auc in sorted(result.items(), key=lambda kv: -kv[1]):
        paper = PAPER_REFERENCE.get(name)
        rows.append([name, f"{auc:.4f}",
                     f"{paper:.4f}" if paper else "> 0.90 (band)"])
    print_table(
        "STARNet LiDAR-only anomaly detection AUC by corruption "
        "(likelihood regret via SPSA; no training on faults)",
        ["Corruption", "AUC (ours)", "AUC (paper)"], rows)
    save_result("starnet_auc", result)
    assert_claims(verdict)
