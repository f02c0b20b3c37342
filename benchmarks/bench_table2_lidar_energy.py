"""Table II — Conventional LiDAR vs the R-MAE framework.

Paper's column values: coverage 100% vs <10%, pulse energy 50 uJ vs
5.5 uJ, 830 K params / 335 M FLOPs for the model, sensing 72 mJ vs
792 uJ, reconstruction 7.1 mJ, combined ratio 9.11x.  We regenerate every
row from the physical models: the 1440-beam grid, R^4 pulse scaling over
the actually-sensed ranges, and FLOPs-priced reconstruction.
"""

import numpy as np
import pytest

from repro.generative import RMAE, compare_energy, energy_ratio
from repro.sim import LidarConfig, LidarScanner, sample_scene
from repro.voxel import (
    RadialMaskConfig,
    VoxelGridConfig,
    beam_mask_from_segments,
    radial_mask,
    voxelize,
)

from bench_utils import print_table, save_result

# The paper's implied geometry: 1440 pulses x 50 uJ = 72 mJ per scan.
LIDAR = LidarConfig(n_azimuth=72, n_elevation=20)
GRID = VoxelGridConfig(nx=24, ny=24, nz=2)
N_SCENES = 5
# Paper-scale model constants (Table II): our compact simulator model is
# smaller, so the paper's reported size is also priced for reference.
PAPER_PARAMS = 830_000
PAPER_FLOPS = 335_000_000


def run(smoke: bool = False) -> dict:
    """Single config: ``smoke`` is ignored."""
    rng = np.random.default_rng(0)
    scanner = LidarScanner(LIDAR, rng=rng)
    mask_cfg = RadialMaskConfig(n_segments=24, segment_keep_fraction=0.25,
                                reference_range_m=10.0)
    model = RMAE(GRID, rng=np.random.default_rng(1))

    conv_rows, rmae_rows, ratios = [], [], []
    for i in range(N_SCENES):
        scene = sample_scene(np.random.default_rng(10 + i))
        full = scanner.scan(scene)
        cloud = voxelize(full.points, full.labels, GRID)
        _, segments = radial_mask(cloud, mask_cfg,
                                  np.random.default_rng(20 + i))
        # Stage-2 expected ranges: previous scan's per-beam ranges
        # (max-range for beams with no prior return).
        expected = np.full(LIDAR.n_beams, LIDAR.max_range_m)
        expected[full.beam_ids] = full.ranges
        beam_mask = beam_mask_from_segments(
            segments, LIDAR, mask_cfg, expected_ranges=expected,
            rng=np.random.default_rng(30 + i))
        masked = scanner.scan(scene, beam_mask)
        reports = compare_energy(full, masked, PAPER_PARAMS, PAPER_FLOPS)
        conv_rows.append(reports["conventional"])
        rmae_rows.append(reports["rmae"])
        ratios.append(energy_ratio(reports))

    def mean(attr, rows):
        return float(np.mean([getattr(r, attr) for r in rows]))

    return {
        "conventional": {
            "coverage_pct": 100 * mean("coverage_fraction", conv_rows),
            "pulse_uj": mean("mean_pulse_energy_uj", conv_rows),
            "sensing_mj": mean("sensing_energy_mj", conv_rows),
            "reconstruction_mj": 0.0,
        },
        "rmae": {
            "coverage_pct": 100 * mean("coverage_fraction", rmae_rows),
            "pulse_uj": mean("mean_pulse_energy_uj", rmae_rows),
            "sensing_mj": mean("sensing_energy_mj", rmae_rows),
            "reconstruction_mj": mean("reconstruction_energy_mj",
                                      rmae_rows),
        },
        "model_parameters": PAPER_PARAMS,
        "model_flops": PAPER_FLOPS,
        "energy_ratio": float(np.mean(ratios)),
        "sim_model_parameters": model.num_parameters(),
        "sim_model_flops": 2 * model.reconstruction_macs(200),
    }


def test_table2_lidar_energy(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    c, r = result["conventional"], result["rmae"]
    print_table(
        "Table II — Conventional vs R-MAE LiDAR energy "
        "(paper: 100%/<10%, 50/5.5 uJ, 72 mJ/792 uJ + 7.1 mJ, 9.11x)",
        ["Metric", "Conventional", "R-MAE"],
        [
            ["Scene coverage (%)", f"{c['coverage_pct']:.0f}",
             f"{r['coverage_pct']:.1f}"],
            ["Energy per pulse (uJ)", f"{c['pulse_uj']:.1f}",
             f"{r['pulse_uj']:.2f}"],
            ["Model parameters", "n/a", result["model_parameters"]],
            ["FLOPs per scan", "n/a", f"{result['model_flops'] / 1e6:.0f}M"],
            ["Sensing energy (mJ)", f"{c['sensing_mj']:.1f}",
             f"{r['sensing_mj']:.3f}"],
            ["Reconstruction (mJ)", "n/a",
             f"{r['reconstruction_mj']:.2f}"],
            ["Combined ratio", "1.0x",
             f"{result['energy_ratio']:.2f}x lower"],
        ])
    save_result("table2_lidar_energy", result)

    # Shape assertions (the paper's qualitative claims).
    assert c["coverage_pct"] == pytest.approx(100.0)
    assert r["coverage_pct"] < 15.0                       # <10-15% active
    assert r["pulse_uj"] < c["pulse_uj"] / 4              # big pulse saving
    assert r["sensing_mj"] < c["sensing_mj"] / 20         # 72 mJ -> ~1 mJ
    assert result["energy_ratio"] > 5.0                   # ~9x combined
