"""Ablation — masking strategy for generative sensing (Sec. III).

Compares the R-MAE two-stage radial mask against its ablated variants at
a matched sensed fraction: angular-only (stage 1 without range
thinning), and uniform random voxel dropout (the OccMAE-style mask).
Two questions: which pretext yields the best reconstructions, and —
separately — which *deployment* mask costs the least sensing energy,
since only the range-aware mask avoids the R^4-expensive far pulses.
"""

import numpy as np

from repro.generative import RMAE, pretrain_rmae, reconstruction_iou
from repro.hardware import LidarPowerModel
from repro.sim import LidarConfig, LidarScanner, sample_scene
from repro.voxel import (
    RadialMaskConfig,
    VoxelGridConfig,
    angular_only_mask,
    radial_mask,
    uniform_mask,
    voxelize,
)

from bench_utils import print_table, save_result

GRID = VoxelGridConfig(nx=16, ny=16, nz=2)
LIDAR = LidarConfig(n_azimuth=48, n_elevation=8)


def run(smoke: bool = False) -> dict:
    """Single config: ``smoke`` is ignored."""
    rng = np.random.default_rng(0)
    scanner = LidarScanner(LIDAR, rng=rng)
    clouds, scans = [], []
    for _ in range(14):
        scan = scanner.scan(sample_scene(rng))
        scans.append(scan)
        clouds.append(voxelize(scan.points, scan.labels, GRID))
    train, test = clouds[:10], clouds[10:]

    model = RMAE(GRID, rng=np.random.default_rng(1))
    pretrain_rmae(model, train, RadialMaskConfig(), epochs=12,
                  rng=np.random.default_rng(2))

    radial_cfg = RadialMaskConfig()
    # Calibrate a matched uniform fraction from the radial mask itself.
    probe_keep, _ = radial_mask(test[0], radial_cfg,
                                np.random.default_rng(3))
    matched_fraction = float(np.mean(list(probe_keep.values())))
    angular_cfg = RadialMaskConfig(
        segment_keep_fraction=matched_fraction)

    def masker(name):
        def apply(cloud, mask_rng):
            if name == "radial":
                keep, _ = radial_mask(cloud, radial_cfg, mask_rng)
            elif name == "angular_only":
                keep = angular_only_mask(cloud, angular_cfg, mask_rng)
            else:
                keep = uniform_mask(cloud, matched_fraction, mask_rng)
            return keep
        return apply

    power = LidarPowerModel()
    results = {}
    for name in ("radial", "angular_only", "uniform"):
        apply = masker(name)
        ious, fractions, energies = [], [], []
        for ci, cloud in enumerate(test):
            scan = scans[10 + ci]
            for mask_seed in range(4):
                keep = apply(cloud,
                             np.random.default_rng(100 * mask_seed + ci))
                masked = cloud.masked(keep)
                if masked.num_occupied == 0:
                    continue
                fractions.append(masked.num_occupied / cloud.num_occupied)
                recon = model.reconstruct_occupancy(masked)
                ious.append(reconstruction_iou(recon,
                                               cloud.occupancy_dense()))
                # Energy of the pulses the mask retains: kept voxels'
                # mean ranges priced by the R^4 budget.
                kept_ranges = [cloud.config.voxel_range(c)
                               for c, k in keep.items() if k]
                energies.append(power.scan_energy_mj(
                    np.asarray(kept_ranges), adaptive=True))
        results[name] = {
            "sensed_fraction": float(np.mean(fractions)),
            "reconstruction_iou": float(np.mean(ious)),
            "sensing_energy_mj": float(np.mean(energies)),
        }
    return results


def test_ablation_masking(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation — masking strategy at matched sensed fraction",
        ["Mask", "Sensed fraction", "Recon IoU", "Sensing energy (mJ)"],
        [[name, f"{e['sensed_fraction']:.2f}",
          f"{e['reconstruction_iou']:.3f}",
          f"{e['sensing_energy_mj']:.3f}"]
         for name, e in result.items()])
    save_result("ablation_masking", result)

    # Fractions actually matched (within slack).
    fracs = [e["sensed_fraction"] for e in result.values()]
    assert max(fracs) - min(fracs) < 0.25
    # The range-aware mask spends the least sensing energy: it
    # preferentially drops the R^4-expensive far pulses.
    assert (result["radial"]["sensing_energy_mj"]
            <= result["angular_only"]["sensing_energy_mj"] + 1e-9)
    assert (result["radial"]["sensing_energy_mj"]
            < result["uniform"]["sensing_energy_mj"])
    # All masks leave enough signal for reconstruction well above the
    # masked-input floor.
    for e in result.values():
        assert e["reconstruction_iou"] > 0.2
