"""Conclusion claim — "only 8% of the environment needs to be actively
sensed, significantly reducing sensing overhead."

Sweep the sensed fraction (via the radial mask's segment keep fraction)
and measure reconstruction quality of the *unsensed* scene.  The claim's
shape: reconstruction IoU saturates well before full coverage, so a
sub-15% sensed fraction retains most of the achievable fidelity.
"""

import numpy as np

from repro.generative import RMAE, pretrain_rmae, reconstruction_iou
from repro.sim import LidarConfig, LidarScanner, sample_scene
from repro.voxel import RadialMaskConfig, VoxelGridConfig, radial_mask, voxelize

from bench_utils import print_table, save_result

GRID = VoxelGridConfig(nx=16, ny=16, nz=2)
LIDAR = LidarConfig(n_azimuth=48, n_elevation=8)
KEEP_FRACTIONS = (0.10, 0.25, 0.5, 1.0)


def run(smoke: bool = False) -> dict:
    """Single config: ``smoke`` is ignored."""
    rng = np.random.default_rng(0)
    scanner = LidarScanner(LIDAR, rng=rng)
    clouds = []
    for _ in range(14):
        scan = scanner.scan(sample_scene(rng))
        clouds.append(voxelize(scan.points, scan.labels, GRID))
    train, test = clouds[:10], clouds[10:]

    model = RMAE(GRID, rng=np.random.default_rng(1))
    pretrain_rmae(model, train, RadialMaskConfig(), epochs=12,
                  rng=np.random.default_rng(2))

    results = {}
    for keep_fraction in KEEP_FRACTIONS:
        cfg = RadialMaskConfig(segment_keep_fraction=keep_fraction,
                               reference_range_m=1e6)  # angular-only sweep
        fracs, ious = [], []
        for cloud in test:
            for mask_seed in range(4):
                keep, _ = radial_mask(cloud, cfg,
                                      np.random.default_rng(mask_seed))
                masked = cloud.masked(keep)
                if masked.num_occupied == 0:
                    continue
                fracs.append(masked.num_occupied / cloud.num_occupied)
                recon = model.reconstruct_occupancy(masked)
                ious.append(reconstruction_iou(recon,
                                               cloud.occupancy_dense()))
        results[keep_fraction] = {
            "sensed_fraction": float(np.mean(fracs)),
            "reconstruction_iou": float(np.mean(ious)),
        }
    return results


def test_claim_sensing_fraction(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    full_iou = result[1.0]["reconstruction_iou"]
    print_table(
        "Conclusion claim — reconstruction fidelity vs sensed fraction "
        "(paper: ~8% active sensing suffices)",
        ["Segment keep", "Sensed fraction", "Recon IoU", "% of full-scan IoU"],
        [[f, f"{e['sensed_fraction']:.2f}",
          f"{e['reconstruction_iou']:.3f}",
          f"{100 * e['reconstruction_iou'] / full_iou:.0f}%"]
         for f, e in result.items()])
    save_result("claim_sensing_fraction", result)

    # IoU is monotone-ish in coverage but the low-coverage point already
    # retains the majority of full-scan fidelity.
    low = result[KEEP_FRACTIONS[0]]
    assert low["sensed_fraction"] < 0.2
    assert low["reconstruction_iou"] > 0.5 * full_iou
    assert result[0.25]["reconstruction_iou"] > 0.65 * full_iou
