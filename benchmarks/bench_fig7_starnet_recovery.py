"""Fig. 7 — object detection accuracy under snow, with STARNet recovery.

"STARNet increased object detection accuracy by ~15%, restoring
performance to clean data" — the monitor flags the corrupted LiDAR
stream and the system filters unreliable returns before detection.

Protocol: train a detector + monitor on clean synthetic scans, then
sweep snow severity and measure per-class AP three ways: clean ceiling,
unprotected, and STARNet-gated filtering.
"""

import numpy as np

from repro.detect import BEVDetector, build_target_maps, finetune_detector
from repro.generative import RMAE, pretrain_rmae
from repro.sim import LidarConfig, LidarScanner, sample_scene
from repro.starnet import LidarFeatureExtractor, STARNet, run_recovery_experiment
from repro.voxel import VoxelGridConfig, voxelize

from bench_utils import print_table, save_result

GRID = VoxelGridConfig(nx=24, ny=24, nz=2, x_range=(0.0, 60.0),
                       y_range=(-30.0, 30.0))
LIDAR = LidarConfig(n_azimuth=64, n_elevation=14, azimuth_fov_deg=100.0)
SEVERITIES = (0.0, 0.3, 0.6, 0.9)
CLASSES = ("Car", "Pedestrian")


def run(smoke: bool = False) -> dict:
    """Single config: ``smoke`` is ignored."""
    rng = np.random.default_rng(0)
    scanner = LidarScanner(LIDAR, rng=rng)
    scenes = [sample_scene(rng, n_cars=3, n_pedestrians=2, n_cyclists=1,
                           max_range=30.0, azimuth_limit=np.pi / 4)
              for _ in range(26)]
    scans = [scanner.scan(s) for s in scenes]
    clouds = [voxelize(s.points, s.labels, GRID) for s in scans]

    encoder = RMAE(GRID, rng=np.random.default_rng(1))
    pretrain_rmae(encoder, clouds[:14], epochs=6,
                  rng=np.random.default_rng(2))
    detector = BEVDetector(GRID, encoder=encoder,
                           rng=np.random.default_rng(3))
    train_pairs = [(clouds[i], build_target_maps(scenes[i], GRID))
                   for i in range(14)]
    finetune_detector(detector, train_pairs, epochs=20,
                      rng=np.random.default_rng(4))

    extractor = LidarFeatureExtractor(encoder, GRID)
    monitor = STARNet(extractor.feature_dim, score_method="spsa",
                      spsa_steps=25, rng=np.random.default_rng(5))
    monitor.fit(extractor.extract_batch(scans[:20]), epochs=35)

    raw = run_recovery_experiment(detector, monitor, extractor,
                                  scans[14:], scenes[14:],
                                  severities=SEVERITIES, classes=CLASSES,
                                  seed=6)
    return {str(k): v for k, v in raw.items()}


def _mean(entry: dict) -> float:
    return float(np.mean(list(entry.values())))


def test_fig7_starnet_recovery(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for sev in SEVERITIES:
        entry = result[str(sev)]
        rows.append([sev,
                     *(f"{entry['unprotected'][c]:.1f}" for c in CLASSES),
                     *(f"{entry['starnet'][c]:.1f}" for c in CLASSES),
                     f"{_mean(entry['starnet']) - _mean(entry['unprotected']):+.1f}"])
    print_table(
        "Fig. 7 — detection AP vs snow severity, unprotected vs "
        "STARNet-gated filtering (paper: ~15% accuracy restored)",
        ["Severity", *(f"{c} (raw)" for c in CLASSES),
         *(f"{c} (STARNet)" for c in CLASSES), "Mean gain"], rows)
    save_result("fig7_starnet_recovery", result)

    clean = _mean(result["0.0"]["unprotected"])
    mid_raw = _mean(result["0.6"]["unprotected"])
    mid_protected = _mean(result["0.6"]["starnet"])
    # Snow hurts, STARNet recovers a substantial share of the loss.
    assert mid_raw < clean
    assert mid_protected > mid_raw
    recovered = (mid_protected - mid_raw) / max(clean - mid_raw, 1e-9)
    assert recovered > 0.3  # recovers a third or more of the damage
    # Heavy snow: protection still strictly helps.
    assert _mean(result["0.9"]["starnet"]) > _mean(result["0.9"]["unprotected"])
    # Clean data is not meaningfully harmed by the gate.
    assert _mean(result["0.0"]["starnet"]) >= clean - 1.5
