"""Tests for detection heads, AP metric, and the Table I pipeline."""

import numpy as np
import pytest

from repro.detect import (
    BEVDetector,
    Detection,
    DetectionExperimentConfig,
    DetectorConfig,
    build_target_maps,
    compute_ap,
    evaluate_class,
    finetune_detector,
    make_detection_data,
    run_detection_experiment,
)
from repro.sim import CLASS_NAMES, Scene, SceneObject
from repro.voxel import VoxelGridConfig, VoxelizedCloud, voxelize


GRID = VoxelGridConfig(nx=16, ny=16, nz=2, x_range=(0.0, 60.0),
                       y_range=(-30.0, 30.0))


# ---------------------------------------------------------------------- AP
def test_compute_ap_perfect():
    matches = [(0.9, True), (0.8, True)]
    assert compute_ap(matches, n_ground_truth=2) == pytest.approx(1.0)


def test_compute_ap_no_predictions():
    assert compute_ap([], n_ground_truth=3) == 0.0


def test_compute_ap_no_ground_truth():
    assert compute_ap([(0.9, False)], n_ground_truth=0) == 0.0


def test_compute_ap_false_positives_lower_ap():
    clean = compute_ap([(0.9, True), (0.8, True)], 2)
    noisy = compute_ap([(0.95, False), (0.9, True), (0.8, True)], 2)
    assert noisy < clean


def test_compute_ap_partial_recall():
    # One of two GT found -> AP = 0.5 with perfect precision.
    assert compute_ap([(0.9, True)], 2) == pytest.approx(0.5)


def test_evaluate_class_distance_matching():
    preds = [[Detection("Car", 10.0, 0.0, 0.9)]]
    gts_close = [np.array([[11.0, 0.5]])]
    gts_far = [np.array([[30.0, 20.0]])]
    assert evaluate_class(preds, gts_close, "Car") == pytest.approx(100.0)
    assert evaluate_class(preds, gts_far, "Car") == 0.0


def test_evaluate_class_each_gt_claimed_once():
    preds = [[Detection("Car", 10.0, 0.0, 0.9),
              Detection("Car", 10.1, 0.0, 0.8)]]
    gts = [np.array([[10.0, 0.0]])]
    # Second prediction is a duplicate -> precision drops below 1.
    ap = evaluate_class(preds, gts, "Car")
    assert ap == pytest.approx(100.0)  # AP unaffected: recall hit first


def test_evaluate_class_scene_count_mismatch():
    with pytest.raises(ValueError):
        evaluate_class([[]], [np.zeros((0, 2)), np.zeros((0, 2))], "Car")


# ------------------------------------------------------------------- heads
def _toy_scene():
    return Scene(objects=[
        SceneObject("Car", np.array([15.0, 0.0, 0.8]),
                    np.array([4.0, 2.0, 1.6])),
        SceneObject("Pedestrian", np.array([10.0, 5.0, 0.9]),
                    np.array([0.8, 0.7, 1.8])),
    ])


def test_build_target_maps_marks_centers():
    scene = _toy_scene()
    targets = build_target_maps(scene, GRID, downsample=2)
    assert targets.shape == (3, 8, 8)
    assert targets[0].sum() == 1.0   # one car
    assert targets[1].sum() == 1.0   # one pedestrian
    assert targets[2].sum() == 0.0   # no cyclist


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(backbone="yolo")


def test_detector_score_maps_shape():
    det = BEVDetector(GRID, rng=np.random.default_rng(0))
    pts = np.array([[15.0, 0.0, 0.8, 0.5], [10.0, 5.0, 0.9, 0.4]])
    cloud = voxelize(pts, config=GRID)
    maps = det.score_maps(cloud)
    assert maps.shape == (3, 8, 8)


def test_pvrcnn_lite_has_more_parameters():
    a = BEVDetector(GRID, DetectorConfig(backbone="second_lite"),
                    rng=np.random.default_rng(1))
    b = BEVDetector(GRID, DetectorConfig(backbone="pvrcnn_lite"),
                    rng=np.random.default_rng(1))
    assert b.num_parameters() > a.num_parameters()


def test_detector_overfits_single_scene():
    """Sanity: the detector can memorize one labeled scene."""
    scene = _toy_scene()
    pts = []
    for obj in scene.objects:
        for _ in range(6):
            jitter = np.random.default_rng(2).normal(0, 0.3, size=3)
            pts.append([*(obj.center + jitter), 0.5])
    cloud = voxelize(np.array(pts),
                     labels=np.repeat([0, 1], 6), config=GRID)
    targets = build_target_maps(scene, GRID)
    det = BEVDetector(GRID, rng=np.random.default_rng(3))
    losses = finetune_detector(det, [(cloud, targets)], epochs=40,
                               rng=np.random.default_rng(4))
    assert losses[-1] < losses[0] * 0.5
    detections = det.detect(cloud, score_threshold=0.3)
    assert any(d.cls == "Car" and abs(d.x - 15.0) < 5 for d in detections)


def test_detect_returns_detections_with_scores():
    det = BEVDetector(GRID, rng=np.random.default_rng(5))
    pts = np.array([[15.0, 0.0, 0.8, 0.5]])
    cloud = voxelize(pts, config=GRID)
    for d in det.detect(cloud, score_threshold=0.0):
        assert 0.0 <= d.score <= 1.0
        assert d.cls in ("Car", "Pedestrian", "Cyclist")


def _cell_centroids_loop(det, cloud):
    """The per-voxel centroid loop: the oracle for ``_cell_centroids``."""
    ds = det.rmae.config.bev_downsample
    sums, counts = {}, {}
    for coord in cloud.coords:
        cell = (coord[0] // ds, coord[1] // ds)
        center = det.grid.voxel_center(coord)[:2]
        if cell in sums:
            sums[cell] += center
            counts[cell] += 1
        else:
            sums[cell] = center.copy()
            counts[cell] = 1
    return {cell: sums[cell] / counts[cell] for cell in sums}


def _peak_pick_loop(det, logits, cloud, thr):
    """The per-cell peak-picking loop: the oracle for ``_peak_pick``."""
    probs = 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))
    ds = det.rmae.config.bev_downsample
    sx, sy, _ = det.grid.voxel_size
    centroids = _cell_centroids_loop(det, cloud)
    detections = []
    for ci, cls in enumerate(CLASS_NAMES):
        pm = probs[ci]
        h, w = pm.shape
        for i in range(h):
            for j in range(w):
                p = pm[i, j]
                if p < thr:
                    continue
                nb = pm[max(i - 1, 0):i + 2, max(j - 1, 0):j + 2]
                if p < nb.max() - 1e-12:
                    continue
                if (i, j) in centroids:
                    x, y = centroids[(i, j)]
                else:
                    x = det.grid.x_range[0] + (i + 0.5) * sx * ds
                    y = det.grid.y_range[0] + (j + 0.5) * sy * ds
                detections.append(Detection(cls, x, y, float(p)))
    return detections


def _peak_pick_cases():
    """(logits, cloud, threshold) cases on the 8x8 BEV map of ``GRID``."""
    rng = np.random.default_rng(70)
    empty = VoxelizedCloud(GRID, {}, {})
    flat = rng.choice(GRID.nx * GRID.ny * GRID.nz, size=40, replace=False)
    coords = [tuple(int(v) for v in c) for c in
              np.stack(np.unravel_index(flat, GRID.shape), axis=1)]
    # Several voxels per cell, so centroids are real means; cells
    # without a voxel fall back to the cell centre.
    cloud = VoxelizedCloud(GRID, {c: np.zeros(4) for c in coords},
                           {c: -1 for c in coords})
    # Plateaus and exact ties: whole-number logits repeat.
    plateau = rng.integers(-2, 3, size=(3, 8, 8)).astype(float)
    # Peaks on every border and corner, and near-ties inside 1e-12.
    border = np.full((3, 8, 8), -3.0)
    border[:, 0, 0] = border[:, 7, 7] = border[:, 0, 4] = 2.0
    border[:, 4, 0] = border[:, 7, 3] = border[:, 3, 7] = 2.0
    border[1, 5, 5], border[1, 5, 6] = 1.0, 1.0 + 1e-13
    border[2, 2, 2], border[2, 2, 3] = 1.0, 1.0 + 1e-9
    noise = rng.normal(0.0, 2.0, size=(3, 8, 8))
    cases = []
    for logits in (plateau, border, noise):
        probs = 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))
        # A threshold some cell's probability equals exactly.
        for thr in (0.0, 0.3, 0.9, float(np.median(probs))):
            cases.extend([(logits, cloud, thr), (logits, empty, thr)])
    return cases


@pytest.mark.parametrize("backbone", ["second_lite", "pvrcnn_lite"])
def test_peak_pick_matches_the_per_cell_loop(backbone):
    det = BEVDetector(GRID, DetectorConfig(backbone=backbone),
                      rng=np.random.default_rng(6))
    seen = 0
    for logits, cloud, thr in _peak_pick_cases():
        want = _peak_pick_loop(det, logits, cloud, thr)
        got = det._peak_pick(logits, cloud, thr)
        assert [(d.cls, float(d.x).hex(), float(d.y).hex(), d.score.hex())
                for d in got] == \
            [(d.cls, float(d.x).hex(), float(d.y).hex(), d.score.hex())
             for d in want]
        seen += len(want)
    assert seen > 100


# ---------------------------------------------------------------- pipeline
def test_make_detection_data_shapes():
    cfg = DetectionExperimentConfig(n_pretrain_scenes=2, n_train_scenes=2,
                                    n_eval_scenes=2)
    pretrain, train, evals = make_detection_data(cfg)
    assert len(pretrain) == 2
    assert len(train) == 2 and len(evals) == 2
    cloud, targets = train[0]
    assert targets.shape[0] == 3


def test_run_detection_experiment_smoke():
    cfg = DetectionExperimentConfig(n_pretrain_scenes=3, n_train_scenes=3,
                                    n_eval_scenes=3, pretrain_epochs=1,
                                    finetune_epochs=2)
    data = make_detection_data(cfg)
    ap = run_detection_experiment("rmae", config=cfg, data=data)
    assert set(ap.keys()) == {"Car", "Pedestrian", "Cyclist"}
    assert all(0.0 <= v <= 100.0 for v in ap.values())


def test_run_detection_experiment_unknown_method():
    with pytest.raises(KeyError):
        run_detection_experiment("simclr")


def test_pretraining_transfers_encoder():
    """Pretraining must actually change the encoder the detector gets."""
    from repro.generative import RMAE, pretrain_rmae
    from repro.sim import LidarConfig, LidarScanner, sample_scene

    rng = np.random.default_rng(6)
    scanner = LidarScanner(LidarConfig(n_azimuth=32, n_elevation=6), rng=rng)
    clouds = [voxelize(scanner.scan(sample_scene(rng)).points, config=GRID)
              for _ in range(2)]
    encoder = RMAE(GRID, rng=np.random.default_rng(7))
    before = [p.data.copy() for p in encoder.parameters()]
    pretrain_rmae(encoder, clouds, epochs=2, rng=np.random.default_rng(8))
    changed = any(not np.allclose(b, p.data)
                  for b, p in zip(before, encoder.parameters()))
    assert changed
    det = BEVDetector(GRID, encoder=encoder, rng=np.random.default_rng(9))
    # The detector really shares the pretrained object (not a copy).
    assert det.rmae is encoder
