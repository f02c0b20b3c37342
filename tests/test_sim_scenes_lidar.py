"""Tests for procedural scenes and the raycast LiDAR scanner."""

import numpy as np
import pytest

from repro.sim import (
    CLASS_NAMES,
    LidarConfig,
    LidarScanner,
    Scene,
    SceneObject,
    sample_scene,
)


RNG = np.random.default_rng(21)


def _box(cls="Car", center=(10.0, 0.0, 0.8), size=(4.0, 2.0, 1.6), yaw=0.0):
    return SceneObject(cls, np.array(center), np.array(size), yaw)


# ------------------------------------------------------------------ scenes
def test_scene_object_validation():
    with pytest.raises(ValueError):
        SceneObject("Car", np.zeros(2), np.ones(3))
    with pytest.raises(ValueError):
        SceneObject("Car", np.zeros(3), np.array([1.0, -1.0, 1.0]))


def test_ray_intersect_hits_front_face():
    obj = _box(center=(10.0, 0.0, 1.0), size=(2.0, 2.0, 2.0))
    t = obj.ray_intersect(np.array([0.0, 0.0, 1.0]),
                          np.array([1.0, 0.0, 0.0]))
    assert t == pytest.approx(9.0)


def test_ray_intersect_miss():
    obj = _box(center=(10.0, 5.0, 1.0))
    t = obj.ray_intersect(np.array([0.0, 0.0, 1.0]),
                          np.array([1.0, 0.0, 0.0]))
    assert t is None


def test_ray_intersect_from_inside():
    obj = _box(center=(0.0, 0.0, 1.0), size=(4.0, 4.0, 4.0))
    t = obj.ray_intersect(np.array([0.0, 0.0, 1.0]),
                          np.array([1.0, 0.0, 0.0]))
    assert t == pytest.approx(2.0)


def test_sample_scene_counts():
    scene = sample_scene(np.random.default_rng(0), n_cars=3, n_pedestrians=2,
                         n_cyclists=1, n_buildings=0)
    counts = scene.class_counts()
    assert counts.get("Car", 0) <= 3
    assert len(scene.foreground()) == sum(
        counts.get(c, 0) for c in CLASS_NAMES)


def test_sample_scene_objects_dont_overlap():
    scene = sample_scene(np.random.default_rng(1), n_cars=4)
    fg = scene.foreground()
    for i, a in enumerate(fg):
        for b in fg[i + 1:]:
            d = np.linalg.norm(a.center[:2] - b.center[:2])
            assert d > 0.4


def test_sample_scene_azimuth_limit():
    scene = sample_scene(np.random.default_rng(2), n_cars=5,
                         azimuth_limit=np.pi / 6)
    for obj in scene.foreground():
        az = np.arctan2(obj.center[1], obj.center[0])
        assert abs(az) <= np.pi / 6 + 1e-9


def test_scene_assigns_object_ids():
    scene = sample_scene(np.random.default_rng(3))
    for i, obj in enumerate(scene.objects):
        assert obj.object_id == i


# ------------------------------------------------------------------- lidar
def test_beam_directions_unit_norm():
    cfg = LidarConfig(n_azimuth=12, n_elevation=4)
    dirs = cfg.beam_directions()
    assert dirs.shape == (48, 3)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    # Shared by every equal config, so callers cannot write to it.
    assert LidarConfig(n_azimuth=12, n_elevation=4).beam_directions() is dirs
    assert not dirs.flags.writeable


def test_scan_hits_ground():
    cfg = LidarConfig(n_azimuth=8, n_elevation=4, elevation_min_deg=-20,
                      elevation_max_deg=-5, range_noise_std_m=0.0)
    scanner = LidarScanner(cfg, rng=np.random.default_rng(4))
    scan = scanner.scan(Scene(objects=[]))
    assert scan.num_points == cfg.n_beams  # every downward beam hits ground
    assert np.all(scan.labels == -1)
    np.testing.assert_allclose(scan.points[:, 2], 0.0, atol=1e-9)


def test_scan_hits_object_before_ground():
    cfg = LidarConfig(n_azimuth=16, n_elevation=6, azimuth_fov_deg=60,
                      range_noise_std_m=0.0)
    scene = Scene(objects=[_box(center=(10.0, 0.0, 1.0),
                                size=(3.0, 3.0, 2.0))])
    scan = LidarScanner(cfg, rng=np.random.default_rng(5)).scan(scene)
    assert (scan.labels == 0).sum() > 0
    obj_ranges = scan.ranges[scan.labels == 0]
    assert np.all(obj_ranges < 12.0)


def test_scan_fired_mask_restricts_beams():
    cfg = LidarConfig(n_azimuth=8, n_elevation=4)
    scanner = LidarScanner(cfg, rng=np.random.default_rng(6))
    mask = np.zeros(cfg.n_beams, dtype=bool)
    mask[:8] = True
    scan = scanner.scan(sample_scene(np.random.default_rng(7)), mask)
    assert scan.coverage_fraction == pytest.approx(8 / 32)
    assert set(scan.beam_ids) <= set(range(8))


def test_scan_fired_mask_shape_check():
    cfg = LidarConfig(n_azimuth=8, n_elevation=4)
    scanner = LidarScanner(cfg)
    with pytest.raises(ValueError):
        scanner.scan(Scene(objects=[]), np.ones(5, dtype=bool))


def test_scan_energy_accounts_for_misses():
    cfg = LidarConfig(n_azimuth=8, n_elevation=4, elevation_min_deg=5,
                      elevation_max_deg=10)  # upward beams: all miss
    scan = LidarScanner(cfg, rng=np.random.default_rng(8)).scan(
        Scene(objects=[]))
    assert scan.num_points == 0
    # Misses still cost full pulse energy.
    assert scan.sensing_energy_mj() == pytest.approx(32 * 50.0 * 1e-3)


def test_scan_subset():
    cfg = LidarConfig(n_azimuth=8, n_elevation=4)
    scan = LidarScanner(cfg, rng=np.random.default_rng(9)).scan(
        sample_scene(np.random.default_rng(10)))
    mask = scan.ranges < np.median(scan.ranges)
    sub = scan.subset(mask)
    assert sub.num_points == int(mask.sum())
    assert np.all(sub.ranges < np.median(scan.ranges))


def test_intensity_decreases_with_range():
    # Steep vs shallow downward beams hit the ground near vs far.
    cfg = LidarConfig(n_azimuth=4, n_elevation=8, elevation_min_deg=-30,
                      elevation_max_deg=-2, range_noise_std_m=0.0)
    scene = Scene(objects=[])
    scan = LidarScanner(cfg, rng=np.random.default_rng(11)).scan(scene)
    order = np.argsort(scan.ranges)
    intensities = scan.points[order, 3]
    # Distant ground returns are dimmer than close ones.
    assert intensities[0] > intensities[-1]
    assert scan.ranges[order][0] < scan.ranges[order][-1]
