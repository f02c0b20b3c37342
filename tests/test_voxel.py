"""Tests for voxelization and R-MAE radial masking."""

import numpy as np
import pytest

from repro.sim import LidarConfig, LidarScanner, sample_scene
from repro.voxel import (
    RadialMaskConfig,
    VoxelGridConfig,
    angular_only_mask,
    beam_mask_from_segments,
    radial_mask,
    segment_of_azimuth,
    uniform_mask,
    voxelize,
)
from repro.voxel.masking import _sample_segments


GRID = VoxelGridConfig(nx=16, ny=16, nz=2)


def _cloud(seed=0):
    rng = np.random.default_rng(seed)
    scan = LidarScanner(LidarConfig(n_azimuth=48, n_elevation=8),
                        rng=rng).scan(sample_scene(rng))
    return voxelize(scan.points, scan.labels, GRID)


# ------------------------------------------------------------------- grid
def test_point_to_voxel_roundtrip():
    coord = (3, 7, 1)
    center = GRID.voxel_center(coord)
    assert GRID.point_to_voxel(center) == coord


def test_point_outside_grid_is_none():
    assert GRID.point_to_voxel(np.array([-10.0, 0.0, 0.0])) is None
    assert GRID.point_to_voxel(np.array([1000.0, 0.0, 0.0])) is None


def test_voxel_range_and_azimuth():
    coord = (4, 8, 0)  # y center = 0 + ... compute directly
    center = GRID.voxel_center(coord)
    assert GRID.voxel_range(coord) == pytest.approx(np.hypot(*center[:2]))
    assert GRID.voxel_azimuth(coord) == pytest.approx(
        np.arctan2(center[1], center[0]))


def test_voxelize_counts_every_in_grid_point():
    pts = np.array([
        [10.0, 0.0, 1.0, 0.5],
        [10.1, 0.1, 1.1, 0.7],   # same voxel
        [50.0, 20.0, 2.0, 0.2],  # different voxel
        [-5.0, 0.0, 0.0, 0.1],   # outside grid
    ])
    cloud = voxelize(pts, config=GRID)
    assert cloud.num_occupied == 2
    first = GRID.point_to_voxel(pts[0, :3])
    feats = cloud.features[first]
    assert feats[0] == pytest.approx(np.log1p(2))
    assert feats[1] == pytest.approx(0.6)


def test_voxelize_majority_labels():
    pts = np.array([
        [10.0, 0.0, 1.0, 0.5],
        [10.1, 0.1, 1.1, 0.7],
        [10.2, 0.0, 1.0, 0.5],
    ])
    labels = np.array([2, 2, 5])
    cloud = voxelize(pts, labels, GRID)
    coord = GRID.point_to_voxel(pts[0, :3])
    assert cloud.point_labels[coord] == 2


def test_occupancy_dense_matches_sparse():
    cloud = _cloud()
    dense = cloud.occupancy_dense()
    assert dense.sum() == cloud.num_occupied
    for c in cloud.coords:
        assert dense[c] == 1.0


def test_masked_subcloud():
    cloud = _cloud()
    keep = {c: (i % 2 == 0) for i, c in enumerate(cloud.coords)}
    sub = cloud.masked(keep)
    assert sub.num_occupied == sum(keep.values())
    assert all(keep[c] for c in sub.coords)


# ---------------------------------------------------------------- masking
def test_segment_of_azimuth_bounds():
    assert segment_of_azimuth(-np.pi, 24) == 0
    assert segment_of_azimuth(np.pi - 1e-9, 24) == 23
    assert 0 <= segment_of_azimuth(0.0, 24) < 24


def test_radial_mask_keeps_near_voxels():
    cloud = _cloud()
    config = RadialMaskConfig(n_segments=8, segment_keep_fraction=1.0,
                              reference_range_m=1000.0)
    keep, segments = radial_mask(cloud, config, np.random.default_rng(1))
    # All segments kept + huge reference range => everything survives.
    assert all(keep.values())
    assert segments.all()


def test_radial_mask_fraction_near_target():
    cloud = _cloud()
    config = RadialMaskConfig()
    fractions = []
    for seed in range(8):
        keep, _ = radial_mask(cloud, config, np.random.default_rng(seed))
        fractions.append(np.mean(list(keep.values())))
    mean_frac = float(np.mean(fractions))
    # The paper's operating regime: a small sensed fraction (<~25%).
    assert 0.02 < mean_frac < 0.3


def test_radial_mask_range_probability_monotone():
    config = RadialMaskConfig(reference_range_m=10.0, range_exponent=2.0)
    probs = [config.range_keep_probability(r) for r in (5, 10, 20, 40)]
    assert probs[0] == probs[1] == 1.0
    assert probs[2] > probs[3]


def test_radial_mask_respects_segments():
    cloud = _cloud()
    config = RadialMaskConfig(n_segments=12, segment_keep_fraction=0.25,
                              reference_range_m=1000.0)
    keep, segments = radial_mask(cloud, config, np.random.default_rng(2))
    for coord, kept in keep.items():
        seg = segment_of_azimuth(cloud.config.voxel_azimuth(coord), 12)
        if kept:
            assert segments[seg]
        if not segments[seg]:
            assert not kept


def test_uniform_mask_fraction():
    cloud = _cloud()
    keep = uniform_mask(cloud, 0.5, np.random.default_rng(3))
    frac = np.mean(list(keep.values()))
    assert 0.3 < frac < 0.7


def test_uniform_mask_validation():
    with pytest.raises(ValueError):
        uniform_mask(_cloud(), 1.5)


def test_angular_only_mask_all_or_nothing_per_segment():
    cloud = _cloud()
    config = RadialMaskConfig(n_segments=6, segment_keep_fraction=0.5)
    keep = angular_only_mask(cloud, config, np.random.default_rng(4))
    by_segment = {}
    for coord, kept in keep.items():
        seg = segment_of_azimuth(cloud.config.voxel_azimuth(coord), 6)
        by_segment.setdefault(seg, set()).add(kept)
    for values in by_segment.values():
        assert len(values) == 1  # consistent within each segment


def test_mask_config_validation():
    with pytest.raises(ValueError):
        RadialMaskConfig(segment_keep_fraction=0.0)
    with pytest.raises(ValueError):
        RadialMaskConfig(n_segments=0)


def test_beam_mask_from_segments():
    lidar = LidarConfig(n_azimuth=24, n_elevation=4)
    config = RadialMaskConfig(n_segments=24, segment_keep_fraction=0.25)
    segments = np.zeros(24, dtype=bool)
    segments[0] = True  # azimuth near -pi
    fired = beam_mask_from_segments(segments, lidar, config)
    assert fired.sum() == 4  # one azimuth column x 4 elevations
    assert fired[:4].all()


def test_beam_mask_with_expected_ranges_thins_far():
    lidar = LidarConfig(n_azimuth=8, n_elevation=8)
    config = RadialMaskConfig(n_segments=8, segment_keep_fraction=1.0,
                              reference_range_m=5.0, range_exponent=4.0)
    segments = np.ones(8, dtype=bool)
    near = np.full(lidar.n_beams, 2.0)
    far = np.full(lidar.n_beams, 80.0)
    rng = np.random.default_rng(5)
    fired_near = beam_mask_from_segments(segments, lidar, config, near, rng)
    fired_far = beam_mask_from_segments(segments, lidar, config, far, rng)
    assert fired_near.sum() > fired_far.sum()


# ----------------------------------------------- array masks vs the loops
#
# The mask builders are array passes; the per-voxel and per-column loops
# they replaced are kept here as oracles.  Masks, their key order and
# the generator's state afterwards must match the loops byte for byte:
# R-MAE pretraining, Table II and the live loop's frugal scans all read
# them, and one extra or missing draw shifts every later mask.

def _segment_loop(azimuth_rad, n_segments):
    frac = (azimuth_rad + np.pi) / (2 * np.pi)
    return int(np.clip(frac * n_segments, 0, n_segments - 1))


def _center_loop(grid, coord):
    """A voxel's centre with the scalar arithmetic ``voxel_center`` had."""
    sx, sy, sz = grid.voxel_size
    return np.array([grid.x_range[0] + (coord[0] + 0.5) * sx,
                     grid.y_range[0] + (coord[1] + 0.5) * sy,
                     grid.z_range[0] + (coord[2] + 0.5) * sz])


def _polar_loop(grid, coord):
    """``(azimuth, range)`` of a voxel centre, as ``voxel_azimuth`` and
    ``voxel_range`` computed them one voxel at a time."""
    c = _center_loop(grid, coord)
    return float(np.arctan2(c[1], c[0])), float(np.hypot(c[0], c[1]))


def _radial_mask_loop(cloud, config, rng):
    segment_mask = _sample_segments(config, rng)
    keep = {}
    for coord in cloud.coords:
        az, r = _polar_loop(cloud.config, coord)
        seg = _segment_loop(az, config.n_segments)
        if not segment_mask[seg]:
            keep[coord] = False
            continue
        keep[coord] = bool(rng.random() < config.range_keep_probability(r))
    return keep, segment_mask


def _angular_only_loop(cloud, config, rng):
    segment_mask = _sample_segments(config, rng)
    return {c: bool(segment_mask[_segment_loop(
        _polar_loop(cloud.config, c)[0], config.n_segments)])
        for c in cloud.coords}


def _beam_mask_loop(segment_mask, lidar, mask_config, expected_ranges, rng):
    fired = np.zeros(lidar.n_beams, dtype=bool)
    az_angles = np.linspace(-np.pi, np.pi, lidar.n_azimuth, endpoint=False)
    for az_idx, az in enumerate(az_angles):
        if not segment_mask[_segment_loop(az, mask_config.n_segments)]:
            continue
        start = az_idx * lidar.n_elevation
        for el in range(lidar.n_elevation):
            beam = start + el
            if expected_ranges is not None:
                p = mask_config.range_keep_probability(
                    float(expected_ranges[beam]))
                fired[beam] = bool(rng.random() < p)
            else:
                fired[beam] = True
    return fired


# The end-to-end benchmark's geometry (Table I) and Table II's.
E2E_GRID = VoxelGridConfig(nx=24, ny=24, nz=2, x_range=(0.0, 60.0),
                           y_range=(-30.0, 30.0))
E2E_LIDAR = LidarConfig(n_azimuth=64, n_elevation=14, azimuth_fov_deg=100.0)
E2E_SCENE = dict(n_cars=3, n_pedestrians=2, n_cyclists=2, max_range=30.0,
                 azimuth_limit=np.pi / 4)
TABLE2_LIDAR = LidarConfig(n_azimuth=72, n_elevation=20)
TABLE2_GRID = VoxelGridConfig(nx=24, ny=24, nz=2)
TABLE2_MASK = RadialMaskConfig(n_segments=24, segment_keep_fraction=0.25,
                               reference_range_m=10.0)


def _mask_clouds():
    """Full and frugal ``e2ebench``-geometry clouds, Table II clouds, a
    cloud with voxels on the grid edges and an empty cloud."""
    rng = np.random.default_rng(70)
    scanner = LidarScanner(E2E_LIDAR, rng=rng)
    clouds = {}
    for i in range(6):
        scan = scanner.scan(sample_scene(rng, **E2E_SCENE))
        if i % 2:
            scan = scanner.scan(sample_scene(rng, **E2E_SCENE),
                                rng.random(E2E_LIDAR.n_beams) < 0.25)
        clouds[f"e2e-{i}"] = voxelize(scan.points, scan.labels, E2E_GRID)
    for i in range(2):
        scan = LidarScanner(TABLE2_LIDAR, rng=rng).scan(
            sample_scene(np.random.default_rng(10 + i)))
        clouds[f"table2-{i}"] = voxelize(scan.points, scan.labels,
                                         TABLE2_GRID)
    edges = np.array([[0.01, -29.99, 0.1, 0.5], [59.99, 29.99, 1.0, 0.5],
                      [0.01, 0.01, 0.1, 0.5], [30.0, -0.01, 0.1, 0.5]])
    clouds["edges"] = voxelize(edges, config=E2E_GRID)
    clouds["empty"] = voxelize(np.zeros((0, 4)), config=E2E_GRID)
    return clouds


MASK_CONFIGS = {
    "default": RadialMaskConfig(),
    "table2": TABLE2_MASK,
    "all-segments": RadialMaskConfig(n_segments=8,
                                     segment_keep_fraction=1.0),
    "steep": RadialMaskConfig(n_segments=5, segment_keep_fraction=0.4,
                              range_exponent=4.0, reference_range_m=3.0),
}


def test_voxel_polar_matches_the_scalar_loop():
    """Centres, azimuths and ranges of a whole cloud at once, and of one
    voxel at a time, equal the per-voxel scalar arithmetic bit for bit."""
    for name, cloud in _mask_clouds().items():
        grid, coords = cloud.config, cloud.coords
        centers = grid.voxel_centers(coords)
        azimuth, ranges = grid.voxel_polar(coords)
        assert centers.shape == (len(coords), 3), name
        for i, coord in enumerate(coords):
            want = _center_loop(grid, coord)
            assert centers[i].tobytes() == want.tobytes(), name
            assert grid.voxel_center(coord).tobytes() == want.tobytes()
            az, r = _polar_loop(grid, coord)
            assert (azimuth[i], ranges[i]) == (az, r), name
            assert (grid.voxel_azimuth(coord), grid.voxel_range(coord)) \
                == (az, r)


def _same_keep(got, want):
    assert list(got) == list(want)              # key order
    assert list(got.values()) == list(want.values())
    assert all(type(v) is bool for v in got.values())


@pytest.mark.parametrize("config_name", sorted(MASK_CONFIGS))
def test_radial_mask_matches_the_voxel_loop(config_name):
    config = MASK_CONFIGS[config_name]
    for name, cloud in _mask_clouds().items():
        rng, oracle_rng = np.random.default_rng(71), np.random.default_rng(71)
        keep, segments = radial_mask(cloud, config, rng)
        want_keep, want_segments = _radial_mask_loop(cloud, config,
                                                     oracle_rng)
        _same_keep(keep, want_keep)
        assert (segments.dtype, segments.tobytes()) == \
            (want_segments.dtype, want_segments.tobytes()), name
        assert rng.bit_generator.state == oracle_rng.bit_generator.state, name
        # Masking the same cloud again continues the same stream.
        _same_keep(radial_mask(cloud, config, rng)[0],
                   _radial_mask_loop(cloud, config, oracle_rng)[0])
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_ablation_masks_match_their_loops():
    config = RadialMaskConfig(n_segments=6, segment_keep_fraction=0.5)
    for name, cloud in _mask_clouds().items():
        rng, oracle_rng = np.random.default_rng(72), np.random.default_rng(72)
        _same_keep(angular_only_mask(cloud, config, rng),
                   _angular_only_loop(cloud, config, oracle_rng))
        _same_keep(uniform_mask(cloud, 0.3, rng),
                   {c: bool(oracle_rng.random() < 0.3) for c in cloud.coords})
        assert rng.bit_generator.state == oracle_rng.bit_generator.state, name


def test_segment_of_azimuth_matches_the_scalar_loop():
    azimuths = [-np.pi, -np.pi + 1e-12, -1.0, 0.0, 0.5, np.pi - 1e-9,
                np.pi, *np.random.default_rng(73).uniform(-np.pi, np.pi, 50)]
    for n in (1, 5, 24):
        for az in azimuths:
            got = segment_of_azimuth(az, n)
            assert type(got) is int and got == _segment_loop(az, n)


@pytest.mark.parametrize("geometry", ["e2e", "table2"])
def test_beam_mask_matches_the_column_loop(geometry):
    lidar, grid, config = {
        "e2e": (E2E_LIDAR, E2E_GRID, RadialMaskConfig()),
        "table2": (TABLE2_LIDAR, TABLE2_GRID, TABLE2_MASK)}[geometry]
    for i in range(4):
        # Table II's stage 2: each beam expects the full scan's range,
        # and the maximum range where the full scan had no return.
        scene = sample_scene(np.random.default_rng(10 + i))
        full = LidarScanner(lidar, rng=np.random.default_rng(74)).scan(scene)
        cloud = voxelize(full.points, full.labels, grid)
        _, segments = radial_mask(cloud, config, np.random.default_rng(20 + i))
        expected = np.full(lidar.n_beams, lidar.max_range_m)
        expected[full.beam_ids] = full.ranges
        for ranges in (None, expected):
            rng, oracle_rng = (np.random.default_rng(30 + i),
                               np.random.default_rng(30 + i))
            fired = beam_mask_from_segments(segments, lidar, config, ranges,
                                            rng)
            want = _beam_mask_loop(segments, lidar, config, ranges,
                                   oracle_rng)
            assert (fired.dtype, fired.shape, fired.tobytes()) == \
                (want.dtype, want.shape, want.tobytes())
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            assert fired.any()
