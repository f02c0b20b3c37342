"""Tests for generative sensing: R-MAE, pretraining baselines, energy."""

import numpy as np
import pytest

from repro.generative import (
    RMAE,
    compare_energy,
    energy_ratio,
    pretrain_also,
    pretrain_occmae,
    pretrain_rmae,
    reconstruction_energy_mj,
    reconstruction_iou,
)
from repro.kernels import BACKENDS, kernel_backend
from repro.sim import LidarConfig, LidarScanner, sample_scene
from repro.voxel import RadialMaskConfig, VoxelGridConfig, radial_mask, voxelize

GRID = VoxelGridConfig(nx=16, ny=16, nz=2)
LIDAR = LidarConfig(n_azimuth=48, n_elevation=8)


def _clouds(n=4, seed=0):
    rng = np.random.default_rng(seed)
    scanner = LidarScanner(LIDAR, rng=rng)
    out = []
    for _ in range(n):
        scan = scanner.scan(sample_scene(rng))
        out.append(voxelize(scan.points, scan.labels, GRID))
    return out


def _scans(seed=0):
    rng = np.random.default_rng(seed)
    scanner = LidarScanner(LIDAR, rng=rng)
    scene = sample_scene(rng)
    full = scanner.scan(scene)
    mask = np.zeros(LIDAR.n_beams, dtype=bool)
    mask[:: 10] = True  # ~10% coverage
    masked = scanner.scan(scene, mask)
    return full, masked


def test_rmae_forward_shapes():
    model = RMAE(GRID, rng=np.random.default_rng(1))
    cloud = _clouds(1)[0]
    logits = model.forward(cloud)
    assert logits.shape == (GRID.nz, GRID.nx, GRID.ny)
    occ = model.reconstruct_occupancy(cloud)
    assert occ.shape == GRID.shape
    assert occ.dtype == bool


@pytest.mark.parametrize("backend", BACKENDS)
def test_rmae_encode_and_training_step_leave_cloud_features_intact(backend):
    """The encoder reads the cloud's own feature arrays, so neither an
    encode nor a training step may write to them."""
    cloud = _clouds(1, seed=8)[0]
    before = [(c, f.tobytes()) for c, f in cloud.features.items()]
    with kernel_backend(backend):
        model = RMAE(GRID, rng=np.random.default_rng(9))
        model.encode(cloud)
        model.training_step(cloud, cloud.occupancy_dense())
    assert [(c, f.tobytes()) for c, f in cloud.features.items()] == before


def test_rmae_grid_divisibility_check():
    with pytest.raises(ValueError):
        RMAE(VoxelGridConfig(nx=15, ny=16, nz=2))


def test_rmae_pretraining_reduces_loss():
    clouds = _clouds(4)
    model = RMAE(GRID, rng=np.random.default_rng(2))
    losses = pretrain_rmae(model, clouds, epochs=6,
                           rng=np.random.default_rng(3))
    assert losses[-1] < losses[0]


def test_rmae_reconstructs_masked_regions():
    """After pretraining, reconstruction from a masked cloud must beat
    the trivial prediction (the masked input itself)."""
    clouds = _clouds(6, seed=4)
    model = RMAE(GRID, rng=np.random.default_rng(5))
    pretrain_rmae(model, clouds, epochs=10, rng=np.random.default_rng(6))
    cloud = clouds[0]
    keep, _ = radial_mask(cloud, RadialMaskConfig(),
                          np.random.default_rng(7))
    masked = cloud.masked(keep)
    recon = model.reconstruct_occupancy(masked)
    target = cloud.occupancy_dense()
    input_iou = reconstruction_iou(masked.occupancy_dense(), target)
    recon_iou = reconstruction_iou(recon, target)
    assert recon_iou > input_iou


def test_occmae_and_also_train():
    clouds = _clouds(3, seed=8)
    for pretrainer in (pretrain_occmae, pretrain_also):
        model = RMAE(GRID, rng=np.random.default_rng(9))
        losses = pretrainer(model, clouds, epochs=4,
                            rng=np.random.default_rng(10))
        assert losses[-1] < losses[0] * 1.2


def test_occmae_validation():
    model = RMAE(GRID)
    with pytest.raises(ValueError):
        pretrain_occmae(model, [], mask_ratio=1.0)
    with pytest.raises(ValueError):
        pretrain_also(model, [], subsample=0.0)


def test_reconstruction_iou_properties():
    a = np.zeros((4, 4, 2), dtype=bool)
    a[0, 0, 0] = True
    assert reconstruction_iou(a, a) == 1.0
    assert reconstruction_iou(a, ~a) == 0.0
    assert reconstruction_iou(np.zeros_like(a), np.zeros_like(a)) == 1.0


def test_rmae_macs_positive_and_scale_with_activity():
    model = RMAE(GRID)
    assert model.reconstruction_macs(50) < model.reconstruction_macs(500)


# -------------------------------------------------------- energy accounting
def test_compare_energy_table2_shape():
    full, masked = _scans()
    model = RMAE(GRID)
    reports = compare_energy(full, masked, model.num_parameters(),
                             2 * model.reconstruction_macs(100))
    conv, rmae = reports["conventional"], reports["rmae"]
    assert conv.coverage_fraction == pytest.approx(1.0)
    assert rmae.coverage_fraction == pytest.approx(0.1, abs=0.02)
    assert rmae.mean_pulse_energy_uj < conv.mean_pulse_energy_uj
    assert rmae.sensing_energy_mj < conv.sensing_energy_mj / 5
    assert conv.reconstruction_energy_mj == 0.0
    assert rmae.reconstruction_energy_mj > 0.0


def test_energy_ratio_favors_rmae():
    full, masked = _scans()
    model = RMAE(GRID)
    reports = compare_energy(full, masked, model.num_parameters(),
                             2 * model.reconstruction_macs(100))
    assert energy_ratio(reports) > 2.0


def test_reconstruction_energy_calibration():
    """The paper's numbers: 335 MFLOPs -> ~7.1 mJ on an edge GPU."""
    assert reconstruction_energy_mj(335_000_000) == pytest.approx(7.1,
                                                                  rel=0.02)


def test_energy_report_row_format():
    full, masked = _scans()
    reports = compare_energy(full, masked, 830_000, 335_000_000)
    row = reports["rmae"].as_row()
    assert row["model_parameters"] == 830_000
    assert row["total_mj"] == pytest.approx(
        reports["rmae"].total_energy_mj, abs=1e-3)
