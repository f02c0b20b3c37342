"""Tests for STARNet: likelihood regret, monitor, LoRA, fusion filtering."""

import numpy as np
import pytest

from repro.core import Percept
from repro.generative import RMAE
from repro.nn import VAE, train_vae
from repro.sim import LidarConfig, LidarScanner, apply_corruption, sample_scene, snow
from repro.starnet import (
    AUCExperimentConfig,
    GatedFilter,
    LidarFeatureExtractor,
    LoRAFineTuner,
    STARNet,
    filter_backscatter,
    generate_scans,
    likelihood_regret_exact,
    likelihood_regret_spsa,
    per_sample_elbo,
    reconstruction_error_score,
    run_auc_experiment,
    scan_statistics,
)
from repro.voxel import VoxelGridConfig, voxelize


GRID = VoxelGridConfig(nx=16, ny=16, nz=2)
LIDAR = LidarConfig(n_azimuth=36, n_elevation=8)


def _trained_vae(seed=0, dim=8):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(200, dim)) * 0.4
    vae = VAE(input_dim=dim, latent_dim=3, rng=rng)
    train_vae(vae, data, epochs=25, rng=rng)
    return vae, data


# ------------------------------------------------------- likelihood regret
def test_per_sample_elbo_deterministic_mode():
    vae, data = _trained_vae()
    mu, logvar = vae.encode(data[:1])
    a = per_sample_elbo(vae, data[0], mu, logvar)
    b = per_sample_elbo(vae, data[0], mu, logvar)
    assert a == b  # no sampling noise


def test_regret_nonnegative():
    vae, data = _trained_vae()
    assert likelihood_regret_spsa(vae, data[0], steps=10,
                                  rng=np.random.default_rng(1)) >= 0.0
    assert likelihood_regret_exact(vae, data[0], steps=10) >= 0.0


def test_regret_separates_ood():
    vae, data = _trained_vae()
    rng = np.random.default_rng(2)
    in_scores = [likelihood_regret_spsa(vae, x, steps=25, rng=rng)
                 for x in data[:8]]
    out_scores = [likelihood_regret_spsa(vae, x + 6.0, steps=25, rng=rng)
                  for x in data[:8]]
    assert np.median(out_scores) > np.median(in_scores)


def test_exact_regret_separates_ood():
    vae, data = _trained_vae()
    in_s = [likelihood_regret_exact(vae, x, steps=40) for x in data[:6]]
    out_s = [likelihood_regret_exact(vae, x + 6.0, steps=40)
             for x in data[:6]]
    assert np.median(out_s) > np.median(in_s)


def test_reconstruction_score_separates_ood():
    vae, data = _trained_vae()
    in_s = np.mean([reconstruction_error_score(vae, x) for x in data[:8]])
    out_s = np.mean([reconstruction_error_score(vae, x + 6.0)
                     for x in data[:8]])
    assert out_s > in_s


# ----------------------------------------------------------------- monitor
def _fit_monitor(method="spsa", seed=3):
    rng = np.random.default_rng(seed)
    nominal = rng.normal(size=(80, 6)) * 0.5
    mon = STARNet(6, score_method=method, spsa_steps=15,
                  rng=np.random.default_rng(seed + 1))
    mon.fit(nominal, epochs=25)
    return mon, nominal


def test_monitor_requires_fit():
    mon = STARNet(4)
    with pytest.raises(RuntimeError):
        mon.score(np.zeros(4))


def test_monitor_fit_validation():
    mon = STARNet(4)
    with pytest.raises(ValueError):
        mon.fit(np.zeros((4, 4)))  # too few samples
    with pytest.raises(ValueError):
        mon.fit(np.zeros((20, 3)))  # wrong dim


def test_monitor_unknown_method():
    with pytest.raises(ValueError):
        STARNet(4, score_method="entropy")


def test_monitor_assess_trust_range():
    mon, nominal = _fit_monitor()
    for row in nominal[:5]:
        trust = mon.assess(Percept(features=row))
        assert 0.0 <= trust <= 1.0


def test_monitor_trusts_nominal_distrusts_anomalous():
    mon, nominal = _fit_monitor()
    nominal_trust = np.mean([mon.assess(Percept(features=r))
                             for r in nominal[:8]])
    anomalous_trust = np.mean([mon.assess(Percept(features=r + 8.0))
                               for r in nominal[:8]])
    assert nominal_trust > 0.5
    assert anomalous_trust < nominal_trust


def test_monitor_score_batch():
    mon, nominal = _fit_monitor(method="recon")
    scores = mon.score_batch(nominal[:5])
    assert scores.shape == (5,)


# --------------------------------------------------------------- features
def _scan(seed=0):
    rng = np.random.default_rng(seed)
    return LidarScanner(LIDAR, rng=rng).scan(sample_scene(rng))


def test_scan_statistics_shape_and_empty():
    stats = scan_statistics(_scan())
    assert stats.shape == (9,)
    assert np.all(np.isfinite(stats))
    empty = _scan().subset(np.zeros(_scan().num_points, dtype=bool))
    np.testing.assert_array_equal(scan_statistics(empty), np.zeros(9))


def test_feature_extractor_dim_consistent():
    rmae = RMAE(GRID, rng=np.random.default_rng(4))
    ex = LidarFeatureExtractor(rmae, GRID)
    feats = ex.extract(_scan())
    assert feats.shape == (ex.feature_dim,)
    batch = ex.extract_batch([_scan(1), _scan(2)])
    assert batch.shape == (2, ex.feature_dim)
    assert ex.extract_batch([]).shape == (0, ex.feature_dim)


def test_extract_batch_rows_equal_each_scans_training_forward():
    """A row of one batched extract (an empty scan's included) is that
    scan's pooled training encode and statistics, bit for bit."""
    from repro.nn.sparse3d import SparseGlobalPool
    rmae = RMAE(GRID, rng=np.random.default_rng(7))
    ex = LidarFeatureExtractor(rmae, GRID)
    empty = _scan().subset(np.zeros(_scan().num_points, dtype=bool))
    scans = [_scan(1), empty, _scan(2), _scan(3)]
    batch = ex.extract_batch(scans)
    for row, scan in zip(batch, scans):
        cloud = voxelize(scan.points, scan.labels, GRID)
        pooled = SparseGlobalPool().forward(
            rmae.encoder.forward(rmae.sparse_input([cloud])))[0]
        want = np.concatenate([pooled, scan_statistics(scan)])
        assert row.tobytes() == want.tobytes()
    assert not batch[1, :rmae.config.encoder_channels[1]].any()


def test_features_shift_under_corruption():
    rmae = RMAE(GRID, rng=np.random.default_rng(5))
    ex = LidarFeatureExtractor(rmae, GRID)
    scan = _scan(6)
    clean = ex.extract(scan)
    corrupted = ex.extract(apply_corruption(scan, "snow", 0.8,
                                            np.random.default_rng(7)))
    assert np.linalg.norm(clean - corrupted) > 0.05


# ------------------------------------------------------------------- LoRA
def test_lora_finetuner_fraction_small():
    vae, _ = _trained_vae(seed=11)
    tuner = LoRAFineTuner(vae, rank=2, rng=np.random.default_rng(12))
    assert tuner.trainable_fraction < 0.6


def test_lora_adapts_to_drift():
    vae, data = _trained_vae(seed=13)
    drifted = data + 1.5
    before = np.mean([reconstruction_error_score(vae, x)
                      for x in drifted[:16]])
    tuner = LoRAFineTuner(vae, rank=4, rng=np.random.default_rng(14))
    tuner.adapt(drifted, steps=120, rng=np.random.default_rng(15))
    after = np.mean([reconstruction_error_score(vae, x)
                     for x in drifted[:16]])
    assert after < before


def test_lora_rank_validation():
    vae, _ = _trained_vae(seed=16)
    with pytest.raises(ValueError):
        LoRAFineTuner(vae, rank=0)


# ---------------------------------------------------------------- fusion
def test_filter_backscatter_removes_isolated_near_points():
    scan = _scan(17)
    snowy = snow(scan, severity=0.8, rng=np.random.default_rng(18))
    filtered = filter_backscatter(snowy)
    removed_frac_spurious = 1.0 - (
        (filtered.labels == -2).sum() / max((snowy.labels == -2).sum(), 1))
    removed_frac_genuine = 1.0 - (
        (filtered.labels >= 0).sum() / max((snowy.labels >= 0).sum(), 1))
    assert removed_frac_spurious > removed_frac_genuine


def test_filter_backscatter_empty_scan():
    scan = _scan(19)
    empty = scan.subset(np.zeros(scan.num_points, dtype=bool))
    assert filter_backscatter(empty).num_points == 0


def test_gated_filter_passes_clean_scans():
    rmae = RMAE(GRID, rng=np.random.default_rng(20))
    ex = LidarFeatureExtractor(rmae, GRID)
    scans = [_scan(s) for s in range(21, 33)]
    mon = STARNet(ex.feature_dim, score_method="recon",
                  rng=np.random.default_rng(33))
    mon.fit(ex.extract_batch(scans), epochs=25)
    gate = GatedFilter(mon, ex)
    for scan in scans[:4]:
        gate.apply(scan)
    assert gate.passthroughs >= 3  # clean streams go through untouched


def test_gated_filter_intervenes_on_snow():
    rmae = RMAE(GRID, rng=np.random.default_rng(34))
    ex = LidarFeatureExtractor(rmae, GRID)
    scans = [_scan(s) for s in range(35, 47)]
    mon = STARNet(ex.feature_dim, score_method="recon",
                  rng=np.random.default_rng(47))
    mon.fit(ex.extract_batch(scans), epochs=25)
    gate = GatedFilter(mon, ex)
    for scan in scans[:4]:
        gate.apply(snow(scan, 0.9, np.random.default_rng(48)))
    assert gate.interventions >= 3


# --------------------------------------------------------------- protocol
def test_auc_experiment_smoke():
    cfg = AUCExperimentConfig(n_fit_scans=10, n_test_scans=5,
                              corruptions=("snow", "crosstalk"),
                              score_method="recon", vae_epochs=15,
                              lidar=LIDAR, grid=GRID)
    res = run_auc_experiment(cfg)
    assert set(res) == {"snow", "crosstalk"}
    for v in res.values():
        assert 0.0 <= v <= 1.0


def test_generate_scans_reproducible():
    a = generate_scans(3, LIDAR, seed=50)
    b = generate_scans(3, LIDAR, seed=50)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.points, sb.points)
