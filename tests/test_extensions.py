"""Tests for the paper's future-work extensions: time-varying Koopman,
conformal uncertainty and drift detection."""

import numpy as np
import pytest

from repro.koopman import ConformalPredictor, RecursiveKoopman, uncertainty_to_coverage
from repro.starnet import DriftDetector


# --------------------------------------------------------- RecursiveKoopman
def _linear_system(seed=0, drift_at=None, n=300, noise=0.0):
    """Transitions from z' = A z + B u, with A switching mid-stream."""
    rng = np.random.default_rng(seed)
    a1 = np.array([[0.95, 0.1], [0.0, 0.9]])
    a2 = np.array([[0.7, -0.2], [0.1, 1.02]])
    b = np.array([[0.0], [0.1]])
    zs, us, z_nexts = [], [], []
    for t in range(n):
        a = a2 if (drift_at is not None and t >= drift_at) else a1
        z = rng.normal(size=2)
        u = rng.normal(size=1)
        zs.append(z)
        us.append(u)
        z_nexts.append(a @ z + b[:, 0] * u[0]
                       + rng.normal(0.0, noise, size=2))
    return np.stack(zs), np.stack(us), np.stack(z_nexts)


def test_rls_recovers_stationary_operator():
    z, u, z_next = _linear_system(seed=1)
    model = RecursiveKoopman(2, 1, forgetting=1.0)
    model.update_batch(z, u, z_next)
    np.testing.assert_allclose(model.a, [[0.95, 0.1], [0.0, 0.9]],
                               atol=1e-2)
    np.testing.assert_allclose(model.b, [[0.0], [0.1]], atol=1e-2)


def test_rls_tracks_drift():
    z, u, z_next = _linear_system(seed=2, drift_at=150, n=400)
    model = RecursiveKoopman(2, 1, forgetting=0.95)
    model.update_batch(z, u, z_next)
    # After drift + forgetting, the estimate matches the NEW operator.
    np.testing.assert_allclose(model.a, [[0.7, -0.2], [0.1, 1.02]],
                               atol=5e-2)


def test_rls_stationary_beats_forgetting_on_static_systems():
    """Averaged over seeds, forgetting adds variance on static systems."""
    true_a = np.array([[0.95, 0.1], [0.0, 0.9]])
    static_err, leaky_err = [], []
    for seed in range(5):
        z, u, z_next = _linear_system(seed=seed + 100, n=400, noise=0.1)
        static = RecursiveKoopman(2, 1, forgetting=1.0)
        leaky = RecursiveKoopman(2, 1, forgetting=0.9)
        static.update_batch(z, u, z_next)
        leaky.update_batch(z, u, z_next)
        static_err.append(np.linalg.norm(static.a - true_a))
        leaky_err.append(np.linalg.norm(leaky.a - true_a))
    assert np.mean(static_err) <= np.mean(leaky_err) + 1e-6


def test_rls_prediction_error_drops():
    z, u, z_next = _linear_system(seed=4, n=200)
    model = RecursiveKoopman(2, 1)
    first = model.update_batch(z[:20], u[:20], z_next[:20])
    later = model.update_batch(z[100:120], u[100:120], z_next[100:120])
    assert later < first


def test_rls_spectral_radius_monitor():
    z, u, z_next = _linear_system(seed=5, n=200)
    model = RecursiveKoopman(2, 1)
    model.update_batch(z, u, z_next)
    assert model.spectral_radius() == pytest.approx(0.95, abs=0.03)


def test_rls_validation():
    with pytest.raises(ValueError):
        RecursiveKoopman(2, 1, forgetting=0.0)
    with pytest.raises(ValueError):
        RecursiveKoopman(2, 1, ridge=0.0)


# ------------------------------------------------------------- conformal
def _noisy_predictor(noise=0.1, seed=6):
    a = np.array([[0.9, 0.1], [0.0, 0.95]])
    rng = np.random.default_rng(seed)

    def predict(z, u):
        return np.atleast_2d(z) @ a.T

    def sample(n, rng2):
        z = rng2.normal(size=(n, 2))
        u = rng2.normal(size=(n, 1))
        z_next = z @ a.T + rng2.normal(0, noise, size=(n, 2))
        return z, u, z_next

    return predict, sample


def test_conformal_coverage_holds():
    predict, sample = _noisy_predictor()
    cp = ConformalPredictor(predict)
    rng = np.random.default_rng(7)
    cp.calibrate(*sample(300, rng))
    coverage = cp.empirical_coverage(*sample(500, rng), alpha=0.1)
    assert coverage >= 0.85  # nominal 0.90 with finite-sample slack


def test_conformal_radius_monotone_in_alpha():
    predict, sample = _noisy_predictor()
    cp = ConformalPredictor(predict)
    cp.calibrate(*sample(200, np.random.default_rng(8)))
    assert cp.radius(alpha=0.05) >= cp.radius(alpha=0.2)


def test_conformal_radius_grows_with_noise():
    radii = []
    for noise in (0.05, 0.3):
        predict, sample = _noisy_predictor(noise=noise)
        cp = ConformalPredictor(predict)
        cp.calibrate(*sample(200, np.random.default_rng(9)))
        radii.append(cp.radius(0.1))
    assert radii[1] > radii[0]


def test_conformal_requires_calibration():
    cp = ConformalPredictor(lambda z, u: np.atleast_2d(z))
    with pytest.raises(RuntimeError):
        cp.radius()
    with pytest.raises(ValueError):
        cp.calibrate(np.zeros((1, 2)), np.zeros((1, 1)), np.zeros((1, 2)))


def test_uncertainty_to_coverage_mapping():
    # Confident -> frugal sensing; uncertain -> ramps to full.
    assert uncertainty_to_coverage(0.5, 1.0) == pytest.approx(0.1)
    assert uncertainty_to_coverage(1.0, 1.0) == pytest.approx(0.1)
    mid = uncertainty_to_coverage(1.5, 1.0)
    assert 0.1 < mid < 1.0
    assert uncertainty_to_coverage(5.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        uncertainty_to_coverage(1.0, 0.0)


# ---------------------------------------------------------------- drift
def test_drift_detector_fires_on_gradual_ramp():
    rng = np.random.default_rng(10)
    stable = list(rng.normal(1.0, 0.1, size=50))
    ramp = list(1.0 + 0.05 * np.arange(60) + rng.normal(0, 0.1, size=60))
    detector = DriftDetector()
    idx = detector.monitor_stream(stable + ramp)
    assert idx is not None
    assert idx >= 45  # not during the stable prefix... (warmup region)


def test_drift_detector_quiet_on_stationary_noise():
    rng = np.random.default_rng(11)
    detector = DriftDetector(threshold_sigma=4.0)
    idx = detector.monitor_stream(list(rng.normal(1.0, 0.1, size=300)))
    assert idx is None


def test_drift_detector_validation():
    with pytest.raises(ValueError):
        DriftDetector(fast=0.1, slow=0.5)
    with pytest.raises(ValueError):
        DriftDetector(warmup=1)
