"""Property-based tests for the extension modules."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.koopman import ConformalPredictor, RecursiveKoopman, uncertainty_to_coverage
from repro.starnet import ContextAwareThreshold, DriftDetector


@given(st.integers(5, 60), st.floats(min_value=0.01, max_value=0.4),
       st.integers(0, 2 ** 20))
@settings(max_examples=40, deadline=None)
def test_conformal_radius_is_a_calibration_score(n, alpha, seed):
    """The radius always equals one of the calibration scores and covers
    at least the requested fraction of them."""
    rng = np.random.default_rng(seed)
    def predict(z, u):
        return np.atleast_2d(z)

    cp = ConformalPredictor(predict)
    z = rng.normal(size=(n, 2))
    u = rng.normal(size=(n, 1))
    z_next = z + rng.normal(0, 0.5, size=(n, 2))
    cp.calibrate(z, u, z_next)
    r = cp.radius(alpha)
    scores = np.linalg.norm(z - z_next, axis=1)
    assert np.any(np.isclose(scores, r))
    assert (scores <= r + 1e-12).mean() >= 1 - alpha - 1.0 / n


@given(st.floats(min_value=1e-3, max_value=10.0),
       st.floats(min_value=1e-3, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_uncertainty_coverage_bounds(radius, nominal):
    c = uncertainty_to_coverage(radius, nominal)
    assert 0.1 <= c <= 1.0
    # Monotone in the radius.
    assert uncertainty_to_coverage(radius * 2, nominal) >= c - 1e-12


@given(st.integers(1, 4), st.integers(0, 2 ** 20))
@settings(max_examples=40, deadline=None)
def test_context_threshold_buckets_in_range(n_buckets, seed):
    rng = np.random.default_rng(seed)
    contexts = rng.uniform(0, 1, size=50)
    scores = rng.gamma(2.0, 1.0, size=50)
    model = ContextAwareThreshold(n_buckets=n_buckets).fit(contexts, scores)
    for c in rng.uniform(-1, 2, size=10):
        assert 0 <= model.bucket(float(c)) < n_buckets
        assert model.threshold(float(c)) > 0


@given(st.integers(0, 2 ** 20), st.integers(20, 120))
@settings(max_examples=30, deadline=None)
def test_drift_detector_gap_small_on_constant_stream(seed, n):
    detector = DriftDetector()
    value = float(np.random.default_rng(seed).uniform(0.1, 5.0))
    for _ in range(n):
        fired = detector.update(value)
        assert not fired
    assert abs(detector.gap) < 1e-6 or detector.gap < value * 0.5


@given(st.floats(min_value=0.5, max_value=0.999),
       st.integers(0, 2 ** 20))
@settings(max_examples=30, deadline=None)
def test_rls_theta_finite_under_random_streams(forgetting, seed):
    rng = np.random.default_rng(seed)
    model = RecursiveKoopman(2, 1, forgetting=forgetting)
    for _ in range(40):
        model.update(rng.normal(size=2), rng.normal(size=1),
                     rng.normal(size=2))
    assert np.all(np.isfinite(model.theta))
    assert np.all(np.isfinite(model.p))
