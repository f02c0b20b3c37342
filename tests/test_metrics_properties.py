"""Property tests for evaluation metrics: AUC invariances, AEE bounds.

The STARNet AUC protocol and the MVSEC-style AEE evaluation gate the
trust-monitoring and neuromorphic pillars, so their metrics must hold
structural properties — rank invariance, boundedness, defined degenerate
behaviour — for *any* input, not just the fixtures unit tests pick.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.metrics import average_endpoint_error, roc_auc

flow_values = st.floats(min_value=-50.0, max_value=50.0,
                        allow_nan=False, allow_infinity=False)


def _scores_and_labels(draw):
    """A score vector plus binary labels.

    Scores come from a coarse lattice (ties are intended and common)
    whose spacing is wide enough that every monotone transform under
    test remains *strictly* increasing in float64 — denormals would
    collapse under ``exp``/``arctan`` and break rank invariance for
    numerical rather than mathematical reasons.
    """
    n = draw(st.integers(2, 40))
    ticks = draw(st.lists(st.integers(-1_000_000, 1_000_000),
                          min_size=n, max_size=n))
    scores = np.array(ticks, dtype=np.float64) / 97.0
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return scores, np.array(labels)


# ---------------------------------------------------------------- ROC AUC
@given(st.data())
@settings(max_examples=80, deadline=None)
def test_auc_invariant_under_monotone_transforms(data):
    """AUC is a rank statistic: any strictly increasing transform of the
    scores (affine, exp, arctan, cubic-plus-linear) leaves it unchanged,
    ties included."""
    scores, labels = _scores_and_labels(data.draw)
    base = roc_auc(scores, labels)
    transforms = (
        lambda s: 3.0 * s + 7.0,
        lambda s: np.arctan(s),
        lambda s: s ** 3 + s,          # strictly increasing, nonlinear
        lambda s: np.exp(s / 1e6),
    )
    for transform in transforms:
        assert roc_auc(transform(scores), labels) == pytest.approx(
            base, abs=1e-12)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_auc_bounded_and_defined(data):
    """Any binary-labeled batch — including all-one-class — yields a
    finite AUC in [0, 1], never NaN."""
    scores, labels = _scores_and_labels(data.draw)
    auc = roc_auc(scores, labels)
    assert np.isfinite(auc)
    assert 0.0 <= auc <= 1.0


@given(st.integers(1, 20), st.integers(0, 1))
@settings(max_examples=40, deadline=None)
def test_auc_single_class_is_chance_level(n, label):
    """Degenerate single-class input returns the defined chance level."""
    rng = np.random.default_rng(n)
    scores = rng.normal(size=n)
    assert roc_auc(scores, [label] * n) == 0.5


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_auc_label_flip_complements(data):
    """Swapping the class labels mirrors the AUC around 0.5."""
    scores, labels = _scores_and_labels(data.draw)
    a = roc_auc(scores, labels)
    b = roc_auc(scores, 1 - labels)
    assert a + b == pytest.approx(1.0)


# -------------------------------------------------------------------- AEE
@given(arrays(np.float64, st.tuples(st.just(2), st.integers(1, 8),
                                    st.integers(1, 8)),
              elements=flow_values),
       arrays(np.float64, st.tuples(st.just(2), st.integers(1, 8),
                                    st.integers(1, 8)),
              elements=flow_values),
       st.integers(0, 2 ** 31))
@settings(max_examples=80, deadline=None)
def test_aee_non_negative_and_identity(pred, target, seed):
    """AEE >= 0 for any pair of fields (masked or not) and is exactly 0
    against itself."""
    if pred.shape != target.shape:
        target = np.zeros_like(pred)
    aee = average_endpoint_error(pred, target)
    assert np.isfinite(aee)
    assert aee >= 0.0
    assert average_endpoint_error(pred, pred) == 0.0
    mask = np.random.default_rng(seed).random(pred.shape[1:]) < 0.5
    masked = average_endpoint_error(pred, target, mask=mask)
    assert masked >= 0.0  # empty mask is defined as 0, else a mean of norms


@given(arrays(np.float64, st.tuples(st.just(2), st.integers(1, 8),
                                    st.integers(1, 8)),
              elements=flow_values),
       st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_aee_scales_with_uniform_error(pred, delta):
    """Adding a constant (delta, 0) offset shifts AEE by exactly delta —
    the metric is a mean of Euclidean norms, not a squared error."""
    shifted = pred.copy()
    shifted[0] += delta
    assert average_endpoint_error(shifted, pred) == pytest.approx(delta)
