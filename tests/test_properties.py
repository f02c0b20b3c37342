"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import CascadeModel, LoopSchedule, synchronization_delay
from repro.federated import NGramLM, merge_subnetwork, slice_weights
from repro.hardware import EnergyLedger, LidarPowerModel
from repro.metrics import roc_auc
from repro.multiagent import minimal_radius, rectangular_partition
from repro.nn import bce_with_logits, gaussian_kl, quantization_noise_power, quantize, softmax
from repro.nn.losses import info_nce
from repro.voxel import RadialMaskConfig, VoxelGridConfig


finite_floats = st.floats(min_value=-1e3, max_value=1e3,
                          allow_nan=False, allow_infinity=False)
small_floats = st.floats(min_value=-10.0, max_value=10.0,
                         allow_nan=False, allow_infinity=False)


# ----------------------------------------------------------- quantization
@given(arrays(np.float64, st.integers(1, 40), elements=small_floats),
       st.sampled_from([2, 4, 8, 16]))
@settings(max_examples=60, deadline=None)
def test_quantize_idempotent_property(x, bits):
    q = quantize(x, bits)
    np.testing.assert_allclose(quantize(q, bits), q, atol=1e-9)


@given(arrays(np.float64, st.integers(1, 40), elements=small_floats))
@settings(max_examples=60, deadline=None)
def test_quantize_bounded_by_maxabs(x):
    q = quantize(x, 4)
    assert np.max(np.abs(q)) <= np.max(np.abs(x)) + 1e-12


@given(arrays(np.float64, st.integers(2, 30), elements=small_floats))
@settings(max_examples=40, deadline=None)
def test_quantization_noise_within_shrinking_bound(x):
    # Pointwise noise is NOT monotone in bits for max-abs uniform grids
    # (a value can land exactly on a coarse grid point, e.g.
    # x = [7.125, 3.0625] has less 4-bit than 8-bit error).  The sound
    # property is the worst-case bound (scale/2)^2, which shrinks
    # strictly with precision.
    max_abs = float(np.max(np.abs(x)))
    for bits in (4, 8, 16):
        levels = 2 ** (bits - 1) - 1
        bound = (max_abs / levels / 2.0) ** 2
        assert quantization_noise_power(x, bits) <= bound + 1e-18


# ---------------------------------------------------------------- softmax
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
              elements=finite_floats))
@settings(max_examples=60, deadline=None)
def test_softmax_is_distribution(x):
    p = softmax(x)
    assert np.all(p >= 0)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-9)


@given(arrays(np.float64, st.integers(2, 10), elements=small_floats),
       st.floats(min_value=0.1, max_value=50.0))
@settings(max_examples=40, deadline=None)
def test_softmax_shift_invariance(x, shift):
    np.testing.assert_allclose(softmax(x), softmax(x + shift), atol=1e-9)


# ------------------------------------------------------------------ losses
@given(arrays(np.float64, st.integers(1, 20), elements=small_floats),
       st.integers(0, 2 ** 20))
@settings(max_examples=50, deadline=None)
def test_bce_nonnegative(logits, seed):
    target = (np.random.default_rng(seed).random(logits.shape) > 0.5).astype(
        float)
    loss, grad = bce_with_logits(logits, target)
    assert loss >= -1e-12
    assert np.all(np.isfinite(grad))


@given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
              elements=small_floats),
       arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
              elements=st.floats(min_value=-3, max_value=3,
                                 allow_nan=False)))
@settings(max_examples=50, deadline=None)
def test_gaussian_kl_nonnegative(mu, logvar):
    if mu.shape != logvar.shape:
        mu = mu[: logvar.shape[0], : logvar.shape[1]]
        logvar = logvar[: mu.shape[0], : mu.shape[1]]
    kl, _, _ = gaussian_kl(mu, logvar)
    assert kl >= -1e-9


@given(st.integers(2, 8), st.integers(2 ** 1, 2 ** 20))
@settings(max_examples=30, deadline=None)
def test_info_nce_nonnegative_finite(n, seed):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, 4))
    k = rng.normal(size=(n, 4))
    loss, gq, gk = info_nce(q, k)
    assert loss >= -1e-12
    assert np.all(np.isfinite(gq)) and np.all(np.isfinite(gk))
    # Unit-scaled aligned pairs beat mismatched ones.
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    aligned, _, _ = info_nce(qn, qn)
    shuffled, _, _ = info_nce(qn, np.roll(qn, 1, axis=0))
    assert aligned <= shuffled + 1e-9


# ------------------------------------------------------------------ energy
@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
                max_size=20))
@settings(max_examples=50, deadline=None)
def test_energy_ledger_total_is_sum(charges):
    ledger = EnergyLedger()
    for i, c in enumerate(charges):
        [ledger.charge_sensing, ledger.charge_compute,
         ledger.charge_communication, ledger.charge_actuation][i % 4](c)
    assert ledger.total_mj == pytest.approx(sum(charges))


@given(st.floats(min_value=0.5, max_value=200.0))
@settings(max_examples=50, deadline=None)
def test_pulse_energy_monotone_in_range(r):
    model = LidarPowerModel()
    assert model.pulse_energy_uj(r) <= model.pulse_energy_uj(r * 1.5) + 1e-12


# ----------------------------------------------------------------- masking
@given(st.floats(min_value=0.1, max_value=200.0),
       st.floats(min_value=1.0, max_value=50.0),
       st.floats(min_value=0.5, max_value=4.0))
@settings(max_examples=60, deadline=None)
def test_range_keep_probability_valid(r, ref, exponent):
    cfg = RadialMaskConfig(reference_range_m=ref, range_exponent=exponent)
    p = cfg.range_keep_probability(r)
    assert 0.0 <= p <= 1.0
    # Monotone non-increasing in range.
    assert cfg.range_keep_probability(r * 2) <= p + 1e-12


@given(st.floats(min_value=-300.0, max_value=300.0),
       st.floats(min_value=-300.0, max_value=300.0),
       st.floats(min_value=-2.0, max_value=5.0))
@settings(max_examples=60, deadline=None)
def test_point_to_voxel_roundtrip_consistency(x, y, z):
    grid = VoxelGridConfig()
    coord = grid.point_to_voxel(np.array([x, y, z]))
    if coord is not None:
        center = grid.voxel_center(coord)
        sx, sy, sz = grid.voxel_size
        assert abs(center[0] - x) <= sx
        assert abs(center[1] - y) <= sy
        assert abs(center[2] - z) <= sz


# ----------------------------------------------------------------- cascade
@given(st.floats(min_value=0.0, max_value=0.99),
       st.floats(min_value=0.0, max_value=5.0),
       st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_stable_cascade_bounded(gain, e0, n):
    model = CascadeModel(gain=gain)
    traj = model.propagate(e0, n)
    assert np.all(traj <= e0 + 1e-12)


@given(st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=1,
                max_size=10))
@settings(max_examples=40, deadline=None)
def test_sync_delay_is_max(periods):
    assert synchronization_delay(periods) == pytest.approx(max(periods))


# ------------------------------------------------------------------ fedavg
@given(st.integers(1, 5), st.integers(2 ** 1, 2 ** 20))
@settings(max_examples=30, deadline=None)
def test_merge_is_convex_combination(n_clients, seed):
    """Each merged coordinate lies within the clients' value range."""
    rng = np.random.default_rng(seed)
    hidden = 6
    global_w = [rng.normal(size=(3, hidden)), rng.normal(size=hidden),
                rng.normal(size=(hidden, 2)), rng.normal(size=2)]
    widths = [int(rng.integers(2, hidden + 1)) for _ in range(n_clients)]
    updates = [[w.copy() for w in slice_weights(global_w, h)]
               for h in widths]
    for u in updates:
        for w in u:
            w += rng.normal(size=w.shape)
    samples = [int(rng.integers(1, 20)) for _ in range(n_clients)]
    merged = merge_subnetwork(global_w, updates, widths, samples)
    # Check unit 0 of w1 (trained by every client).
    values = np.stack([u[0][:, 0] for u in updates])
    lo, hi = values.min(axis=0), values.max(axis=0)
    assert np.all(merged[0][:, 0] >= lo - 1e-9)
    assert np.all(merged[0][:, 0] <= hi + 1e-9)


# ------------------------------------------------------------------- AUC
@given(st.integers(2, 40), st.integers(2 ** 1, 2 ** 20))
@settings(max_examples=40, deadline=None)
def test_auc_in_unit_interval(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=2 * n)
    labels = np.array([0] * n + [1] * n)
    auc = roc_auc(scores, labels)
    assert 0.0 <= auc <= 1.0


@given(st.integers(2, 30), st.integers(2 ** 1, 2 ** 20))
@settings(max_examples=40, deadline=None)
def test_auc_complement_symmetry(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=2 * n)
    labels = np.array([0] * n + [1] * n)
    a = roc_auc(scores, labels)
    b = roc_auc(-scores, labels)
    assert a + b == pytest.approx(1.0)


# --------------------------------------------------------------- coverage
@given(st.integers(4, 20), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_rectangular_partition_total_property(size, agents):
    regions = rectangular_partition(size, agents)
    assert sum(len(r) for r in regions) == size * size
    assert len(regions) == agents


@given(st.tuples(st.integers(0, 20), st.integers(0, 20)),
       st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                min_size=1, max_size=15))
@settings(max_examples=40, deadline=None)
def test_minimal_radius_covers_all(position, cells):
    r = minimal_radius(position, cells)
    for (cx, cy) in cells:
        assert (cx - position[0]) ** 2 + (cy - position[1]) ** 2 <= r * r


# ------------------------------------------------------------------ ngram
@given(st.lists(st.integers(0, 5), min_size=10, max_size=200),
       st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_ngram_distributions_normalized(tokens, order):
    lm = NGramLM(6, order=order).fit(tokens)
    for start in range(min(len(tokens) - order, 5)):
        p = lm.distribution(tokens[start:start + order])
        assert p.shape == (6,)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p >= 0)


# --------------------------------------------------------------- schedule
@given(st.lists(st.floats(min_value=0.001, max_value=0.05), min_size=1,
                max_size=6))
@settings(max_examples=40, deadline=None)
def test_schedule_slack_consistency(durations):
    sched = LoopSchedule(period_s=1.0)
    for i, d in enumerate(durations):
        sched.add_stage(f"s{i}", d)
    assert sched.slack_s == pytest.approx(1.0 - sum(durations))
    assert sched.feasible()
    assert sched.utilization() == pytest.approx(sum(durations))
