"""Property-based tests (hypothesis) for corruption-stack invariants.

The fused corruption kernel is differentially tested against the
sequential reference across randomly drawn stacks, severities, and
seeds; the corruption primitives themselves are checked for the
invariants the scenario engine relies on (severity-0 exact identity,
bounded point counts, fired-mask preservation).  Every scan drawn here
is raycast on both kernel backends and compared byte for byte.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import kernel_backend
from repro.runtime import spawn_rngs
from repro.sim import (
    CORRUPTIONS,
    LidarScanner,
    LidarConfig,
    apply_corruption,
    apply_corruption_stack,
    sample_scene,
)

NAMES = tuple(sorted(CORRUPTIONS))

# Corruptions that fabricate spurious returns vs. those that only
# drop or perturb existing points.
_ADDING = ("snow", "rain", "cross_sensor")
_NON_ADDING = tuple(n for n in NAMES if n not in _ADDING)

severities = st.floats(min_value=0.0, max_value=1.0,
                       allow_nan=False, allow_infinity=False)
stack_lists = st.lists(
    st.tuples(st.sampled_from(NAMES), severities), min_size=1, max_size=4)


def _scan(seed, n_azimuth=24, n_elevation=4):
    """One scan, checked byte for byte against the reference raycast."""
    scene_rng, scan_rng = spawn_rngs(seed, 2)
    scene = sample_scene(scene_rng, n_cars=2, n_pedestrians=1,
                         n_buildings=1)
    config = LidarConfig(n_azimuth=n_azimuth, n_elevation=n_elevation)
    ref_rng = copy.deepcopy(scan_rng)
    with kernel_backend("reference"):
        ref = LidarScanner(config, rng=ref_rng).scan(scene)
    with kernel_backend("vectorized"):
        scan = LidarScanner(config, rng=scan_rng).scan(scene)
    for field in ("points", "labels", "beam_ids", "ranges", "fired_mask"):
        a, b = getattr(ref, field), getattr(scan, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert ref_rng.bit_generator.state == scan_rng.bit_generator.state
    return scan


@given(st.sampled_from(NAMES), st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_zero_severity_is_exact_identity(name, seed):
    scan = _scan(seed)
    out = apply_corruption(scan, name, severity=0.0)
    assert out.points is not scan.points
    np.testing.assert_array_equal(out.points, scan.points)
    np.testing.assert_array_equal(out.labels, scan.labels)
    np.testing.assert_array_equal(out.beam_ids, scan.beam_ids)
    np.testing.assert_array_equal(out.fired_mask, scan.fired_mask)
    np.testing.assert_array_equal(out.ranges, scan.ranges)


@given(st.sampled_from(_NON_ADDING), severities, st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_non_adding_corruptions_never_grow_point_count(name, sev, seed):
    scan = _scan(seed)
    out = apply_corruption(scan, name, severity=sev,
                           rng=np.random.default_rng(seed + 1))
    assert 0 <= out.num_points <= scan.num_points


@given(st.sampled_from(_ADDING), severities, st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_spurious_points_are_bounded_and_labelled(name, sev, seed):
    scan = _scan(seed)
    out = apply_corruption(scan, name, severity=sev,
                           rng=np.random.default_rng(seed + 1))
    # Spurious returns are added after dropout, so the total can never
    # exceed the original count plus the labelled spurious points.
    n_spurious = int(np.sum(out.labels == -2))
    assert out.num_points - n_spurious <= scan.num_points
    if sev > 0:
        assert (out.points[out.labels == -2].shape[0] == n_spurious)


@given(stack_lists, st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_stack_preserves_fired_mask_shape(stack, seed):
    scan = _scan(seed)
    out = apply_corruption_stack(scan, stack, seed=seed + 1)
    assert out.fired_mask.shape == scan.fired_mask.shape
    assert out.points.shape[0] == out.labels.shape[0] == \
        out.beam_ids.shape[0] == out.ranges.shape[0]


@given(stack_lists, st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_fused_stack_matches_sequential_reference(stack, seed):
    scan = _scan(seed)
    rngs = spawn_rngs(seed + 1, len(stack))
    rngs_ref = spawn_rngs(seed + 1, len(stack))
    with kernel_backend("vectorized"):
        fused = apply_corruption_stack(scan, stack, rngs=rngs)
    with kernel_backend("reference"):
        ref = apply_corruption_stack(scan, stack, rngs=rngs_ref)
    np.testing.assert_array_equal(fused.points, ref.points)
    np.testing.assert_array_equal(fused.labels, ref.labels)
    np.testing.assert_array_equal(fused.beam_ids, ref.beam_ids)
    np.testing.assert_array_equal(fused.fired_mask, ref.fired_mask)
    np.testing.assert_array_equal(fused.ranges, ref.ranges)


@given(stack_lists, st.integers(0, 200))
@settings(max_examples=30, deadline=None)
def test_stack_seed_path_is_deterministic(stack, seed):
    scan = _scan(seed)
    a = apply_corruption_stack(scan, stack, seed=seed + 1)
    b = apply_corruption_stack(scan, stack, seed=seed + 1)
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.labels, b.labels)
