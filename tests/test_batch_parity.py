"""Hypothesis parity tests for the batched inference forward paths.

The serving runtime's whole correctness story is the
:meth:`repro.nn.Module.forward_batch` contract: a batched forward must
produce, row for row, exactly what the per-sample ``forward`` would
(up to BLAS re-association), without touching any instance state.
These properties pin that down for every ``repro.nn`` layer and for
each pillar's batched serving entry point.
"""

import copy
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Percept
from repro.nn import (
    BatchNorm,
    Conv2d,
    ConvTranspose2d,
    Dense,
    GRUCell,
    ReLU,
    Sequential,
    mlp,
)

ATOL = 1e-9

seeds = st.integers(min_value=0, max_value=10_000)
batch_sizes = st.integers(min_value=1, max_value=5)


def _primed_batchnorm(rng):
    """BatchNorm with non-trivial running statistics (one training step)."""
    bn = BatchNorm(5)
    bn.forward(rng.normal(size=(8, 5)))
    bn.zero_grad()
    bn._cache = None
    return bn


# (name, builder(rng) -> layer, per-sample input shape sans batch axis)
LAYER_CASES = [
    ("dense", lambda rng: Dense(5, 3, rng=rng), (5,)),
    ("relu", lambda rng: ReLU(), (7,)),
    ("batchnorm", _primed_batchnorm, (5,)),
    ("conv2d", lambda rng: Conv2d(2, 3, kernel=3, stride=1, pad=1,
                                  rng=rng), (2, 6, 6)),
    ("conv2d_stride2", lambda rng: Conv2d(2, 3, kernel=3, stride=2,
                                          pad=1, rng=rng), (2, 8, 8)),
    ("deconv", lambda rng: ConvTranspose2d(2, 3, kernel=4, stride=2,
                                           pad=1, rng=rng), (2, 5, 5)),
    ("gru", lambda rng: GRUCell(4, 6, rng=rng), (4,)),
    ("mlp", lambda rng: mlp([5, 8, 3], rng=rng), (5,)),
    ("sequential_conv", lambda rng: Sequential(
        Conv2d(2, 4, kernel=3, stride=1, pad=1, rng=rng), ReLU(),
        Conv2d(4, 2, kernel=3, stride=2, pad=1, rng=rng)), (2, 6, 6)),
]


@pytest.mark.parametrize("name,build,shape",
                         LAYER_CASES, ids=[c[0] for c in LAYER_CASES])
@given(batch=batch_sizes, seed=seeds)
@settings(max_examples=20, deadline=None)
def test_forward_batch_matches_stacked_per_sample(name, build, shape,
                                                  batch, seed):
    rng = np.random.default_rng(seed)
    layer = build(rng).eval()
    x = rng.normal(size=(batch,) + shape)
    batched = layer.forward_batch(x)
    per_sample = np.concatenate(
        [layer.forward(x[i:i + 1]) for i in range(batch)])
    np.testing.assert_allclose(batched, per_sample, atol=ATOL, rtol=ATOL)


@pytest.mark.parametrize("name,build,shape",
                         LAYER_CASES, ids=[c[0] for c in LAYER_CASES])
@given(batch=batch_sizes, seed=seeds)
@settings(max_examples=10, deadline=None)
def test_forward_batch_touches_no_state(name, build, shape, batch, seed):
    rng = np.random.default_rng(seed)
    layer = build(rng).eval()
    before = {k: v.copy() for module in layer.modules()
              for k, v in vars(module).items()
              if isinstance(v, np.ndarray)}
    caches_before = {id(m): [k for k, v in vars(m).items()
                             if k.startswith("_") and v is None]
                     for m in layer.modules()}
    layer.forward_batch(rng.normal(size=(batch,) + shape))
    for module in layer.modules():
        for k, v in vars(module).items():
            if isinstance(v, np.ndarray):
                np.testing.assert_array_equal(v, before[k])
        # Backward caches that were empty must stay empty: batched
        # inference never arms a training backward.
        for k in caches_before[id(module)]:
            assert getattr(module, k) is None, f"{k} was populated"


def test_forward_batch_interleaves_with_training_pair():
    # A batched inference between forward and backward must not corrupt
    # the in-flight gradients.
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 5))
    g = rng.normal(size=(4, 3))

    ref = Dense(5, 3, rng=np.random.default_rng(1))
    ref.forward(x)
    ref.backward(g)

    interleaved = Dense(5, 3, rng=np.random.default_rng(1))
    interleaved.forward(x)
    interleaved.forward_batch(rng.normal(size=(7, 5)))
    interleaved.backward(g)

    np.testing.assert_array_equal(interleaved.weight.grad, ref.weight.grad)
    np.testing.assert_array_equal(interleaved.bias.grad, ref.bias.grad)


def test_forward_batch_unimplemented_is_loud():
    from repro.nn import Module

    class Bare(Module):
        def forward(self, x):
            return x

    with pytest.raises(NotImplementedError, match="Bare"):
        Bare().forward_batch(np.zeros((1, 2)))


# ----------------------------------------------------- pillar entry points
@functools.lru_cache(maxsize=2)
def _starnet(method="exact"):
    from repro.starnet.monitor import STARNet
    monitor = STARNet(6, score_method=method,
                      rng=np.random.default_rng(1))
    monitor.fit(np.random.default_rng(0).normal(size=(48, 6)), epochs=5)
    return monitor


@given(batch=batch_sizes, seed=seeds)
@settings(max_examples=10, deadline=None)
def test_starnet_assess_batch_parity(batch, seed):
    monitor = _starnet()
    feats = np.random.default_rng(seed).normal(size=(batch, 6))
    batched = monitor.assess_batch([Percept(features=f) for f in feats])
    per_sample = [monitor.assess(Percept(features=f)) for f in feats]
    np.testing.assert_allclose(batched, per_sample, atol=1e-9)
    # SPSA draws one seed per row from the monitor RNG in row order, so
    # twin monitors agree row for row and end in the same RNG state.
    twin_a, twin_b = (copy.deepcopy(_starnet("spsa")) for _ in range(2))
    batched = twin_a.assess_batch([Percept(features=f) for f in feats])
    per_sample = [twin_b.assess(Percept(features=f)) for f in feats]
    np.testing.assert_allclose(batched, per_sample, atol=1e-6)
    assert twin_a.rng.bit_generator.state == twin_b.rng.bit_generator.state


@functools.lru_cache(maxsize=1)
def _clouds_and_detector():
    from repro.detect import BEVDetector
    from repro.sim import LidarConfig, LidarScanner, sample_scene
    from repro.voxel import VoxelGridConfig, voxelize
    grid = VoxelGridConfig(nx=16, ny=16, nz=2, x_range=(0.0, 60.0),
                           y_range=(-30.0, 30.0))
    rng = np.random.default_rng(3)
    scanner = LidarScanner(LidarConfig(n_azimuth=48, n_elevation=8),
                           rng=rng)
    clouds = tuple(voxelize(scanner.scan(sample_scene(rng)).points,
                            config=grid) for _ in range(4))
    detector = BEVDetector(grid, rng=np.random.default_rng(4))
    return clouds, detector


@given(picks=st.lists(st.integers(min_value=0, max_value=3),
                      min_size=1, max_size=4))
@settings(max_examples=8, deadline=None)
def test_detector_batch_parity(picks):
    clouds, detector = _clouds_and_detector()
    chosen = [clouds[i] for i in picks]
    batched_maps = detector.score_maps_batch(chosen)
    batched_dets = detector.detect_batch(chosen)
    for i, cloud in enumerate(chosen):
        np.testing.assert_allclose(batched_maps[i],
                                   detector.score_maps(cloud),
                                   atol=1e-9)
        assert batched_dets[i] == detector.detect(cloud)


@given(picks=st.lists(st.integers(min_value=0, max_value=3),
                      min_size=1, max_size=3))
@settings(max_examples=8, deadline=None)
def test_rmae_occupancy_batch_parity(picks):
    clouds, detector = _clouds_and_detector()
    rmae = detector.rmae
    chosen = [clouds[i] for i in picks]
    batched = rmae.occupancy_probability_batch(chosen)
    for i, cloud in enumerate(chosen):
        np.testing.assert_allclose(batched[i],
                                   rmae.occupancy_probability(cloud),
                                   atol=1e-9)
