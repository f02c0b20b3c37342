"""Hypothesis parity tests for the batched inference forward paths.

The serving runtime's whole correctness story is the
:meth:`repro.nn.Module.forward_batch` contract: a batched forward must
produce, row for row, exactly what the per-sample ``forward`` would
(up to BLAS re-association), without touching any instance state.
These properties pin that down for every ``repro.nn`` layer and for
each pillar's batched serving entry point, and check that no inference
entry point changes the model it runs.
"""

import copy
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Percept
from repro.kernels import BACKENDS, kernel_backend
from repro.nn import (
    Conv2d,
    ConvTranspose2d,
    Dense,
    GRUCell,
    Module,
    Norm2d,
    Parameter,
    ReLU,
    Sequential,
    mlp,
)
from repro.runtime import fingerprint

ATOL = 1e-9

seeds = st.integers(min_value=0, max_value=10_000)
batch_sizes = st.integers(min_value=1, max_value=5)


def _norm2d(rng):
    """Norm2d with non-trivial scale and shift."""
    norm = Norm2d(3)
    norm.gamma.data[:] = rng.normal(size=3)
    norm.beta.data[:] = rng.normal(size=3)
    return norm


# (name, builder(rng) -> layer, per-sample input shape sans batch axis)
LAYER_CASES = [
    ("dense", lambda rng: Dense(5, 3, rng=rng), (5,)),
    ("relu", lambda rng: ReLU(), (7,)),
    ("norm2d", _norm2d, (3, 5, 4)),
    ("norm2d_strided", _norm2d, (3, 5, 4)),
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


def _inputs(name, rng, batch, shape):
    """A batch of inputs; a ``_strided`` case gets the interior of a
    padded map, a strided view like a padded deconv's output."""
    if not name.endswith("_strided"):
        return rng.normal(size=(batch,) + shape)
    c, h, w = shape
    return rng.normal(size=(batch, c, h + 2, w + 2))[:, :, 1:-1, 1:-1]


@pytest.mark.parametrize("name,build,shape",
                         LAYER_CASES, ids=[c[0] for c in LAYER_CASES])
@given(batch=batch_sizes, seed=seeds)
@settings(max_examples=20, deadline=None)
def test_forward_batch_matches_stacked_per_sample(name, build, shape,
                                                  batch, seed):
    rng = np.random.default_rng(seed)
    layer = build(rng)
    x = _inputs(name, rng, batch, shape)
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
    layer = build(rng)
    before = {k: v.copy() for module in layer.modules()
              for k, v in vars(module).items()
              if isinstance(v, np.ndarray)}
    caches_before = {id(m): [k for k, v in vars(m).items()
                             if k.startswith("_") and v is None]
                     for m in layer.modules()}
    layer.forward_batch(_inputs(name, rng, batch, shape))
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
def _scans_clouds_and_detector():
    from repro.detect import BEVDetector
    from repro.sim import LidarConfig, LidarScanner, sample_scene
    from repro.voxel import VoxelGridConfig, voxelize
    grid = VoxelGridConfig(nx=16, ny=16, nz=2, x_range=(0.0, 60.0),
                           y_range=(-30.0, 30.0))
    rng = np.random.default_rng(3)
    scanner = LidarScanner(LidarConfig(n_azimuth=48, n_elevation=8),
                           rng=rng)
    scans = tuple(scanner.scan(sample_scene(rng)) for _ in range(4))
    clouds = tuple(voxelize(scan.points, config=grid) for scan in scans)
    detector = BEVDetector(grid, rng=np.random.default_rng(4))
    return scans, clouds, detector


def _sigmoid(logits):
    return 1.0 / (1.0 + np.exp(-np.clip(logits, -60, 60)))


# Batched rows equal the training forward bit for bit on every backend:
# the live loop's batch of one and the server's batches are one path.
@given(picks=st.lists(st.integers(min_value=0, max_value=3),
                      min_size=1, max_size=4))
@settings(max_examples=8, deadline=None)
def test_detector_batch_parity(picks):
    _, clouds, detector = _scans_clouds_and_detector()
    chosen = [clouds[i] for i in picks]
    for backend in BACKENDS:
        with kernel_backend(backend):
            batched_maps = detector.score_maps_batch(chosen)
            batched_dets = detector.detect_batch(chosen)
            for i, cloud in enumerate(chosen):
                np.testing.assert_array_equal(batched_maps[i],
                                              detector.score_maps(cloud))
                assert batched_dets[i] == detector.detect(cloud)


@given(picks=st.lists(st.integers(min_value=0, max_value=3),
                      min_size=1, max_size=3))
@settings(max_examples=8, deadline=None)
def test_rmae_occupancy_batch_parity(picks):
    _, clouds, detector = _scans_clouds_and_detector()
    rmae = detector.rmae
    chosen = [clouds[i] for i in picks]
    for backend in BACKENDS:
        with kernel_backend(backend):
            batched = rmae.occupancy_probability_batch(chosen)
            for i, cloud in enumerate(chosen):
                np.testing.assert_array_equal(
                    batched[i], _sigmoid(rmae.forward(cloud)).transpose(1, 2, 0))
                np.testing.assert_array_equal(
                    batched[i], rmae.occupancy_probability(cloud))


@functools.lru_cache(maxsize=1)
def _encoder_batch():
    """An R-MAE at the e2ebench geometry and 16 clouds of 0-150 voxels
    (~1,000 rows in all, as a served batch holds): big enough that one
    GEMM over the whole batch would round some rows differently from
    a cloud's own GEMM."""
    from repro.generative import RMAE
    from repro.voxel import VoxelGridConfig, VoxelizedCloud
    grid = VoxelGridConfig(nx=24, ny=24, nz=2, x_range=(0.0, 60.0),
                           y_range=(-30.0, 30.0))
    rng = np.random.default_rng(21)
    clouds = []
    for size in [60, 0, 150, 24, 110, 33, 95, 47, 0, 130, 52, 41, 160, 29,
                 75, 64]:
        flat = rng.choice(24 * 24 * 2, size=size, replace=False)
        coords = [tuple(int(v) for v in c) for c in
                  np.stack(np.unravel_index(flat, grid.shape), axis=1)]
        feats = {c: rng.normal(size=4) for c in coords}
        clouds.append(VoxelizedCloud(grid, feats, {c: -1 for c in coords}))
    return RMAE(grid, rng=np.random.default_rng(22)), tuple(clouds)


def test_encode_batch_rows_equal_each_cloud_alone():
    """Cloud ``b``'s rows of one batched encode (and its pooled row) are
    :meth:`RMAE.encode` on that cloud alone, bit for bit, on both
    backends; an empty cloud has no rows and pools to zeros."""
    from repro.nn.sparse3d import SparseGlobalPool
    rmae, clouds = _encoder_batch()
    pool = SparseGlobalPool()
    for backend in BACKENDS:
        with kernel_backend(backend):
            coords, mat = rmae.encode_batch(clouds).packed()
            pooled = pool.forward_batch(rmae.encode_batch(clouds))
            for b, cloud in enumerate(clouds):
                alone = rmae.encode(cloud)
                ac, am = alone.packed()
                rows = coords[:, 0] == b
                assert (ac[:, 0] == 0).all()
                assert coords[rows, 1:].tobytes() == ac[:, 1:].tobytes()
                assert mat[rows].tobytes() == am.tobytes()
                assert pooled[b].tobytes() == \
                    pool.forward_batch(alone)[0].tobytes()
    assert coords.shape[0] == sum(c.num_occupied for c in clouds) > 900


# ------------------------------------------------- inference is pure
def _modules(model):
    roots = [model] if isinstance(model, Module) else [
        v for v in vars(model).values() if isinstance(v, Module)]
    return [m for root in roots for m in root.modules()]


def _public_state(model):
    """Copies of every parameter's values and gradient and every public
    array attribute of ``model``'s modules."""
    state = {}
    for m in _modules(model):
        for k, v in vars(m).items():
            if isinstance(v, Parameter):
                state[id(m), k] = v.data.copy()
                state[id(m), k + ".grad"] = v.grad.copy()
            elif isinstance(v, np.ndarray) and not k.startswith("_"):
                state[id(m), k] = v.copy()
    return state


def _caches(model):
    """The private (backward-cache) attributes of ``model``'s modules."""
    return {(id(m), k): v for m in _modules(model)
            for k, v in vars(m).items() if k.startswith("_")}


def _entry_points(scans, clouds, detector):
    from repro.starnet.features import LidarFeatureExtractor
    rmae = detector.rmae
    extractor = LidarFeatureExtractor(rmae)
    # name -> (model, call)
    return {
        "occupancy_probability": (
            rmae, lambda: rmae.occupancy_probability(clouds[0])),
        "occupancy_probability_batch": (
            rmae, lambda: rmae.occupancy_probability_batch(clouds[:3])),
        "detect": (detector, lambda: detector.detect(clouds[0])),
        "detect_batch": (detector,
                         lambda: detector.detect_batch(clouds[:3])),
        "extract": (extractor, lambda: extractor.extract(scans[0])),
        "extract_batch": (extractor,
                          lambda: extractor.extract_batch(scans[:3])),
    }


def _assert_unchanged(model, call):
    before = _public_state(model)
    cached, key = _caches(model), fingerprint(vars(model))
    call()
    after = _public_state(model)
    assert after.keys() == before.keys()
    for k, old in before.items():
        np.testing.assert_array_equal(after[k], old)
    for k, value in _caches(model).items():
        assert value is cached[k], f"{k[1]} was rewritten"
    # The artifact cache keys a model by this fingerprint.
    assert fingerprint(vars(model)) == key


@pytest.mark.parametrize("entry", [
    "occupancy_probability", "occupancy_probability_batch", "detect",
    "detect_batch", "extract", "extract_batch", "score_batch"])
def test_inference_leaves_the_model_unchanged(entry):
    """Parameters and their gradients, public arrays, every backward
    cache of the model tree (the sparse encoder's, the BEV scatter's and
    the VAE's included) and the model's fingerprint, on a fresh model
    and on one whose training forwards armed every cache.  The monitor
    was trained, so its caches and gradients are armed too."""
    if entry == "score_batch":
        monitor = _starnet()
        feats = np.random.default_rng(5).normal(size=(3, 6))
        for backend in BACKENDS:
            with kernel_backend(backend):
                _assert_unchanged(monitor,
                                  lambda: monitor.score_batch(feats))
        return
    from repro.detect import BEVDetector
    scans, clouds, detector = _scans_clouds_and_detector()
    fresh = BEVDetector(detector.grid, rng=np.random.default_rng(4))
    for model in (fresh, detector):
        if model is detector:
            model.rmae.forward(clouds[1])
            model.score_maps(clouds[1])
        _assert_unchanged(*_entry_points(scans, clouds, model)[entry])
