"""Kernel dispatch layer + reference/vectorized equivalence.

The dispatch tests pin the selection contract (``REPRO_KERNELS``, scoped
overrides, loud errors for unknown names).  The equivalence tests are
the unit-level half of the differential story: for every kernel pair,
random scenario-shaped inputs — including empty and degenerate active
sets — must produce matching forwards *and* matching gradients, with
the only allowed gap being BLAS re-association at the last ulps.
"""

import numpy as np
import pytest

from repro import obs
from repro.detect.ap import Detection
from repro.kernels import (
    BACKENDS,
    DEFAULT_BACKEND,
    KERNELS_ENV,
    KernelError,
    active_backend,
    available_kernels,
    get_kernel,
    kernel_backend,
    kernel_timer,
    register_kernel,
)
from repro.kernels.lidar_raycast import _slab_ranges
from repro.kernels.sparse_conv import neighbor_table
from repro.neuromorphic.snn import SpikingConv2d
from repro.nn import Conv2d, ConvTranspose2d
from repro.nn.sparse3d import SparseConv3d, SparseGrad, SparseVoxelTensor, _kernel_offsets
from repro.nn.vae import VAE
from repro.scenario.spec import PLATFORMS
from repro.sim import (
    LidarConfig,
    LidarScanner,
    Scene,
    SceneObject,
    apply_corruption,
    sample_scene,
)
from repro.voxel import VoxelGridConfig, voxelize, voxelize_batch

# ---------------------------------------------------------------- dispatch


def test_default_backend_is_vectorized(monkeypatch):
    monkeypatch.delenv(KERNELS_ENV, raising=False)
    assert DEFAULT_BACKEND == "vectorized"
    assert active_backend() == "vectorized"


def test_env_selects_backend(monkeypatch):
    monkeypatch.setenv(KERNELS_ENV, "reference")
    assert active_backend() == "reference"
    monkeypatch.setenv(KERNELS_ENV, "VECTORIZED")  # case-insensitive
    assert active_backend() == "vectorized"


def test_invalid_env_backend_raises(monkeypatch):
    monkeypatch.setenv(KERNELS_ENV, "turbo")
    with pytest.raises(KernelError, match="invalid REPRO_KERNELS"):
        active_backend()
    with pytest.raises(KernelError):
        get_kernel("sparse_conv3d")


def test_scoped_override_beats_env_and_restores(monkeypatch):
    monkeypatch.setenv(KERNELS_ENV, "vectorized")
    with kernel_backend("reference"):
        assert active_backend() == "reference"
        with kernel_backend("vectorized"):
            assert active_backend() == "vectorized"
        assert active_backend() == "reference"
    assert active_backend() == "vectorized"
    with pytest.raises(KernelError, match="unknown kernel backend"):
        with kernel_backend("turbo"):
            pass


def test_unknown_kernel_and_backend_errors():
    with pytest.raises(KernelError, match="unknown kernel 'nope'"):
        get_kernel("nope")
    with pytest.raises(KernelError, match="unknown kernel backend"):
        get_kernel("sparse_conv3d", backend="turbo")


def test_registry_covers_the_hot_paths():
    hot = ("sparse_conv3d", "snn_bptt", "likelihood_regret", "bev_match",
           "lidar_raycast", "voxelize", "conv_gemm")
    assert set(hot) <= set(available_kernels())
    for name in hot:
        for backend in BACKENDS:
            assert get_kernel(name, backend=backend) is not None


def test_register_kernel_validates_backend():
    with pytest.raises(KernelError, match="unknown kernel backend"):
        register_kernel("x", "turbo", object())


def test_partially_registered_kernel_fails_loudly():
    register_kernel("test-only-partial", "reference", object())
    try:
        with pytest.raises(KernelError, match="no 'vectorized' backend"):
            get_kernel("test-only-partial", backend="vectorized")
    finally:
        from repro.kernels import _REGISTRY
        _REGISTRY.pop("test-only-partial", None)


def test_kernel_timer_records_histogram_not_counter():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        with kernel_timer("test_kernel", "op"):
            pass
    snap = registry.snapshot()
    assert "kernels.test_kernel.op_s" in snap["histograms"]
    # Timings must never land in counters: golden traces record the
    # deterministic counter slice and wall clock is not deterministic.
    assert not any(k.startswith("kernels.") for k in snap["counters"])


# ----------------------------------------------------- sparse conv parity


def _random_sparse(rng, grid, n_active, in_ch):
    total = grid[0] * grid[1] * grid[2]
    n_active = min(n_active, total)
    flat = rng.choice(total, size=n_active, replace=False)
    coords = [tuple(int(v) for v in c)
              for c in np.stack(np.unravel_index(np.sort(flat), grid),
                                axis=1)]
    values = rng.normal(size=(n_active, in_ch))
    return SparseVoxelTensor.from_coords(coords, in_ch, grid, values=values)


# The "1-" ID prefix is the stride-1 axis the cases were written under.
@pytest.mark.parametrize("n_active", [0, 1, 9, 40], ids=lambda n: f"1-{n}")
def test_sparse_conv_backends_agree(n_active):
    grid = (6, 5, 3) if n_active else (1, 1, 1)  # degenerate too
    in_ch, out_ch = 3, 4

    outs, grads = {}, {}
    for backend in BACKENDS:
        layer = SparseConv3d(in_ch, out_ch, kernel=3,
                             rng=np.random.default_rng(1))
        x = _random_sparse(np.random.default_rng(2), grid, n_active, in_ch)
        with kernel_backend(backend):
            out = layer.forward(x)
            oc, om = out.packed()
            din = layer.backward(SparseGrad(oc, np.ones_like(om)))
        outs[backend] = out
        grads[backend] = (layer.weight.grad.copy(), layer.bias.grad.copy(),
                          {c: din[c].copy() for c in din})

    ref, vec = outs["reference"], outs["vectorized"]
    assert sorted(ref.features) == sorted(vec.features)
    rc, rm = ref.packed()
    vc, vm = vec.packed()
    np.testing.assert_array_equal(rc, vc)
    np.testing.assert_allclose(rm, vm, rtol=1e-12, atol=1e-12)
    for (rw, rb, rd), (vw, vb, vd) in [(grads["reference"],
                                        grads["vectorized"])]:
        np.testing.assert_allclose(rw, vw, rtol=1e-11, atol=1e-12)
        np.testing.assert_allclose(rb, vb, rtol=1e-11, atol=1e-12)
        assert sorted(rd) == sorted(vd)
        for c in rd:
            np.testing.assert_allclose(rd[c], vd[c],
                                       rtol=1e-11, atol=1e-12)


def _neighbor_index_per_offset(coords, offsets):
    """Per-offset ``(in_idx, out_idx)`` lists from one lookup loop per
    kernel offset: the oracle :func:`neighbor_table` must agree with."""
    n = coords.shape[0]
    empty = np.zeros(0, dtype=np.int64)
    if n == 0:
        return [(empty, empty)] * len(offsets)
    lo = coords.min(axis=0)
    dims = coords.max(axis=0) - lo + 1

    def encode(c):
        q = c - lo
        return (q[:, 0] * dims[1] + q[:, 1]) * dims[2] + q[:, 2]

    keys = encode(coords)
    pairs = []
    for off in offsets:
        q = coords + off
        valid = np.all((q >= lo) & (q < lo + dims), axis=1)
        if not valid.any():
            pairs.append((empty, empty))
            continue
        qk = encode(q[valid])
        pos = np.minimum(np.searchsorted(keys, qk), n - 1)
        found = keys[pos] == qk
        pairs.append((pos[found], np.nonzero(valid)[0][found]))
    return pairs


# The "1-" ID prefix is the stride-1 axis the cases were written under.
@pytest.mark.parametrize("kernel", [1, 3, 5], ids=lambda k: f"1-{k}")
def test_neighbor_index_matches_per_offset_loop(kernel):
    """The (n, K) rulebook holds exactly the per-offset loop's pairs:
    ``table[out, i] == in`` for each, ``n`` everywhere else, on empty,
    sparse, dense and negative-coordinate sets."""
    offsets = np.asarray(SparseConv3d(1, 1, kernel=kernel).offsets,
                         dtype=np.int64)
    rng = np.random.default_rng(61 + 10 * kernel)
    cases = [np.zeros((0, 3), dtype=np.int64),
             np.array([[0, 0, 0]], dtype=np.int64),
             np.array([[-7, 3, -2]], dtype=np.int64)]
    for n, lo, hi in [(5, 0, 4), (40, -6, 6), (120, -20, 3), (60, 0, 3)]:
        cases.append(np.unique(rng.integers(lo, hi, size=(n, 3)), axis=0))
    for coords in cases:
        coords = coords.astype(np.int64)
        n = coords.shape[0]
        table = neighbor_table(coords, offsets)
        assert table.dtype == np.int64
        assert table.shape == (n, len(offsets))
        want = np.full((n, len(offsets)), n, dtype=np.int64)
        for i, (in_idx, out_idx) in enumerate(
                _neighbor_index_per_offset(coords, offsets)):
            want[out_idx, i] = in_idx
        assert table.tobytes() == want.tobytes()


def _batched_coords(clouds):
    """Sorted (n, 4) coords of per-cloud (n_b, 3) sets, the cloud index
    leading, and each cloud's first row."""
    rows = [np.column_stack([np.full(len(c), b), c])
            for b, c in enumerate(clouds)]
    coords = np.concatenate(rows).astype(np.int64).reshape(-1, 4)
    coords = coords[np.lexsort(coords.T[::-1])]
    return coords, np.cumsum([0] + [len(c) for c in clouds])


def _batch_cases():
    rng = np.random.default_rng(66)
    some = np.unique(rng.integers(0, 5, size=(30, 3)), axis=0)
    other = np.unique(rng.integers(0, 5, size=(25, 3)), axis=0)
    empty = np.zeros((0, 3), dtype=np.int64)
    # Opposite corners of the box: cloud 1's first key follows cloud 0's
    # last, so a query stepping out of cloud 0's slab would land on it.
    corner_hi, corner_lo = np.array([[4, 4, 4]]), np.array([[0, 0, 0]])
    # Every voxel of cloud 1 sits one step above one of cloud 0's.
    below = np.unique(rng.integers(0, 5, size=(12, 3)) * [1, 1, 0], axis=0)
    return {
        "identical": [some, some.copy()],
        "touching-corners": [corner_hi, corner_lo],
        "stacked": [below, below + [0, 0, 1]],
        "empty-first": [empty, some, other],
        "empty-middle": [some, empty, other],
        "empty-last": [some, other, empty],
    }


@pytest.mark.parametrize("case", sorted(_batch_cases()))
def test_neighbor_table_never_links_two_clouds(case):
    """A batch's rulebook is each cloud's own rulebook, shifted to the
    cloud's rows: every entry stays inside its cloud or is absent."""
    clouds = _batch_cases()[case]
    offsets = np.asarray(_kernel_offsets(3), dtype=np.int64)
    coords, starts = _batched_coords(clouds)
    n = coords.shape[0]
    table = neighbor_table(coords, offsets)
    assert table.shape == (n, len(offsets))
    for b, cloud in enumerate(clouds):
        rows = table[starts[b]:starts[b + 1]]
        own = neighbor_table(coords[starts[b]:starts[b + 1], 1:], offsets)
        want = np.where(own == len(cloud), n, own + starts[b])
        assert rows.tobytes() == want.tobytes()
        linked = rows[rows < n]
        assert ((starts[b] <= linked) & (linked < starts[b + 1])).all()


@pytest.mark.parametrize("kernel", [1, 3, 5])
def test_kernel_offsets_list_each_mirror_at_the_mirrored_index(kernel):
    """Offset ``-d`` sits at index ``K-1-i``: the vectorized backward
    gathers input grads through the reversed rulebook on this."""
    offsets = np.array(_kernel_offsets(kernel))
    np.testing.assert_array_equal(offsets[::-1], -offsets)


def _sparse_conv_case(case, in_ch):
    rng = np.random.default_rng(63)
    if case == "isolated":      # no voxel has an active neighbour
        coords = [(2 * i, 2 * j, 2 * k) for i in range(3)
                  for j in range(3) for k in range(2)]
        grid = (6, 6, 4)
    elif case == "dense-block":  # every site of a 3x3x3 block active
        coords = [(i, j, k) for i in range(3) for j in range(3)
                  for k in range(3)]
        grid = (3, 3, 3)
    else:
        coords, grid = [], (2, 2, 2)
    return SparseVoxelTensor.from_coords(
        coords, in_ch, grid, values=rng.normal(size=(len(coords), in_ch)))


@pytest.mark.parametrize("case", ["isolated", "dense-block", "empty"])
def test_sparse_conv_backends_agree_on_structured_sets(case):
    """Forward, input grad and weight/bias grads within 1e-12 on sets
    where every neighbour is absent, every one present, or no site."""
    in_ch, out_ch = 3, 4
    got = {}
    for backend in BACKENDS:
        layer = SparseConv3d(in_ch, out_ch, kernel=3,
                             rng=np.random.default_rng(64))
        x = _sparse_conv_case(case, in_ch)
        with kernel_backend(backend):
            out = layer.forward(x)
            oc, om = out.packed()
            g = np.random.default_rng(65).normal(size=om.shape)
            din = layer.backward(SparseGrad(oc, g))
        got[backend] = (oc, om, SparseVoxelTensor(
            {c: din[c] for c in din}, in_ch, x.grid_shape).packed(),
            layer.weight.grad, layer.bias.grad)
    (rc, rm, (rdc, rdm), rw, rb) = got["reference"]
    (vc, vm, (vdc, vdm), vw, vb) = got["vectorized"]
    np.testing.assert_array_equal(rc, vc)
    np.testing.assert_array_equal(rdc, vdc)
    for want, have in [(rm, vm), (rdm, vdm), (rw, vw), (rb, vb)]:
        assert want.shape == have.shape
        np.testing.assert_allclose(have, want, rtol=1e-12, atol=1e-12)
    if case != "empty":
        assert np.abs(vw).sum() > 0 and np.abs(vdm).sum() > 0


# ------------------------------------------------------- SNN BPTT parity


@pytest.mark.parametrize("learnable", [False, True])
def test_snn_bptt_backends_agree(learnable):
    x = np.random.default_rng(31).normal(size=(5, 2, 2, 6, 6))
    grad_out = np.random.default_rng(32).normal(size=(5, 2, 3, 6, 6))

    results = {}
    for backend in BACKENDS:
        layer = SpikingConv2d(2, 3, leak=0.85, threshold=0.7,
                              learnable_dynamics=learnable,
                              rng=np.random.default_rng(30))
        with kernel_backend(backend):
            spikes = layer.forward(x)
            din = layer.backward(grad_out.copy())
        results[backend] = (spikes, din, layer)

    ref_s, ref_d, ref_l = results["reference"]
    vec_s, vec_d, vec_l = results["vectorized"]
    assert ref_s.sum() > 0  # genuinely spiking workload
    np.testing.assert_array_equal(ref_s, vec_s)  # binary: must be exact
    np.testing.assert_allclose(ref_d, vec_d, rtol=1e-9, atol=1e-12)
    for rp, vp in zip(ref_l.parameters(), vec_l.parameters()):
        np.testing.assert_allclose(rp.grad, vp.grad,
                                   rtol=1e-9, atol=1e-12,
                                   err_msg=rp.name)


# -------------------------------------------------- likelihood regret parity


@pytest.mark.parametrize("method", ["spsa", "exact", "recon"])
def test_likelihood_regret_backends_agree(method):
    vae = VAE(9, latent_dim=4, hidden=(12,), rng=np.random.default_rng(40))
    for batch in (1, 2, 5, 16):
        X = np.random.default_rng(41).normal(size=(batch, 9))
        rngs = {backend: np.random.default_rng(42) for backend in BACKENDS}
        scores = {
            backend: get_kernel("likelihood_regret", backend=backend)
            .score_rows(vae, X, method, 8, rngs[backend])
            for backend in BACKENDS
        }
        assert scores["reference"].shape == (batch,)
        np.testing.assert_allclose(scores["reference"], scores["vectorized"],
                                   rtol=1e-9, atol=1e-12,
                                   err_msg=f"batch {batch}")
        # Both backends draw one seed per row from the shared RNG.
        assert rngs["reference"].bit_generator.state == \
            rngs["vectorized"].bit_generator.state


@pytest.mark.parametrize("method, steps", [("spsa", 25), ("exact", 50)])
def test_regret_decodes_each_iterate_once(method, steps):
    """The vectorized kernel decodes at most ``steps + 1`` times per
    score: SPSA stacks f(θ_k) with the next step's f(θ_k ± c_kδ_k), and
    exact reuses the decode that scored an iterate for its gradient map.
    Both decoding entry points are counted."""
    vae = VAE(9, latent_dim=4, hidden=(12,), rng=np.random.default_rng(40))
    calls = []

    def counting(decode):
        def counted(z):
            calls.append(z.shape[0])
            return decode(z)
        return counted

    vae.decode = counting(vae.decode)
    vae.decode_vjp = counting(vae.decode_vjp)
    X = np.random.default_rng(41).normal(size=(3, 9))
    get_kernel("likelihood_regret", backend="vectorized").score_rows(
        vae, X, method, steps, np.random.default_rng(42))
    assert len(calls) <= steps + 1


def _spsa_concatenating_oracle(vae, X, steps, rng):
    """The vectorized SPSA stepping as it was before its stack was
    preallocated: a fresh concatenation, an ELBO with ``np.clip`` and
    ``np.sum``, ``np.linalg.norm`` and a list of iterate values per
    step."""
    from repro.kernels import regret

    latent = vae.latent_dim
    b = X.shape[0]
    mu0, logvar0 = vae.encode(X)
    theta = np.concatenate([mu0, logvar0], axis=1)
    signs = np.stack([
        np.random.default_rng(rng.integers(2 ** 31)).integers(
            0, 2, size=(steps, theta.shape[1]))
        for _ in range(b)], axis=1) * 2.0 - 1.0
    X3 = np.concatenate([X, X, X])

    def neg_elbo(th, rows):
        mu, logvar = th[:, :latent], np.clip(th[:, latent:], -10.0, 10.0)
        recon_term = -np.sum((vae.decode(mu) - rows) ** 2, axis=1)
        kl = 0.5 * np.sum(np.exp(logvar) + mu ** 2 - 1.0 - logvar, axis=1)
        return -(recon_term - kl)

    f_iterates = []
    for k in range(steps):
        ak = regret._SPSA_A / (k + 1 + regret._SPSA_STABILITY) \
            ** regret._SPSA_ALPHA
        ck = regret._SPSA_C / (k + 1) ** regret._SPSA_GAMMA
        delta = signs[k]
        f = neg_elbo(np.concatenate(
            [theta, theta + ck * delta, theta - ck * delta]), X3)
        f_iterates.append(f[:b])
        ghat = ((f[b:2 * b] - f[2 * b:]) / (2.0 * ck))[:, None] * delta
        norms = np.linalg.norm(ghat, axis=1)
        scale = np.where(norms > 0, norms, 1.0)
        theta = theta - ak * (ghat / scale[:, None])
    f_iterates.append(neg_elbo(theta, X))
    base = -f_iterates[0]
    return np.maximum(-np.min(f_iterates, axis=0) - base, 0.0)


@pytest.mark.parametrize("batch", [1, 16])
def test_spsa_stepping_matches_the_concatenating_step_bit_for_bit(batch):
    """The preallocated stack and inline ELBO make the same ops in the
    same order as the stepping they replaced, at the test VAE's shape
    and at the monitor's (latent 6, hidden 48/24)."""
    kernel = get_kernel("likelihood_regret", backend="vectorized")
    vaes = (VAE(9, latent_dim=4, hidden=(12,), rng=np.random.default_rng(40)),
            VAE(40, latent_dim=6, hidden=(48, 24),
                rng=np.random.default_rng(44)))
    for vae in vaes:
        data = np.random.default_rng(45).normal(size=(batch, vae.input_dim))
        for X in (data, 4.0 * data + 3.0):        # in and out of range
            for steps in (1, 8, 25):
                rng, oracle_rng = (np.random.default_rng(46),
                                   np.random.default_rng(46))
                got = kernel.score_rows(vae, X, "spsa", steps, rng)
                want = _spsa_concatenating_oracle(vae, X, steps, oracle_rng)
                assert (got.dtype, got.shape, got.tobytes()) == \
                    (want.dtype, want.shape, want.tobytes())
                assert rng.bit_generator.state == \
                    oracle_rng.bit_generator.state
        assert (want > 0).any()


# ------------------------------------------------------- BEV match parity


def test_bev_match_backends_agree():
    rng = np.random.default_rng(50)
    cases = [
        ([], np.zeros((0, 2))),                      # both empty
        ([Detection("Car", 1.0, 2.0, 0.9)], np.zeros((0, 2))),  # no GTs
        ([], rng.uniform(0, 10, size=(3, 2))),       # no preds
    ]
    for _ in range(20):
        preds = [Detection("Car", float(x), float(y), float(s))
                 for x, y, s in rng.uniform(0, 20, size=(rng.integers(1, 25),
                                                         3))]
        gts = rng.uniform(0, 20, size=(int(rng.integers(1, 10)), 2))
        cases.append((preds, gts))
    for preds, gts in cases:
        ref = get_kernel("bev_match", backend="reference").match_scene(
            preds, gts, 4.0)
        vec = get_kernel("bev_match", backend="vectorized").match_scene(
            preds, gts, 4.0)
        assert ref == vec  # scores and TP flags, exactly


# ------------------------------------------------------- conv GEMM parity

CONV_LAYERS = {
    "conv-stride1": lambda rng: Conv2d(3, 5, kernel=3, stride=1, pad=1,
                                       rng=rng),
    "conv-stride2": lambda rng: Conv2d(3, 5, kernel=3, stride=2, pad=1,
                                       rng=rng),
    "deconv": lambda rng: ConvTranspose2d(3, 5, kernel=4, stride=2, pad=1,
                                          rng=rng),
}


def _conv_pass(layer, x: np.ndarray, backend: str) -> dict:
    """Forward, batched forward and both backward gradients of one layer
    under one backend."""
    with kernel_backend(backend):
        out = layer.forward(x)
        batched = layer.forward_batch(x)
        layer.zero_grad()
        grad = np.random.default_rng(61).standard_normal(out.shape)
        dx = layer.backward(grad)
    return {"forward": out, "forward_batch": batched, "input_grad": dx,
            "weight_grad": layer.weight.grad.copy()}


@pytest.mark.parametrize("batch", [1, 16])
@pytest.mark.parametrize("layer", sorted(CONV_LAYERS))
def test_conv_gemm_backends_agree(layer, batch):
    x = np.random.default_rng(60).standard_normal((batch, 3, 8, 8))
    ref, vec = (_conv_pass(CONV_LAYERS[layer](np.random.default_rng(5)), x, b)
                for b in ("reference", "vectorized"))
    for name in ref:
        assert ref[name].shape == vec[name].shape
        np.testing.assert_allclose(vec[name], ref[name], rtol=0, atol=1e-12,
                                   err_msg=name)


def test_conv_gemm_reference_keeps_the_transposed_conv_spellings():
    """``ConvTranspose2d`` spelled its einsums with renamed indices; the
    reference forms reproduce those byte for byte (``repro verify`` pins
    the rest against the goldens)."""
    rng = np.random.default_rng(62)
    w, g, cols = (rng.standard_normal(shape)
                  for shape in ((3, 80), (2, 3, 16), (2, 80, 16)))
    ref = get_kernel("conv_gemm", backend="reference")
    assert (ref.matmul_t(w, g).tobytes()
            == np.einsum("if,nip->nfp", w, g).tobytes())
    assert (ref.weight_grad(g, cols).tobytes()
            == np.einsum("nip,nfp->if", g, cols).tobytes())
    assert (ref.matmul(w, cols).tobytes()
            == np.einsum("if,nfp->nip", w, cols).tobytes())


# ---------------------------------------------------- LiDAR raycast parity
#
# Raycast and voxelization are held to byte identity, not a tolerance:
# one beam flipping between hit and miss shifts every later noise draw.

RAYCAST_GEOMETRIES = {
    "table1-64x14-100deg": LidarConfig(n_azimuth=64, n_elevation=14,
                                       azimuth_fov_deg=100.0),
    "default-72x20": LidarConfig(),
    **{name: LidarConfig(**geometry) for name, geometry in PLATFORMS.items()},
}


def _raycast_scenes():
    def box(center, size=(4.0, 2.0, 1.6), yaw=0.0):
        return SceneObject("Car", np.array(center), np.array(size), yaw)

    return {
        "empty": Scene(),
        # yaw 0: beams along the x axis take the |d| < 1e-12 branch, once
        # inside the y slab and once outside it.
        "parallel": Scene([box((15.0, 0.0, 0.8)), box((25.0, 5.0, 0.8))]),
        "inside": Scene([box((0.0, 0.0, 1.0), size=(6.0, 6.0, 4.0)),
                         box((12.0, 3.0, 0.8), yaw=0.4)]),
        "behind": Scene([box((-10.0, 0.0, 0.8), yaw=1.0)]),
        "street": sample_scene(np.random.default_rng(60)),
        # Two boxes at one pose hit every beam at exactly the same range:
        # the earlier object wins, as the reference's strict ``<`` keeps it.
        "tie": Scene([box((14.0, 1.0, 0.8), size=(4.0, 2.0, 30.0), yaw=0.3),
                      SceneObject("Pedestrian", np.array([14.0, 1.0, 0.8]),
                                  np.array([4.0, 2.0, 30.0]), 0.3)]),
        # A thin slab whose top face is the ground plane, wide enough to
        # hold every ground return in range: its half height 2**-10 adds
        # to the sensor height exactly, so each downward beam meets its
        # top face at exactly the ground's range, and the ground keeps
        # every such beam, as the reference's strict ``<`` does.
        "ground-tie": Scene([box((0.0, 0.0, -2.0 ** -10),
                                 size=(250.0, 250.0, 2.0 ** -9))]),
        # A wall reaching below the ground whose face straddles the
        # maximum range (120 m): its far hits must not count, while
        # downward beams keep their nearer ground returns and beams past
        # its edge hit a car well in range.
        "beyond-range": Scene([box((121.0, 0.0, 0.0), size=(6.0, 90.0, 40.0)),
                               box((40.0, 30.0, 0.8), yaw=0.2)]),
    }


def _raycast_masks(n_beams):
    single = np.zeros(n_beams, dtype=bool)
    single[n_beams // 2] = True
    return {"none": None,
            "random30": np.random.default_rng(61).random(n_beams) < 0.3,
            "all-false": np.zeros(n_beams, dtype=bool),
            "single": single}


def _scan_bytes(scan):
    return tuple((a.dtype.str, a.shape, a.tobytes())
                 for a in (scan.points, scan.labels, scan.beam_ids,
                           scan.ranges, scan.fired_mask))


@pytest.mark.parametrize("geometry", sorted(RAYCAST_GEOMETRIES))
def test_lidar_raycast_backends_agree(geometry):
    config = RAYCAST_GEOMETRIES[geometry]
    # Every geometry has an azimuth-0 beam, so the yaw-0 scene really
    # exercises the parallel-axis branch.
    assert (np.abs(config.beam_directions()[:, 1]) < 1e-12).any()
    hits = 0
    for scene_name, scene in _raycast_scenes().items():
        for mask_name, mask in _raycast_masks(config.n_beams).items():
            out = {}
            for backend in BACKENDS:
                rng = np.random.default_rng(62)
                with kernel_backend(backend):
                    scan = LidarScanner(config, rng=rng).scan(scene, mask)
                out[backend] = (_scan_bytes(scan), rng.bit_generator.state)
            assert out["reference"] == out["vectorized"], (scene_name,
                                                           mask_name)
            hits += len(out["reference"][0][0][2])
            if mask is None and scene_name in ("tie", "ground-tie"):
                # Every tie goes to the first surface: object 0 over
                # object 1, the ground over the slab.
                assert _exact_ties(config, scene) > 0, scene_name
                first, second = (0, 1) if scene_name == "tie" else (-1, 0)
                labels = scan.labels.tolist()
                assert first in labels and second not in labels, scene_name
    assert hits > 0


def _exact_ties(config, scene):
    """How many beams meet two surfaces at exactly one in-range distance:
    two boxes, or a box and the ground."""
    origin = np.array([0.0, 0.0, config.sensor_height_m])
    d = config.beam_directions()
    t = _slab_ranges(scene.objects, origin, d)
    with np.errstate(divide="ignore"):
        t_ground = np.where(d[:, 2] < -1e-9,
                            (scene.ground_z - origin[2]) / d[:, 2], np.inf)
    t = np.vstack([t, t_ground])
    t[~((0 < t) & (t < config.max_range_m))] = np.inf
    nearest = t.min(axis=0)
    return int((np.isfinite(nearest)
                & ((t == nearest).sum(axis=0) > 1)).sum())


# ------------------------------------------------------- voxelize parity


def _voxelize_cases():
    config = LidarConfig(n_azimuth=48, n_elevation=10)
    scan = LidarScanner(config, rng=np.random.default_rng(70)).scan(
        sample_scene(np.random.default_rng(71)))
    snow = apply_corruption(scan, "snow", severity=0.8,
                            rng=np.random.default_rng(72))
    crosstalk = apply_corruption(scan, "crosstalk", severity=0.6,
                                 rng=np.random.default_rng(73))
    assert (snow.labels == -2).any() and (crosstalk.labels == -2).any()

    grid = VoxelGridConfig()
    sx, sy, sz = grid.voxel_size
    # Cell edges, the grid's own bounds and points just outside them.
    edges = np.array([[grid.x_range[0], grid.y_range[0], grid.z_range[0]],
                      [grid.x_range[1], 0.0, 0.0],
                      [3 * sx, -2 * sy, grid.z_range[0] + sz],
                      [-1e-9, 0.0, 0.0],
                      [10.0, grid.y_range[1], 1.0],
                      [10.0, 1.0, grid.z_range[1] - 1e-12],
                      [1e30, -1e30, 0.0]])
    edges = np.column_stack([edges, np.linspace(0.1, 0.9, len(edges))])
    rng = np.random.default_rng(74)
    dense = np.column_stack([rng.uniform(10.0, 10.0 + sx, 40),
                             rng.uniform(0.0, sy, 40),
                             rng.uniform(0.5, 0.5 + sz, 40),
                             rng.random(40)])

    def in_cells(counts):
        """``counts[v]`` points inside cell ``(5 + v, 3 + v % 4, 1)``,
        shuffled so that the voxels interleave in point order."""
        corner = np.array([[grid.x_range[0] + (5 + v) * sx,
                            grid.y_range[0] + (3 + v % 4) * sy,
                            grid.z_range[0] + sz]
                           for v, c in enumerate(counts) for _ in range(c)])
        pts = np.column_stack([corner + rng.uniform(0.01, 0.99, corner.shape)
                               * (sx, sy, sz), rng.random(len(corner))])
        return rng.permutation(pts)

    # Three to four voxels share each of the counts 2, 5 and 9.
    shared = in_cells([2, 5, 9, 2, 5, 9, 2, 5, 9, 5])
    # 300 points in one voxel: numpy's recursive pairwise branch (> 128).
    crowded = in_cells([300, 3, 1])
    # Votes tied within a voxel: the smallest id wins; the largest label
    # wins the last voxel outright.
    tied_labels = [[1, 2, 2, 1], [4, 3, -1, 3, 4], [0, 5, 5, 0, -2, 7],
                   [6, 6, 2, 2], [-1, -2], [9, 1, 9]]
    tied = np.concatenate([
        np.column_stack([np.full((len(l), 3), [(5 + v) * sx, 3 * sy, 1.0])
                         + rng.uniform(0.01, 0.5, (len(l), 3)),
                         rng.random(len(l))])
        for v, l in enumerate(tied_labels)])
    tied_order = rng.permutation(len(tied))
    return {
        "scan": (scan.points, scan.labels),
        "no-labels": (scan.points, None),
        "snow": (snow.points, snow.labels),
        "crosstalk": (crosstalk.points, crosstalk.labels),
        "edges": (edges, np.array([0, 1, 1, 2, -2, 3, 4])),
        "empty": (np.zeros((0, 4)), np.zeros(0, dtype=np.int64)),
        "single": (np.array([[12.0, 1.0, 1.0, 0.4]]), np.array([3])),
        # 40 points in one voxel: numpy's pairwise-sum branch (> 8).
        "dense": (dense, rng.integers(-2, 4, size=40)),
        "shared-counts": (shared, rng.integers(-2, 4, size=len(shared))),
        "crowded": (crowded, rng.integers(-1, 3, size=len(crowded))),
        "tied-labels": (tied[tied_order],
                        np.concatenate(tied_labels)[tied_order]),
    }


@pytest.mark.parametrize("case", sorted(_voxelize_cases()))
def test_voxelize_backends_agree(case):
    points, labels = _voxelize_cases()[case]
    out = {}
    for backend in BACKENDS:
        with kernel_backend(backend):
            cloud = voxelize(points, labels)
        out[backend] = (list(cloud.features),
                        [(f.dtype.str, f.tobytes())
                         for f in cloud.features.values()],
                        list(cloud.point_labels.items()))
    assert out["reference"] == out["vectorized"]
    counts = sorted(round(float(np.expm1(f[0]))) for f in
                    voxelize(points, labels).features.values())
    if case == "dense":
        assert counts[-1] > 8
    if case == "shared-counts":
        assert counts == [2] * 3 + [5] * 4 + [9] * 3
    if case == "crowded":
        assert counts[-1] == 300
    if case == "tied-labels":
        labels_by_x = sorted(voxelize(points, labels).point_labels.items())
        assert [label for _, label in labels_by_x] == [1, 3, 0, 2, -1, 9]


def _cloud_bytes(cloud):
    return (list(cloud.features),
            [(f.dtype.str, f.tobytes()) for f in cloud.features.values()],
            list(cloud.point_labels.items()))


@pytest.mark.parametrize("backend", BACKENDS)
def test_voxelize_batch_equals_each_scan_alone(backend):
    """Every voxelize case in one batch, with an empty scan first and a
    scan wholly outside the grid among them: each scan's cloud is its
    lone ``voxelize`` byte for byte (dict order, feature bytes,
    labels), and scans never merge voxels."""
    cases = _voxelize_cases()
    outside = np.array([[-5.0, 0.0, 1.0, 0.2], [200.0, 0.0, 1.0, 0.3],
                        [10.0, 90.0, 1.0, 0.4], [10.0, 0.0, 9.0, 0.5]])
    batch = [cases["empty"]] + [cases[c] for c in sorted(cases)] \
        + [(outside, np.array([1, 2, 3, 4])), cases["scan"], cases["scan"]]
    points = [p for p, _ in batch]
    labels = [np.full(len(p), -1) if l is None else l for p, l in batch]
    with kernel_backend(backend):
        clouds = voxelize_batch(points, labels)
        alone = [voxelize(p, l) for p, l in zip(points, labels)]
        unlabelled = voxelize_batch(points)
    assert len(clouds) == len(batch)
    assert [_cloud_bytes(c) for c in clouds] == [_cloud_bytes(c)
                                                 for c in alone]
    assert [_cloud_bytes(c) for c in unlabelled] == [
        _cloud_bytes(voxelize(p)) for p in points]
    assert clouds[0].num_occupied == 0 and clouds[-3].num_occupied == 0
    assert clouds[-1].num_occupied > 0
    assert voxelize_batch([]) == []


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("where", [0, 1, 2])
def test_voxelize_batch_rejects_non_finite_coordinates_in_any_scan(
        backend, where):
    good = np.array([[10.0, 0.0, 1.0, 0.5], [12.0, 1.0, 1.0, 0.5]])
    bad = np.array([[10.0, np.nan, 1.0, 0.5], [11.0, 0.0, 1.0, 0.5],
                    [np.inf, 0.0, -np.inf, 0.5]])
    points = [good, good, good]
    points[where] = bad
    with kernel_backend(backend), pytest.raises(
            ValueError, match=f"2 point.* of scan {where} "):
        voxelize_batch(points)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_voxelize_rejects_non_finite_coordinates(backend, bad):
    points = np.array([[10.0, 0.0, 1.0, 0.5],
                       [bad, 0.0, 1.0, 0.5],
                       [11.0, bad, bad, 0.5]])
    with kernel_backend(backend), pytest.raises(
            ValueError, match="2 point"):
        voxelize(points)


# -------------------------------------------- sparse tensor representations


def test_sparse_tensor_dict_and_packed_round_trip():
    coords = [(0, 1, 0), (2, 0, 1), (1, 1, 1)]
    values = np.arange(9.0).reshape(3, 3)
    x = SparseVoxelTensor.from_coords(coords, 3, (3, 2, 2), values=values)
    assert not x.is_packed and x.num_active == 3

    pc, pm = x.packed()
    assert pc.shape == (3, 3) and pm.shape == (3, 3)
    # packed() sorts coordinates lexicographically.
    assert [tuple(c) for c in pc] == sorted(coords)

    packed = SparseVoxelTensor(None, 3, (3, 2, 2), coords=pc.copy(),
                               matrix=pm.copy())
    assert packed.is_packed and packed.num_active == 3
    np.testing.assert_array_equal(packed.dense(), x.dense())
    # Materializing the dict drops the packed arrays.
    feats = packed.features
    assert not packed.is_packed
    np.testing.assert_array_equal(feats[(2, 0, 1)], x.features[(2, 0, 1)])

    with pytest.raises(ValueError):
        SparseVoxelTensor(None, 3, (3, 2, 2))


def test_packed_sorts_dict_tensors_like_sorted_tuples():
    rng = np.random.default_rng(70)
    for n in (0, 1, 17, 90):
        keys = {tuple(int(v) for v in rng.integers(-9, 9, size=3))
                for _ in range(n)}
        feats = {c: rng.normal(size=4) for c in keys}
        coords, mat = SparseVoxelTensor(feats, 4, (4, 4, 4)).packed()
        order = sorted(feats)
        want_c = np.asarray(order, dtype=np.int64).reshape(len(order), 3)
        want_m = (np.stack([feats[c] for c in order]) if order
                  else np.zeros((0, 4)))
        assert coords.dtype == np.int64 and coords.shape == (len(order), 3)
        assert coords.tobytes() == want_c.tobytes()
        assert mat.shape == want_m.shape and mat.tobytes() == want_m.tobytes()


def test_sparse_grad_is_a_mapping():
    coords = np.array([[0, 0, 0], [1, 2, 3]], dtype=np.int64)
    g = SparseGrad(coords, np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert len(g) == 2
    assert (1, 2, 3) in g and (9, 9, 9) not in g
    np.testing.assert_array_equal(g[(0, 0, 0)], [1.0, 2.0])
    assert set(g) == {(0, 0, 0), (1, 2, 3)}
    assert sorted(g.keys()) == [(0, 0, 0), (1, 2, 3)]
