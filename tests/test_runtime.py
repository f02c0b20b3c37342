"""Tests for repro.runtime: worker pools, artifact cache, seeding,
parallel federated rounds, and the bench driver."""

import os
import pickle

import numpy as np
import pytest

from repro import obs
from repro.federated import FLClient, FLServer, make_fleet
from repro.nn import VAE, train_vae
from repro.runtime import (
    SEED_AUDIT_MIN,
    ArtifactCache,
    TaskFailure,
    WorkerPool,
    assert_private_rngs,
    cached_fit,
    fingerprint,
    resolve_workers,
    run_suite,
    spawn_rngs,
    spawn_seeds,
    store,
)
from repro.sim import make_synthetic_cifar, shard_iid
from repro.starnet import STARNet


# ----------------------------------------------------- module-level tasks
# (pool tasks must be picklable, hence top-level)
def _square(x):
    return x * x


def _seeded_draw(seed):
    return float(np.random.default_rng(seed).normal())


def _boom(x):
    raise RuntimeError(f"task exploded on {x}")


def _instrumented(x):
    reg = obs.get_registry()
    reg.counter("test.task_count").inc()
    reg.counter("test.task_sum").inc(float(x))
    reg.histogram("test.task_hist").observe(float(x))
    reg.gauge("test.task_last").set(float(x))
    return x


# -------------------------------------------------------------- resolve
def test_resolve_workers_default_and_env(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_workers(None) == 1
    assert resolve_workers(3) == 3
    monkeypatch.setenv("REPRO_WORKERS", "4")
    assert resolve_workers(None) == 4
    assert resolve_workers(2) == 2  # explicit beats env
    with pytest.raises(ValueError):
        resolve_workers(-1)


# ------------------------------------------------------------------ pool
def test_pool_serial_and_parallel_identical_ordered():
    seeds = list(range(8))
    with WorkerPool(1) as serial:
        expected = serial.map(_seeded_draw, seeds)
    with WorkerPool(3) as pool:
        got = pool.map(_seeded_draw, seeds)
    assert got == expected  # bit-identical, submission order


def test_pool_workers_one_never_forks():
    pool = WorkerPool(1)
    assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
    assert pool._executor is None


def test_pool_task_failure_raises_in_parent():
    with WorkerPool(2) as pool:
        with pytest.raises(TaskFailure) as exc_info:
            pool.map(_boom, ["a", "b"])
    assert "task 0" in str(exc_info.value)
    assert "exploded" in str(exc_info.value)
    assert isinstance(exc_info.value.__cause__, RuntimeError)


def test_pool_task_failure_serial_path_too():
    with WorkerPool(1) as pool:
        with pytest.raises(TaskFailure):
            pool.map(_boom, [1])


def test_pool_failure_carries_worker_traceback():
    # The original traceback object cannot cross the process boundary;
    # the formatted text must, so CI logs show where the task died.
    with WorkerPool(2) as pool:
        with pytest.raises(TaskFailure) as exc_info:
            pool.map(_boom, ["a", "b"])
    failure = exc_info.value
    assert failure.worker_traceback
    assert "_boom" in failure.worker_traceback
    assert "exploded" in failure.worker_traceback
    assert "worker traceback" in str(failure)


def test_pool_failure_carries_traceback_serially_too():
    with WorkerPool(1) as pool:
        with pytest.raises(TaskFailure) as exc_info:
            pool.map(_boom, [1])
    assert "_boom" in exc_info.value.worker_traceback
    assert "exploded" in str(exc_info.value)


def test_pool_merges_worker_obs_counters():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        with WorkerPool(2) as pool:
            pool.map(_instrumented, [1.0, 2.0, 3.0, 4.0])
    counters = registry.snapshot()["counters"]
    assert counters["test.task_count"] == 4.0
    assert counters["test.task_sum"] == 10.0
    assert counters["runtime.tasks_submitted"] == 4.0
    assert counters["runtime.tasks_completed"] == 4.0
    hist = registry.histogram("test.task_hist")
    assert hist.count == 4
    assert hist.total == 10.0
    # gauges: last submission wins, as in a serial run
    assert registry.gauge("test.task_last").value == 4.0
    assert registry.histogram("runtime.task_wall_s").count == 4


def test_pool_obs_match_serial_exactly():
    serial_reg = obs.MetricsRegistry()
    with obs.use_registry(serial_reg):
        with WorkerPool(1) as pool:
            pool.map(_instrumented, [5.0, 7.0])
    parallel_reg = obs.MetricsRegistry()
    with obs.use_registry(parallel_reg):
        with WorkerPool(2) as pool:
            pool.map(_instrumented, [5.0, 7.0])
    s = serial_reg.snapshot()["counters"]
    p = parallel_reg.snapshot()["counters"]
    for name in ("test.task_count", "test.task_sum",
                 "runtime.tasks_submitted", "runtime.tasks_completed"):
        assert s[name] == p[name]


def test_starmap_unpacks_args():
    with WorkerPool(2) as pool:
        assert pool.starmap(pow, [(2, 3), (3, 2)]) == [8, 9]


# --------------------------------------------------------------- seeding
def test_spawn_seeds_deterministic_and_distinct():
    a = spawn_seeds(42, 6)
    b = spawn_seeds(42, 6)
    assert a == b
    assert len(set(a)) == 6
    assert spawn_seeds(43, 6) != a


def test_spawn_rngs_independent_streams():
    rngs = spawn_rngs(0, 4)
    draws = [r.normal() for r in rngs]
    assert len(set(draws)) == 4
    again = [r.normal() for r in spawn_rngs(0, 4)]
    assert [r for r in draws] == again


def test_spawn_seeds_fleet_scale_collision_audit():
    # 32-bit seeds collide with ~1% odds by 10^4 draws (birthday bound);
    # at fleet scale spawn_seeds must switch to 64-bit derivation and
    # still guarantee pairwise-distinct streams.
    n = 10_000
    seeds = spawn_seeds(0, n)
    assert len(set(seeds)) == n
    assert max(seeds) >= 2 ** 32  # the wide derivation actually engaged
    assert spawn_seeds(0, n) == seeds  # still deterministic
    # Below the audit threshold the historical 32-bit values are kept,
    # so committed baselines seeded through spawn_seeds stay valid.
    small = spawn_seeds(7, SEED_AUDIT_MIN - 1)
    assert all(s < 2 ** 32 for s in small)
    children = np.random.SeedSequence(7).spawn(SEED_AUDIT_MIN - 1)
    assert small == [int(c.generate_state(2, dtype=np.uint32)[0])
                     for c in children]


def test_assert_private_rngs_rejects_aliases():
    shared = np.random.default_rng(0)
    assert_private_rngs([np.random.default_rng(0),
                         np.random.default_rng(0)])  # equal state is fine
    with pytest.raises(ValueError, match="share one numpy Generator"):
        assert_private_rngs([shared, shared])


# ----------------------------------------------------------------- cache
def _tmp_cache(tmp_path):
    return ArtifactCache(str(tmp_path / "cache"))


def test_suite_runs_on_a_private_cache(tmp_path_factory):
    root = os.path.realpath(store._default_root())
    base = os.path.realpath(tmp_path_factory.getbasetemp())
    assert os.environ.get("REPRO_CACHE_DIR")
    assert os.path.commonpath([root, base]) == base


def test_cache_roundtrip_and_counters(tmp_path):
    cache = _tmp_cache(tmp_path)
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        key = cache.key("thing", a=1, arr=np.arange(4))
        assert cache.load("thing", key) is None  # miss
        cache.store("thing", key, {"x": np.ones(3), "n": 7})
        loaded = cache.load("thing", key)
    assert loaded["n"] == 7
    np.testing.assert_array_equal(loaded["x"], np.ones(3))
    counters = registry.snapshot()["counters"]
    assert counters["runtime.cache_misses"] == 1.0
    assert counters["runtime.cache_hits"] == 1.0
    assert counters["runtime.cache_writes"] == 1.0
    info = cache.info()
    assert info["entries"] == 1
    assert info["by_kind"] == {"thing": 1}
    assert cache.clear() == 1
    assert cache.info()["entries"] == 0


def test_fingerprint_content_addressed():
    a = fingerprint({"x": np.arange(5), "lr": 0.1})
    b = fingerprint({"lr": 0.1, "x": np.arange(5)})  # key order irrelevant
    assert a == b
    assert fingerprint({"x": np.arange(5), "lr": 0.2}) != a
    changed = np.arange(5).copy()
    changed[0] = 9
    assert fingerprint({"x": changed, "lr": 0.1}) != a
    # RNG state participates: same seed same key, different seed not
    assert fingerprint(np.random.default_rng(1)) == \
        fingerprint(np.random.default_rng(1))
    assert fingerprint(np.random.default_rng(1)) != \
        fingerprint(np.random.default_rng(2))


def test_cached_fit_hit_restores_model_and_rng(tmp_path):
    cache = _tmp_cache(tmp_path)

    def build():
        return VAE(6, latent_dim=2, hidden=(8,),
                   rng=np.random.default_rng(0))

    data = np.random.default_rng(1).normal(size=(24, 6))

    vae_a = build()
    rng_a = np.random.default_rng(2)
    losses_a = train_vae(vae_a, data, epochs=2, rng=rng_a, cache=cache)

    registry = obs.MetricsRegistry()
    vae_b = build()
    rng_b = np.random.default_rng(2)
    with obs.use_registry(registry):
        losses_b = train_vae(vae_b, data, epochs=2, rng=rng_b, cache=cache)
    assert registry.snapshot()["counters"]["runtime.cache_hits"] == 1.0
    assert losses_a == losses_b
    for pa, pb in zip(vae_a.parameters(), vae_b.parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)
    # post-training RNG state restored: downstream draws are identical
    assert rng_a.bit_generator.state == rng_b.bit_generator.state

    # different epochs -> different key -> miss
    vae_c = build()
    registry2 = obs.MetricsRegistry()
    with obs.use_registry(registry2):
        train_vae(vae_c, data, epochs=3, rng=np.random.default_rng(2),
                  cache=cache)
    assert registry2.snapshot()["counters"].get(
        "runtime.cache_hits", 0.0) == 0.0


def test_cached_fit_hit_keeps_generators_shared_with_the_owner(
        tmp_path, monkeypatch):
    # STARNet hands its own generator to its VAE, and VAE training
    # draws from it.  A hit must advance that generator in place, not
    # give the VAE a fresh copy and leave the monitor's one behind.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    features = np.random.default_rng(1).normal(size=(40, 12))

    def fitted(registry):
        monitor = STARNet(12, spsa_steps=5, rng=np.random.default_rng(0))
        with obs.use_registry(registry):
            monitor.fit(features, epochs=3)
        return monitor

    trained = fitted(obs.MetricsRegistry())
    registry = obs.MetricsRegistry()
    loaded = fitted(registry)
    assert registry.snapshot()["counters"]["runtime.cache_hits"] == 1.0
    assert trained.vae.rng is trained.rng
    assert loaded.vae.rng is loaded.rng
    assert loaded.rng.bit_generator.state == trained.rng.bit_generator.state
    assert loaded.score(features[0]) == trained.score(features[0])
    assert loaded.rng.bit_generator.state == trained.rng.bit_generator.state


def _old_layout(path, vae):
    # The layout cached_fit wrote before it restored generators in
    # place.  Read as a hit, it would return its stale aux.
    with open(path, "wb") as f:
        pickle.dump({"state": dict(vars(vae)), "aux": ["stale"],
                     "rng_state": None, "obs": {}}, f)


def _moved_classes(path, vae):
    # The model's classes moved since the entry was written, so loading
    # it fails on an import.
    with open(path, "rb") as f:
        blob = f.read()
    assert b"repro.nn" in blob
    with open(path, "wb") as f:
        f.write(blob.replace(b"repro.nn", b"repro.zz"))


@pytest.mark.parametrize("make_stale", [_old_layout, _moved_classes],
                         ids=["old_layout", "moved_classes"])
def test_cached_fit_recomputes_a_stale_entry(tmp_path, make_stale):
    cache = _tmp_cache(tmp_path)
    data = np.random.default_rng(1).normal(size=(24, 6))

    def fit(registry):
        vae = VAE(6, latent_dim=2, hidden=(8,), rng=np.random.default_rng(0))
        with obs.use_registry(registry):
            losses = train_vae(vae, data, epochs=2,
                               rng=np.random.default_rng(2), cache=cache)
        return vae, losses

    vae_a, losses_a = fit(obs.MetricsRegistry())
    (entry,) = cache.entries()
    make_stale(os.path.join(cache.root, entry["file"]), vae_a)
    registry = obs.MetricsRegistry()
    vae_b, losses_b = fit(registry)
    counters = registry.snapshot()["counters"]
    assert counters["runtime.cache_corrupt"] == 1.0
    assert counters["runtime.cache_writes"] == 1.0  # recomputed, re-stored
    assert losses_b == losses_a
    for pa, pb in zip(vae_a.parameters(), vae_b.parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)
    registry = obs.MetricsRegistry()
    fit(registry)  # the re-stored entry serves the next fit
    assert registry.snapshot()["counters"]["runtime.cache_hits"] == 1.0


def test_cached_fit_disabled_paths(tmp_path, monkeypatch):
    calls = []

    class Toy:
        pass

    def train():
        calls.append(1)
        return "aux"

    monkeypatch.setenv("REPRO_CACHE", "0")
    assert cached_fit("toy", {}, Toy(), None, train, cache=None) == "aux"
    assert cached_fit("toy", {}, Toy(), None, train, cache=False) == "aux"
    assert len(calls) == 2  # env kill-switch + explicit opt-out: no memo


# ----------------------------------------------- parallel federated round
def _small_server(n_clients=3, seed=0, pool_safe=True):
    ds = make_synthetic_cifar(n_per_class=8, seed=seed, cache=False)
    train, test = ds.split(0.25, np.random.default_rng(seed + 1))
    shards = shard_iid(train, n_clients, rng=np.random.default_rng(seed + 2))
    fleet = make_fleet(n_clients, rng=np.random.default_rng(seed + 3))
    clients = [FLClient(i, s, p, rng=np.random.default_rng(50 + i))
               for i, (s, p) in enumerate(zip(shards, fleet))]
    return FLServer(clients, test, hidden=8, mode="dcnas+halo",
                    rng=np.random.default_rng(seed + 4))


def test_fl_round_parallel_bit_identical_to_serial():
    serial = _small_server()
    serial.run(2)
    parallel = _small_server()
    with WorkerPool(2) as pool:
        parallel.run(2, pool=pool)
    for a, b in zip(serial.global_weights, parallel.global_weights):
        np.testing.assert_array_equal(a, b)
    assert [h.test_accuracy for h in serial.history] == \
        [h.test_accuracy for h in parallel.history]
    assert [h.mean_train_loss for h in serial.history] == \
        [h.mean_train_loss for h in parallel.history]
    # client RNGs advanced exactly as in the serial run
    for ca, cb in zip(serial.clients, parallel.clients):
        assert ca.rng.bit_generator.state == cb.rng.bit_generator.state


def test_fl_round_parallel_obs_counters_match_serial():
    serial = _small_server()
    reg_s = obs.MetricsRegistry()
    with obs.use_registry(reg_s):
        serial.run_round()
    parallel = _small_server()
    reg_p = obs.MetricsRegistry()
    with obs.use_registry(reg_p):
        with WorkerPool(2) as pool:
            parallel.run_round(pool=pool)
    s, p = reg_s.snapshot()["counters"], reg_p.snapshot()["counters"]
    assert s["federated.client_macs"] == p["federated.client_macs"]
    assert s["federated.client_energy_mj"] == p["federated.client_energy_mj"]
    assert p["runtime.tasks_submitted"] == 3.0


def test_fl_round_rejects_shared_generator_in_parallel():
    server = _small_server()
    shared = np.random.default_rng(9)
    for client in server.clients:
        client.rng = shared
    with WorkerPool(2) as pool:
        with pytest.raises(ValueError, match="share one numpy Generator"):
            server.run_round(pool=pool)
    # serial semantics (interleaved draws through one state) still allowed
    server.run_round()


def test_flclient_emulated_wall_validation():
    with pytest.raises(ValueError):
        FLClient(0, make_synthetic_cifar(n_per_class=2, cache=False),
                 make_fleet(1)[0], emulated_round_s=-1.0)


def test_flclient_is_picklable():
    server = _small_server()
    blob = pickle.dumps(server.clients[0])
    clone = pickle.loads(blob)
    assert clone.client_id == server.clients[0].client_id
    assert clone.rng.bit_generator.state == \
        server.clients[0].rng.bit_generator.state


# ---------------------------------------------------------- bench driver
def test_run_suite_unknown_name_rejected():
    with pytest.raises(KeyError, match="unknown benches"):
        run_suite(["not_a_bench"], workers=1)


def test_run_suite_results_identical_across_workers():
    serial = run_suite(["fig5a_model_macs", "codesign"], workers=1)
    parallel = run_suite(["fig5a_model_macs", "codesign"], workers=2)
    assert serial["results"] == parallel["results"]
    assert serial["meta"]["workers"] == 1
    assert parallel["meta"]["workers"] == 2
    assert set(parallel["meta"]["bench_wall_s"]) == {
        "fig5a_model_macs", "codesign"}
