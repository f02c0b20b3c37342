"""Async federated engine: staleness weighting, determinism, job store.

Three layers of guarantees:

* property tests (Hypothesis) over the aggregation math —
  :func:`staleness_decay` / :func:`participation_weights` invariants
  hold for arbitrary inputs;
* the exact-reduction contract — with a full cohort, a fleet-sized
  buffer, and uniform sampling, :class:`AsyncFLServer` is bit-identical
  to ``FLServer.run_round`` for every mode and seed Hypothesis picks;
* orchestration — runs are byte-identical across worker counts, and a
  job-store-backed run killed mid-flight resumes to the exact final
  state of an uninterrupted one.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federated import (
    MODES,
    AsyncFLServer,
    FLClient,
    FLServer,
    JobStore,
    make_fleet,
    participation_weights,
    staleness_decay,
    uplink_mbps,
)
from repro.runtime import WorkerPool, spawn_rngs
from repro.sim import make_synthetic_cifar, shard_iid

# ------------------------------------------------------------ aggregation


@given(alpha=st.floats(0.0, 5.0), kind=st.sampled_from(("poly", "exp")))
def test_decay_is_one_at_zero_staleness(alpha, kind):
    # Exactly 1.0, not approximately: this is what makes the lockstep
    # reduction bit-identical rather than merely close.
    assert staleness_decay(0.0, alpha=alpha, kind=kind) == 1.0


@given(s=st.lists(st.integers(0, 1000), min_size=2, max_size=32),
       alpha=st.floats(0.0, 5.0), kind=st.sampled_from(("poly", "exp")))
def test_decay_monotone_non_increasing(s, alpha, kind):
    values = staleness_decay(sorted(s), alpha=alpha, kind=kind)
    assert np.all(np.diff(values) <= 1e-15)
    # exp underflows to exactly 0.0 for huge alpha*s; that is a valid
    # weight (the update just stops counting), so >= 0, not > 0.
    assert np.all(values >= 0) and np.all(values <= 1.0)


@given(st.data())
def test_participation_weights_floor(data):
    n = data.draw(st.integers(2, 32))
    costs = data.draw(st.lists(
        st.floats(0.0, 1e4, allow_nan=False), min_size=n, max_size=n))
    afford = data.draw(st.lists(
        st.floats(1e-6, 1e6, allow_nan=False), min_size=n, max_size=n))
    floor = data.draw(st.floats(0.01, 1.0))
    w = participation_weights(costs, afford, floor=floor)
    assert np.isclose(w.sum(), 1.0, rtol=0, atol=1e-12)
    # "Less often, not never": the cheapest client can outdraw the
    # most expensive one by at most 1/floor.
    assert w.min() / w.max() >= floor - 1e-12


def test_decay_and_weight_validation():
    with pytest.raises(ValueError, match="alpha"):
        staleness_decay(1.0, alpha=-0.1)
    with pytest.raises(ValueError, match="kind"):
        staleness_decay(1.0, kind="linear")
    with pytest.raises(ValueError, match="negative"):
        staleness_decay(-1.0)
    with pytest.raises(ValueError, match="uplink"):
        uplink_mbps("abacus")


# ------------------------------------------------------ engine reduction


def _fleet(n_clients, seed, n_per_class=8):
    dataset = make_synthetic_cifar(n_per_class=n_per_class, seed=seed)
    train, test = dataset.split(0.25, np.random.default_rng(seed + 1))
    shards = shard_iid(train, n_clients, rng=np.random.default_rng(seed + 2))
    profiles = make_fleet(n_clients, rng=np.random.default_rng(seed + 3))
    rngs = spawn_rngs(seed + 100, n_clients)
    clients = [FLClient(i, s, p, rng=r)
               for i, (s, p, r) in enumerate(zip(shards, profiles, rngs))]
    return clients, test


def _async_server(clients, test, seed, **kwargs):
    defaults = dict(hidden=8, rng=np.random.default_rng(seed + 4),
                    sampler_seed=seed + 5)
    defaults.update(kwargs)
    return AsyncFLServer(clients, test, **defaults)


@given(seed=st.integers(0, 50), mode=st.sampled_from(MODES))
@settings(deadline=None, max_examples=12)
def test_full_buffer_reduces_to_lockstep_rounds(seed, mode):
    n = 5
    c_sync, t_sync = _fleet(n, seed)
    c_async, t_async = _fleet(n, seed)
    sync = FLServer(c_sync, t_sync, hidden=8, mode=mode,
                    rng=np.random.default_rng(seed + 4))
    asyn = _async_server(c_async, t_async, seed, mode=mode,
                         buffer_size=n, sample_fraction=1.0,
                         cost_aware=False)
    sync.run(2)
    asyn.run_async(max_waves=2, eval_every=1)
    assert sync.weights_fingerprint() == asyn.weights_fingerprint()
    assert asyn.updates == 2 * n
    assert asyn._stale_max == 0  # a barrier never sees a stale update


def test_async_run_is_deterministic_and_tracks_staleness():
    results = []
    for _ in range(2):
        clients, test = _fleet(16, seed=7)
        server = _async_server(clients, test, seed=7, buffer_size=3,
                               sample_fraction=0.25, cost_aware=True)
        results.append(server.run_async(max_updates=30, eval_every=4))
    assert json.dumps(results[0], sort_keys=True) == \
        json.dumps(results[1], sort_keys=True)
    r = results[0]
    assert r["updates"] >= 30 and r["waves"] == r["version"]
    assert r["staleness_max"] >= 1  # buffering actually interleaves
    assert r["virtual_s"] > 0 and r["participating_clients"] <= 16


def test_async_pooled_matches_serial():
    clients, test = _fleet(12, seed=3)
    server = _async_server(clients, test, seed=3, buffer_size=4,
                           sample_fraction=0.5)
    serial = server.run_async(max_updates=24, eval_every=3)
    clients, test = _fleet(12, seed=3)
    server = _async_server(clients, test, seed=3, buffer_size=4,
                           sample_fraction=0.5)
    with WorkerPool(2) as pool:
        pooled = server.run_async(max_updates=24, eval_every=3, pool=pool)
    assert json.dumps(serial, sort_keys=True) == \
        json.dumps(pooled, sort_keys=True)


def test_cost_aware_sampling_prefers_cheap_tiers():
    clients, test = _fleet(30, seed=11)
    server = _async_server(clients, test, seed=11, buffer_size=4,
                           sample_fraction=0.4, cost_aware=True)
    server.run_async(max_updates=120, eval_every=50)
    # Participation is a dispatch-time property: a floor-sampled MCU
    # may still be in flight (its virtual upload takes seconds) when
    # the run's update budget ends, so count dispatches, not merges.
    by_tier = {}
    for client, count in zip(clients, server.client_dispatch_counts):
        by_tier.setdefault(client.profile.name, []).append(count)
    means = {tier: float(np.mean(counts))
             for tier, counts in by_tier.items()}
    # The fastest-uplink tier present must participate strictly more
    # than the slowest (mcu), which must still participate sometimes
    # across the fleet (the floor: less often, not never).
    fastest = max(means, key=lambda t: uplink_mbps(t))
    assert means[fastest] > means["mcu"]
    assert sum(by_tier["mcu"]) > 0


def test_virtual_time_outruns_lockstep():
    clients, test = _fleet(24, seed=5)
    lockstep = _async_server(clients, test, seed=5, buffer_size=24,
                             sample_fraction=1.0, cost_aware=False)
    lock = lockstep.run_async(max_waves=2, eval_every=1)
    clients, test = _fleet(24, seed=5)
    asyn = _async_server(clients, test, seed=5, buffer_size=4,
                         sample_fraction=0.25, cost_aware=True)
    fast = asyn.run_async(max_updates=lock["updates"], eval_every=10)
    assert fast["virtual_s"] < lock["virtual_s"] / 2


def test_constructor_validation():
    clients, test = _fleet(4, seed=0)
    with pytest.raises(ValueError, match="buffer_size"):
        AsyncFLServer(clients, test, buffer_size=0)
    with pytest.raises(ValueError, match="sample_fraction"):
        AsyncFLServer(clients, test, sample_fraction=0.0)
    with pytest.raises(ValueError, match="kind"):
        AsyncFLServer(clients, test, staleness_kind="nope")
    server = AsyncFLServer(clients, test)
    with pytest.raises(ValueError, match="bound the run"):
        server.run_async()


# --------------------------------------------------------------- job store


def test_job_store_events_and_status(tmp_path):
    store = JobStore(str(tmp_path))
    job = store.open_job("demo", {"seed": 1})
    assert job.status() == "pending"
    job.append_event({"wave": 1, "merged": 4})
    job.append_event({"wave": 2, "merged": 4})
    assert job.status() == "running"
    assert [e["wave"] for e in job.events()] == [1, 2]
    # A torn tail line (crash mid-append) is skipped, not fatal.
    with open(job.events_path, "a") as f:
        f.write('{"wave": 3, "mer')
    assert [e["wave"] for e in job.events()] == [1, 2]
    job.finish({"ok": True})
    assert job.status() == "done"
    assert job.result() == {"ok": True}
    listing = store.jobs()
    assert len(listing) == 1 and listing[0]["status"] == "done"
    assert store.clear() == 1
    assert store.jobs() == []


def test_job_store_checkpoint_roundtrip(tmp_path):
    job = JobStore(str(tmp_path)).open_job("demo", "x")
    assert job.load_checkpoint() is None
    state = {"weights": np.arange(6.0), "version": 3}
    job.checkpoint(state)
    restored = job.load_checkpoint()
    assert restored["version"] == 3
    np.testing.assert_array_equal(restored["weights"], state["weights"])


def test_job_ids_are_content_addressed(tmp_path):
    store = JobStore(str(tmp_path))
    assert store.job_id("fed", {"n": 8}) == store.job_id("fed", {"n": 8})
    assert store.job_id("fed", {"n": 8}) != store.job_id("fed", {"n": 9})


# ------------------------------------------------------------ kill/resume


class _Kill(Exception):
    pass


def _run(seed, store=None, die_at_wave=None, checkpoint_every=4):
    clients, test = _fleet(14, seed=seed)
    server = _async_server(clients, test, seed=seed, buffer_size=3,
                           sample_fraction=0.3, cost_aware=True)
    on_wave = None
    if die_at_wave is not None:
        def on_wave(wave, record):
            if wave == die_at_wave:
                raise _Kill(wave)
    return server.run_async(max_updates=60, eval_every=4, store=store,
                            checkpoint_every=checkpoint_every,
                            on_wave=on_wave)


def test_killed_run_resumes_bit_identical(tmp_path):
    reference = _run(seed=9)  # uninterrupted, no store

    store = JobStore(str(tmp_path))
    with pytest.raises(_Kill):
        _run(seed=9, store=store, die_at_wave=11)
    (job,) = store.jobs()
    assert job["status"] == "running" and job["events"] == 11

    resumed = _run(seed=9, store=store)
    assert resumed["job_id"]
    assert {k: resumed[k] for k in reference} == reference

    # Completed jobs short-circuit to the stored result.
    memoized = _run(seed=9, store=store)
    assert memoized["weights_sha"] == reference["weights_sha"]
    (job,) = store.jobs()
    assert job["status"] == "done"


def test_different_config_gets_a_different_job(tmp_path):
    store = JobStore(str(tmp_path))
    _run(seed=9, store=store)
    clients, test = _fleet(14, seed=9)
    server = _async_server(clients, test, seed=9, buffer_size=5,
                           sample_fraction=0.3, cost_aware=True)
    server.run_async(max_updates=15, eval_every=4, store=store)
    assert len(store.jobs()) == 2
