"""Fault injection against every record kind of repro.runtime.store.

Each persisted kind (artifact blob, replay pack, job checkpoint, job
result) is damaged the ways a crash or a bad disk damages a file: cut
short, overwritten with garbage, or left in an older layout.  A damaged
record must read as a miss, be evicted, be counted as
``runtime.<store>_corrupt``, and be replaced by the next write.  A
leftover temp file from a writer killed before its ``os.replace`` must
never be read.  Pooled writers and evictors racing on one root must
never return a wrong payload.
"""

import json
import os
import pickle
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pytest

from repro import obs
from repro.runtime import WorkerPool
from repro.runtime.store import LAYOUT, ArtifactCache, JobStore, ReplayStore


@dataclass
class Kind:
    """One record of one store: where it lives and how to write and
    read it back through the store's own API."""

    store: str
    path: str
    write: Callable[[Any], Any]
    read: Callable[[], Any]
    clear: Callable[[], int]
    stale: bytes  # a well-formed record in the layout before the tag


def _blob(root, slot=0):
    cache = ArtifactCache(root)
    key = cache.key("blob", slot=slot)
    return Kind("cache", cache._path("blob", key),
                lambda payload: cache.store("blob", key, payload),
                lambda: cache.load("blob", key), cache.clear,
                pickle.dumps({"state": {}, "aux": None, "rng_state": None,
                              "obs": None}))


def _pack(root, slot=0):
    store = ReplayStore(root)
    key = f"ab{slot:022x}"  # every slot lands in pack-ab
    return Kind("scenario_store", store._pack("ab"),
                lambda payload: store.insert({key: payload}),
                lambda: store.lookup([key]).get(key), store.clear,
                pickle.dumps({"layout": 1, "entries": {key: {"v": 0}}}))


def _checkpoint(root, slot=0):
    store = JobStore(root)
    job = store.open_job("demo", slot)
    return Kind("job_store", job.checkpoint_path, job.checkpoint,
                job.load_checkpoint, store.clear,
                pickle.dumps({"v": 0}))


def _result(root, slot=0):
    store = JobStore(root)
    job = store.open_job("demo", slot)
    return Kind("job_store", job.result_path, job.finish, job.result,
                store.clear, json.dumps({"v": 0}).encode())


KINDS = {"blob": _blob, "pack": _pack, "checkpoint": _checkpoint,
         "result": _result}


def _damage(kind: Kind, fault: str) -> None:
    if fault == "truncated":
        with open(kind.path, "r+b") as f:
            f.truncate(os.path.getsize(kind.path) // 2)
        return
    blob = {"garbage": b"\x80garbage", "stale": kind.stale}[fault]
    with open(kind.path, "wb") as f:
        f.write(blob)


def _counters(registry):
    return registry.snapshot()["counters"]


@pytest.mark.parametrize("fault", ["truncated", "garbage", "stale"])
@pytest.mark.parametrize("name", sorted(KINDS))
def test_damaged_record_is_a_counted_evicted_miss(tmp_path, name, fault):
    kind = KINDS[name](str(tmp_path))
    kind.write({"v": 1})
    assert kind.read() == {"v": 1}
    _damage(kind, fault)
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        assert kind.read() is None
    assert not os.path.exists(kind.path)  # poisoned record evicted
    counters = _counters(registry)
    assert counters[f"runtime.{kind.store}_corrupt"] == 1.0
    assert counters[f"runtime.{kind.store}_misses"] == 1.0
    kind.write({"v": 2})  # recompute-and-store works again
    assert kind.read() == {"v": 2}


@pytest.mark.parametrize("name", sorted(KINDS))
def test_killed_writer_leaves_the_record_intact(tmp_path, name):
    kind = KINDS[name](str(tmp_path))
    kind.write({"v": 1})
    # A writer killed between its temp-file write and os.replace leaves
    # a partial temp file beside the record and never touches it.
    leftover = os.path.join(os.path.dirname(kind.path), "tmpkilled.tmp")
    with open(leftover, "wb") as f:
        f.write(pickle.dumps((LAYOUT, {"v": 99}))[:7])
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        assert kind.read() == {"v": 1}
        kind.write({"v": 2})
        assert kind.read() == {"v": 2}
    assert _counters(registry).get(f"runtime.{kind.store}_corrupt",
                                   0.0) == 0.0
    assert kind.clear() >= 1
    assert not os.path.exists(leftover)


def test_torn_result_does_not_mark_the_job_done(tmp_path):
    store = JobStore(str(tmp_path))
    job = store.open_job("demo", "x")
    job.append_event({"wave": 1})
    job.finish({"ok": True})
    assert job.status() == "done"
    with open(job.result_path, "r+b") as f:
        f.truncate(5)
    assert job.status() == "running"
    assert job.result() is None
    assert [j["status"] for j in store.jobs()] == ["running"]


# ---------------------------------------------------------- pooled stress
def _stress(item):
    """Hammer a shared root: interleaved write/read on four slots.

    Every writer writes the same payload for a given slot, so any
    non-None read must round-trip exactly.  A torn read, a lost index
    update, or the eviction race (a corrupt-read unlink deleting a
    record a concurrent writer just replaced) all surface as mismatches
    or ``_corrupt`` counts in the parent registry.
    """
    name, root, worker_seed, rounds = item
    rng = np.random.default_rng(worker_seed)
    mismatches = 0
    for _ in range(rounds):
        slot = int(rng.integers(0, 4))
        kind = KINDS[name](root, slot)
        kind.write({"slot": slot, "blob": np.full(256, slot)})
        out = kind.read()
        if out is not None and (out["slot"] != slot
                                or not np.all(out["blob"] == slot)):
            mismatches += 1
    return mismatches


@pytest.mark.parametrize("name", ["blob", "pack"])
def test_pooled_writers_and_evictors_stay_consistent(tmp_path, name):
    root = str(tmp_path / "shared")
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        with WorkerPool(4) as pool:
            mismatches = pool.map(_stress,
                                  [(name, root, seed, 25)
                                   for seed in range(8)],
                                  label="store.stress")
    assert sum(mismatches) == 0
    counters = _counters(registry)
    store = KINDS[name](root).store
    # Every worker's writes reached the parent, so the zero below is
    # the workers' count, not an empty registry.
    assert counters[f"runtime.{store}_writes"] == 8 * 25
    assert counters.get(f"runtime.{store}_corrupt", 0.0) == 0.0
    # The survivors are intact.  Every blob slot survives; a pack keeps
    # the slots its last writer merged.
    survivors = [KINDS[name](root, slot).read() for slot in range(4)]
    if name == "blob":
        assert None not in survivors
    for slot, out in enumerate(survivors):
        assert out is None or np.all(out["blob"] == slot)
    assert any(out is not None for out in survivors)
