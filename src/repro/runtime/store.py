"""The on-disk stores: one root, one atomic write, one evicting read.

Everything the package persists lives under one root,
``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``)::

    <root>/<kind>-<key>.pkl          ArtifactCache blobs
    <root>/scenarios/pack-<xx>.pkl   ReplayStore packs (256 buckets)
    <root>/jobs/<kind>-<id>/         JobStore jobs: events.jsonl,
                                     checkpoint.pkl, result.json

Every record is ``(LAYOUT, payload)``.  :func:`write_atomic` replaces a
record in one step (temp file + ``os.replace``), so a crashed or
concurrent writer never leaves a torn one.  :func:`read` treats a record
it cannot load, or one under another layout, as a miss and evicts it:
a store can cost a recompute, never a wrong answer.  The per-job event
log is the one file that is appended to instead of replaced.

Each store counts its traffic on the active :mod:`repro.obs` registry
as ``runtime.<store>_{hits,misses,corrupt,writes,bytes_written}``, one
hit or miss per record read, with ``<store>`` one of ``cache``,
``scenario_store`` and ``job_store``.  The ``runtime.`` prefix keeps
store bookkeeping out of golden traces.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import shutil
import tempfile
from collections import Counter
from typing import IO, Any, Callable, Dict, Iterable, List, Optional

from ..obs.registry import get_registry

__all__ = [
    "ArtifactCache", "ReplayStore", "JobStore", "JobHandle",
    "CACHE_DIR_ENV", "LAYOUT", "write_atomic", "read",
]

CACHE_DIR_ENV = "REPRO_CACHE_DIR"

# Tag of every record.  Bump it when the shape of any record changes,
# the memoizers' entries in repro.runtime.cache included: records under
# another tag then read as misses, are evicted and get recomputed.
# Layout 1 was the replay store's ``{"layout": 1, "entries": ...}`` pack.
LAYOUT = 2

# Job directories are named ``<kind>-<fingerprint>``.
_JOB_DIR = re.compile(r"(.+)-([0-9a-f]{24})")


def _default_root() -> str:
    return os.environ.get(CACHE_DIR_ENV, "").strip() or os.path.join(
        os.path.expanduser("~"), ".cache", "repro")


def _pickle(record: Any) -> bytes:
    return pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)


def _json(record: Any) -> bytes:
    return json.dumps(record, indent=2, sort_keys=True, default=str).encode()


def _count_write(store: str, nbytes: int) -> None:
    obs = get_registry()
    obs.counter(f"runtime.{store}_writes").inc()
    obs.counter(f"runtime.{store}_bytes_written").inc(float(nbytes))


def write_atomic(path: str, payload: Any, store: str,
                 dumps: Callable[[Any], bytes] = _pickle) -> None:
    """Replace the record at ``path`` with ``payload`` in one step."""
    blob = dumps((LAYOUT, payload))
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    _count_write(store, len(blob))


def read(path: str, store: str,
         load: Callable[[IO[bytes]], Any] = pickle.load) -> Optional[Any]:
    """The payload of the record at ``path``; ``None`` on a miss.

    A record that fails to load or carries another layout is a miss as
    well: it counts ``runtime.<store>_corrupt`` and is evicted.  The
    eviction removes only the inode whose read failed.  A concurrent
    writer's ``os.replace`` may have landed a fresh, valid record at the
    same path since the open, and unlinking by path would delete it.
    """
    obs = get_registry()
    ino = None
    try:
        with open(path, "rb") as f:
            ino = os.fstat(f.fileno()).st_ino
            tag, payload = load(f)
        if tag != LAYOUT:
            raise ValueError(f"layout {tag!r}, expected {LAYOUT}")
    except FileNotFoundError:
        obs.counter(f"runtime.{store}_misses").inc()
        return None
    except Exception:
        obs.counter(f"runtime.{store}_corrupt").inc()
        obs.counter(f"runtime.{store}_misses").inc()
        try:
            if ino is not None and os.stat(path).st_ino == ino:
                os.unlink(path)
        except OSError:
            pass
        return None
    obs.counter(f"runtime.{store}_hits").inc()
    return payload


def _listdir(directory: str) -> List[str]:
    try:
        return sorted(os.listdir(directory))
    except FileNotFoundError:
        return []


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _unlink(directory: str, names: Iterable[str]) -> int:
    removed = 0
    for name in names:
        try:
            os.unlink(os.path.join(directory, name))
            removed += 1
        except OSError:
            pass
    return removed


# ------------------------------------------------------------------ blobs
class ArtifactCache:
    """Flat directory of ``<kind>-<key>.pkl`` artifact blobs."""

    STORE = "cache"

    def __init__(self, root: Optional[str] = None):
        self.root = root or _default_root()

    def key(self, kind: str, **parts: Any) -> str:
        # The kernel backend is part of every key: reference and
        # vectorized kernels produce results that differ at the last
        # ulp, so their trained artifacts must never cross-pollinate.
        # Both imports are local: repro.runtime.cache builds on this
        # module.
        from ..kernels import active_backend
        from .cache import fingerprint
        return fingerprint(kind, active_backend(), parts)

    def _path(self, kind: str, key: str) -> str:
        return os.path.join(self.root, f"{kind}-{key}.pkl")

    def store(self, kind: str, key: str, payload: Any) -> str:
        """Atomically persist one artifact; returns its path."""
        path = self._path(kind, key)
        write_atomic(path, payload, self.STORE)
        return path

    def load(self, kind: str, key: str) -> Optional[Any]:
        """Fetch an artifact; ``None`` on a miss.  Corrupt entries are
        evicted and read as misses (see :func:`read`)."""
        return read(self._path(kind, key), self.STORE)

    def entries(self) -> List[Dict[str, Any]]:
        return [{"file": name, "kind": name.rsplit("-", 1)[0],
                 "bytes": _size(os.path.join(self.root, name))}
                for name in _listdir(self.root) if name.endswith(".pkl")]

    def info(self) -> Dict[str, Any]:
        entries = self.entries()
        return {
            "root": self.root,
            "entries": len(entries),
            "total_bytes": sum(e["bytes"] for e in entries),
            "by_kind": dict(Counter(e["kind"] for e in entries)),
            "files": entries,
        }

    def clear(self) -> int:
        return _unlink(self.root, [n for n in _listdir(self.root)
                                   if n.endswith((".pkl", ".tmp"))])


# ------------------------------------------------------------------ packs
class ReplayStore:
    """``fingerprint -> result`` entries bucketed into 256 pack files.

    ``pack-<xx>.pkl`` holds every entry whose key starts with ``xx``.  A
    file per entry would cost a warm 10^4-scenario sweep 10^4 opens and
    unpickles; packs cost at most 256 reads, and a batch insert rewrites
    each touched pack once.
    """

    STORE = "scenario_store"

    def __init__(self, root: Optional[str] = None):
        self.root = root or os.path.join(_default_root(), "scenarios")

    def _pack(self, bucket: str) -> str:
        return os.path.join(self.root, f"pack-{bucket}.pkl")

    def _entries(self, bucket: str) -> Dict[str, Any]:
        return read(self._pack(bucket), self.STORE) or {}

    def _packs(self) -> List[str]:
        return [n for n in _listdir(self.root)
                if n.startswith("pack-") and n.endswith(".pkl")]

    def lookup(self, keys: Iterable[str]) -> Dict[str, Any]:
        """Batch fetch: ``{key: payload}`` for every key present.

        Reads each referenced pack once, however many keys land in it.
        """
        by_bucket: Dict[str, List[str]] = {}
        for key in set(keys):
            by_bucket.setdefault(key[:2], []).append(key)
        found: Dict[str, Any] = {}
        for bucket, bucket_keys in sorted(by_bucket.items()):
            entries = self._entries(bucket)
            found.update((k, entries[k]) for k in bucket_keys
                         if k in entries)
        return found

    def insert(self, entries: Dict[str, Any]) -> None:
        """Batch upsert; each touched pack is read, merged and replaced
        once.

        Last writer wins per pack under concurrency.  That is safe
        because entries are content-addressed: two writers racing on one
        key write identical results, and a lost sibling entry only costs
        a future recompute.
        """
        by_bucket: Dict[str, Dict[str, Any]] = {}
        for key, payload in entries.items():
            by_bucket.setdefault(key[:2], {})[key] = payload
        for bucket, bucket_entries in sorted(by_bucket.items()):
            merged = self._entries(bucket)
            merged.update(bucket_entries)
            write_atomic(self._pack(bucket), merged, self.STORE)

    def info(self) -> Dict[str, Any]:
        packs = self._packs()
        total_bytes = sum(_size(os.path.join(self.root, n)) for n in packs)
        return {"root": self.root, "packs": len(packs),
                "entries": sum(len(self._entries(n[5:-4])) for n in packs),
                "total_bytes": total_bytes}

    def clear(self) -> int:
        return _unlink(self.root, self._packs() + [
            n for n in _listdir(self.root) if n.endswith(".tmp")])


# ------------------------------------------------------------------- jobs
class JobHandle:
    """One job's directory: append-only event log, checkpoint, result.

    ``events.jsonl`` holds one JSON record per append; ``checkpoint.pkl``
    the resumable state, replaced whole; ``result.json`` the final
    payload, and a readable result is what marks the job ``done``.
    """

    def __init__(self, root: str, kind: str, job_id: str):
        self.kind = kind
        self.job_id = job_id
        self.dir = os.path.join(root, f"{kind}-{job_id}")
        self.events_path = os.path.join(self.dir, "events.jsonl")
        self.checkpoint_path = os.path.join(self.dir, "checkpoint.pkl")
        self.result_path = os.path.join(self.dir, "result.json")

    def append_event(self, record: Dict[str, Any]) -> None:
        """Append one JSON record in a single ``O_APPEND`` write, so
        concurrent writers interleave whole records, never bytes."""
        os.makedirs(self.dir, exist_ok=True)
        line = (json.dumps(record, sort_keys=True, default=str)
                + "\n").encode()
        fd = os.open(self.events_path,
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)
        _count_write(JobStore.STORE, len(line))

    def events(self) -> List[Dict[str, Any]]:
        """All complete event records (a torn final line is skipped)."""
        out: List[Dict[str, Any]] = []
        try:
            with open(self.events_path) as f:
                for line in f:
                    try:
                        out.append(json.loads(line))
                    except json.JSONDecodeError:
                        # A crash mid-append can leave one torn tail
                        # line; everything before it is intact.
                        break
        except FileNotFoundError:
            pass
        return out

    def checkpoint(self, state: Any) -> str:
        """Atomically persist the resumable state; returns its path."""
        write_atomic(self.checkpoint_path, state, JobStore.STORE)
        return self.checkpoint_path

    def load_checkpoint(self) -> Optional[Any]:
        """The last checkpoint, or ``None``.  A corrupt one is evicted:
        a resume can only lose progress, never correctness."""
        return read(self.checkpoint_path, JobStore.STORE)

    def finish(self, result: Dict[str, Any]) -> str:
        """Atomically record the final result; marks the job done."""
        write_atomic(self.result_path, result, JobStore.STORE, _json)
        return self.result_path

    def result(self) -> Optional[Dict[str, Any]]:
        return read(self.result_path, JobStore.STORE, json.load)

    def status(self) -> str:
        """``done`` | ``running`` (has state) | ``pending`` (empty)."""
        if self.result() is not None:
            return "done"
        if (os.path.exists(self.checkpoint_path)
                or os.path.exists(self.events_path)):
            return "running"
        return "pending"


class JobStore:
    """Directory of content-addressed :class:`JobHandle` entries."""

    STORE = "job_store"

    def __init__(self, root: Optional[str] = None):
        self.root = root or os.path.join(_default_root(), "jobs")

    def job_id(self, kind: str, *parts: Any) -> str:
        """Content-addressed id over the run's full input closure."""
        from .cache import fingerprint  # local: cache builds on this module
        return fingerprint(kind, *parts)

    def open_job(self, kind: str, *parts: Any) -> JobHandle:
        """Handle for the job identified by ``(kind, parts)``.

        Purely addressing: nothing touches disk until the first event,
        checkpoint, or result write.
        """
        return JobHandle(self.root, kind, self.job_id(kind, *parts))

    def _handles(self) -> List[JobHandle]:
        handles = []
        for name in _listdir(self.root):
            match = _JOB_DIR.fullmatch(name)
            if match and os.path.isdir(os.path.join(self.root, name)):
                handles.append(JobHandle(self.root, *match.groups()))
        return handles

    def jobs(self) -> List[Dict[str, Any]]:
        """Summaries of every job directory under the store root."""
        return [{"kind": h.kind, "job_id": h.job_id, "status": h.status(),
                 "events": len(h.events()),
                 "bytes": sum(_size(os.path.join(h.dir, n))
                              for n in _listdir(h.dir))}
                for h in self._handles()]

    def info(self) -> Dict[str, Any]:
        jobs = self.jobs()
        return {"root": self.root, "entries": len(jobs),
                "total_bytes": sum(job["bytes"] for job in jobs),
                "by_status": dict(Counter(job["status"] for job in jobs))}

    def clear(self) -> int:
        """Delete every job directory; returns the number removed."""
        handles = self._handles()
        for handle in handles:
            shutil.rmtree(handle.dir, ignore_errors=True)
        return len(handles)
