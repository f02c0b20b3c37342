"""Content-addressed memoization of expensive recomputation.

Pretraining an R-MAE, fitting a VAE monitor, or fitting Koopman dynamics
is deterministic given (hyper-parameters, training data, initial model
state, RNG state) — yet every benchmark and example recomputes them from
scratch.  :func:`cached_fit` and :func:`cached_build` memoize those
artifacts as blobs of the :class:`~repro.runtime.store.ArtifactCache`:

* **keys** are SHA-256 fingerprints over the *complete* input closure —
  config, data content, initial parameters, and the RNG's bit-generator
  state — so two invocations collide only when training would produce
  bit-identical output anyway;
* on a **hit** the cached *post-training* state of every numpy
  generator reachable from the model is restored into the live
  generator objects, so downstream draws are bit-identical whether the
  artifact was computed or loaded, and generators the model shares with
  its owner stay shared.

:mod:`repro.runtime.store` owns the on-disk side: atomic writes,
corrupt-entry eviction, and the ``REPRO_CACHE_DIR`` root.
``REPRO_CACHE=0`` disables memoization entirely.

The cache keys capture inputs, not code: after editing a training loop,
run ``repro cache clear``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import os
import pickle
from typing import IO, Any, Callable, Dict, List, Optional, Union

import numpy as np

from ..obs.registry import get_registry
from .store import ArtifactCache, read, write_atomic

__all__ = [
    "get_cache", "resolve_cache", "cache_enabled", "cached_fit",
    "cached_build", "fingerprint", "CACHE_ENV", "CACHE_VERSION",
]

CACHE_ENV = "REPRO_CACHE"
# Salt of every fingerprint, and frozen at 3.  A fingerprint is more
# than a cache key: it is the scenario key and the scenario RNG seed
# (Scenario.content_seed), the federated job id and
# weights_fingerprint.  Bumping it would reseed every scenario and move
# the goldens.  A change to what a store writes bumps
# repro.runtime.store.LAYOUT instead.
# v2: entries carry the telemetry counter delta of the elided compute.
# v3: keys include the active kernel backend, so a cache populated
#     under one REPRO_KERNELS setting can never replay its (last-ulp
#     different) trained weights into a run under the other.
CACHE_VERSION = 3

_FALSEY = {"0", "off", "false", "no"}


# ------------------------------------------------------------ fingerprints
def _update_hash(h, obj: Any, seen: set) -> None:
    """Feed one object into the hash, canonically and recursively."""
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        h.update(f"|{type(obj).__name__}:{obj!r}".encode())
    elif isinstance(obj, float):
        h.update(f"|f:{obj.hex()}".encode())
    elif isinstance(obj, np.ndarray):
        h.update(f"|nd:{obj.dtype.str}:{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.generic):
        _update_hash(h, obj.item(), seen)
    elif isinstance(obj, np.random.Generator):
        _update_hash(h, obj.bit_generator.state, seen)
    elif isinstance(obj, dict):
        h.update(b"|d{")
        for key in sorted(obj, key=repr):
            h.update(f"|k:{key!r}".encode())
            _update_hash(h, obj[key], seen)
        h.update(b"}")
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) \
            else list(obj)
        h.update(f"|seq{len(items)}[".encode())
        for item in items:
            _update_hash(h, item, seen)
        h.update(b"]")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(f"|dc:{type(obj).__name__}".encode())
        _update_hash(h, vars(obj), seen)
    else:
        # Arbitrary object (Module, Parameter, VoxelizedCloud, ...): hash
        # its type name and attribute dict.  ``seen`` guards reference
        # cycles; repeated references hash repeatedly, which is fine —
        # traversal order is deterministic for identical structures.
        if id(obj) in seen:
            h.update(b"|cycle")
            return
        seen.add(id(obj))
        h.update(f"|obj:{type(obj).__name__}".encode())
        attrs = getattr(obj, "__dict__", None)
        if attrs is not None:
            _update_hash(h, attrs, seen)
        else:
            slots = getattr(type(obj), "__slots__", ())
            _update_hash(h, {s: getattr(obj, s, None) for s in slots}, seen)
        seen.discard(id(obj))


def fingerprint(*objs: Any) -> str:
    """Deterministic SHA-256 content fingerprint of arbitrary inputs."""
    h = hashlib.sha256()
    h.update(f"v{CACHE_VERSION}".encode())
    for obj in objs:
        _update_hash(h, obj, set())
    return h.hexdigest()[:24]


# -------------------------------------------------------- default policy
def cache_enabled() -> bool:
    return os.environ.get(CACHE_ENV, "1").strip().lower() not in _FALSEY


def get_cache() -> ArtifactCache:
    """A cache at the default (env-controlled) location."""
    return ArtifactCache()


def resolve_cache(cache: Union[None, bool, ArtifactCache]
                  ) -> Optional[ArtifactCache]:
    """Map a user-facing ``cache`` argument onto a cache instance.

    ``None`` follows the environment default (on unless ``REPRO_CACHE``
    is falsey); ``False`` disables; ``True`` forces the default cache;
    an :class:`ArtifactCache` is used as-is.
    """
    if isinstance(cache, ArtifactCache):
        return cache
    if cache is None:
        return get_cache() if cache_enabled() else None
    return get_cache() if cache else None


# ------------------------------------------------------------- memoizers
def _capture_counters(compute: Callable[[], Any]):
    """Run ``compute`` and return ``(result, counter_delta)``.

    The delta covers every non-``runtime.*`` counter the compute
    incremented on the active registry — the deterministic slice of
    telemetry a cache hit would otherwise silently elide.  ``None``
    when observability is disabled (nothing was recorded to replay).
    """
    obs = get_registry()
    if not getattr(obs, "enabled", False):
        return compute(), None
    before = obs.snapshot()["counters"]
    result = compute()
    after = obs.snapshot()["counters"]
    delta = {name: value - before.get(name, 0.0)
             for name, value in after.items()
             if value > before.get(name, 0.0)
             and not name.startswith("runtime.")}
    return result, delta


def _replay_counters(delta: Optional[Dict[str, float]]) -> bool:
    """Re-increment a stored counter delta on the active registry.

    Returns ``False`` when the entry was recorded blind (``delta is
    None``) while the current registry is live — the one case a hit
    would lose telemetry, so the caller must recompute instead.
    """
    obs = get_registry()
    if not getattr(obs, "enabled", False):
        return True
    if delta is None:
        return False
    for name in sorted(delta):
        obs.counter(name).inc(delta[name])
    return True


def _generators(root: Any) -> List[np.random.Generator]:
    """Every numpy generator reachable from ``root``, in pickle's walk
    order, each listed once."""
    found: List[np.random.Generator] = []

    def visit(obj: Any) -> Optional[int]:
        if not isinstance(obj, np.random.Generator):
            return None
        if all(g is not obj for g in found):
            found.append(obj)
        return 0  # any id stops pickle from descending into obj

    walker = pickle.Pickler(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL)
    walker.persistent_id = visit
    walker.dump(root)
    return found


def _generator_codec(generators: List[np.random.Generator]):
    """``(dumps, load)`` for the store that pickle each of ``generators``
    as its index and load that index back as the live object.  Any other
    generator pickles by value."""
    index = {id(g): i for i, g in enumerate(generators)}

    def dumps(record: Any) -> bytes:
        buf = io.BytesIO()
        pickler = pickle.Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.persistent_id = lambda obj: (
            index.get(id(obj)) if isinstance(obj, np.random.Generator)
            else None)
        pickler.dump(record)
        return buf.getvalue()

    def load(f: IO[bytes]) -> Any:
        unpickler = pickle.Unpickler(f)
        unpickler.persistent_load = generators.__getitem__
        return unpickler.load()

    return dumps, load


def cached_fit(kind: str, parts: Dict[str, Any], model: Any,
               rng: Optional[np.random.Generator],
               train: Callable[[], Any],
               cache: Union[None, bool, ArtifactCache] = None) -> Any:
    """Memoize a deterministic in-place model fit.

    The key covers ``parts`` (hyper-parameters + data), the model's
    *initial* state, and the RNG's pre-training state.  On a hit the
    stored post-training model state replaces ``model``'s attributes,
    every generator reachable from ``rng`` or the initial model is
    advanced in place to its stored post-training state, and the
    training run's counter increments are replayed into the active
    registry, so callers cannot observe the difference between
    computing and loading — not even through telemetry (only the
    ``runtime.cache_*`` bookkeeping differs).  Restoring generators in
    place keeps every alias intact: a model that shares its owner's
    generator (STARNet hands its own to its VAE) still shares it after
    a hit.  Returns whatever ``train()`` returned when the artifact was
    built (typically per-epoch losses).
    """
    c = resolve_cache(cache)
    if c is None:
        return train()
    key = c.key(kind, parts=parts, init=fingerprint(vars(model)),
                rng=None if rng is None else rng.bit_generator.state)
    # Walked before training, so a store and a later load of the same
    # key (same initial state) list the same generators in one order.
    generators = _generators((rng, vars(model)))
    dumps, load = _generator_codec(generators)
    path = c._path(kind, key)
    entry = read(path, c.STORE, load)
    # An entry recorded without observability cannot replay into a live
    # registry: recompute so telemetry stays faithful.
    if entry is not None and _replay_counters(entry["obs"]):
        for g, g_state in zip(generators, entry["generator_states"]):
            g.bit_generator.state = g_state
        model.__dict__.clear()
        model.__dict__.update(entry["state"])
        return entry["aux"]
    aux, obs_delta = _capture_counters(train)
    write_atomic(path, {
        "state": dict(vars(model)),
        "aux": aux,
        "generator_states": [g.bit_generator.state for g in generators],
        "obs": obs_delta,
    }, c.STORE, dumps)
    return aux


def cached_build(kind: str, parts: Dict[str, Any],
                 build: Callable[[], Any],
                 cache: Union[None, bool, ArtifactCache] = None) -> Any:
    """Memoize a deterministic pure builder (e.g. dataset generation).

    Unlike :func:`cached_fit` there is no in-place state to restore: the
    builder's return value is stored and returned verbatim (counter
    increments are captured and replayed exactly as in
    :func:`cached_fit`).
    """
    c = resolve_cache(cache)
    if c is None:
        return build()
    key = c.key(kind, parts=parts)
    entry = c.load(kind, key)
    if entry is not None and _replay_counters(entry["obs"]):
        return entry["value"]
    value, obs_delta = _capture_counters(build)
    c.store(kind, key, {"value": value, "obs": obs_delta})
    return value
