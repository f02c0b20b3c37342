"""``repro.runtime`` — parallel execution engine and artifact cache.

The scaling layer under every other pillar: deterministic process-pool
fan-out for pure seeded tasks (:class:`WorkerPool`), content-addressed
on-disk memoization of expensive artifacts (:class:`ArtifactCache`), and
explicit per-task seed derivation (:func:`spawn_rngs`).  Federated
rounds (``FLServer.run_round(pool=...)``), the benchmark suite
(``repro bench --workers N``), and the R-MAE/VAE/Koopman pretraining
paths all execute through it; ``repro.obs`` counters and spans record
tasks, per-worker wall time, and cache hits/misses so ``repro profile``
sees the speedup.
"""

from .bench import BENCHES, DEFAULT_BENCHES, GATED, Claim, run_bench, run_suite
from .cache import (
    CACHE_DIR_ENV,
    CACHE_ENV,
    ArtifactCache,
    cache_enabled,
    cached_build,
    cached_fit,
    fingerprint,
    get_cache,
    resolve_cache,
)
from .pool import TaskFailure, WorkerError, WorkerPool, resolve_workers
from .seeding import (
    SEED_AUDIT_MIN,
    SeedCollisionError,
    assert_private_rngs,
    spawn_rngs,
    spawn_seeds,
)

__all__ = [
    "WorkerPool", "TaskFailure", "WorkerError", "resolve_workers",
    "ArtifactCache", "get_cache", "resolve_cache", "cache_enabled",
    "cached_fit", "cached_build", "fingerprint",
    "CACHE_DIR_ENV", "CACHE_ENV",
    "spawn_seeds", "spawn_rngs", "assert_private_rngs",
    "SEED_AUDIT_MIN", "SeedCollisionError",
    "BENCHES", "DEFAULT_BENCHES", "GATED", "Claim", "run_bench",
    "run_suite",
]
