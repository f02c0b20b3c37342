"""Replica side of the fleet: a thin driver of one :class:`MicroBatcher`.

A replica is the fleet's unit of parallelism: a process (or, for
deterministic tests, a thread) that owns one model instance and serves
the requests the router sends it through a
:class:`repro.serve.MicroBatcher`, so the fleet and a single
:class:`~repro.serve.BatchedService` share one coalescing policy (flush
on a full batch or on the oldest request's ``max_wait_ms`` deadline).

The loop takes *queue-like* objects (``get``/``get_nowait``/``put``),
so the same code runs in a child **process** over ``multiprocessing``
queues and in an in-process **thread** over ``queue.Queue``.  Payloads
and results ride the messages themselves.

Failure containment is :meth:`MicroBatcher.run_batch`'s: a batch runner
exception resolves every request in the batch with the error, and the
replica ships it back with the replica-side formatted traceback, so a
replica crash in CI is diagnosable from the router's logs alone,
instead of dying.  A non-batch fatal error (bad spec, a runner factory
that raises) emits a ``("fatal", ...)`` message with the traceback and
exits.

Message protocol:

================================  ======================================
router -> replica                 meaning
================================  ======================================
``("req", seq, payload)``         one request
``("stop",)``                     drain and exit
================================  ======================================

=====================================================  =================
replica -> router                                      meaning
=====================================================  =================
``("ready", index)``                                   model built
``("res", index, service_s, [(seq, result, error),``   one finished
``...])``                                              batch
``("bye", index, stats, obs_delta)``                   clean shutdown
``("fatal", index, traceback_text)``                   replica died
=====================================================  =================
"""

from __future__ import annotations

import queue as queue_module
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, List

from ..obs.registry import MetricsRegistry, get_registry, use_registry
from ..serve.scheduler import BatcherConfig, MicroBatcher, ServeTicket

__all__ = ["ReplicaSpec", "replica_loop", "replica_main"]

# (replica_index, replica_seed) -> batch runner
RunnerFactory = Callable[[int, int], Callable[[List[Any]], Any]]


@dataclass(frozen=True)
class ReplicaSpec:
    """Everything a replica process needs to build its service.

    ``runner_factory`` must be a picklable (module-level) callable so
    the spec can cross a process boundary on spawn-start platforms; it
    receives the replica index and a per-replica seed derived with
    :func:`repro.runtime.spawn_seeds`.  Replicas that must stay
    numerically interchangeable (the equivalence contract of the fleet
    bench) should key their weights off a seed carried *inside* the
    factory and ignore the per-replica one.
    """

    runner_factory: RunnerFactory
    batch: BatcherConfig = field(default_factory=BatcherConfig)
    seed: int = 0


def replica_loop(index: int, spec: ReplicaSpec, seed: int,
                 request_q, response_q) -> dict:
    """Serve until a ``("stop",)`` sentinel arrives; returns stats.

    Raises nothing for batch-level failures (those are routed back per
    request with tracebacks); construction failures propagate to the
    caller (:func:`replica_main` turns them into ``("fatal", ...)``).
    """
    runner = spec.runner_factory(index, seed)
    name = f"fleet.r{index}"
    # Tickets carry (seq, payload); the runner sees the payloads only.
    batcher = MicroBatcher(lambda items: runner([p for _, p in items]),
                           spec.batch, name=name)
    obs = get_registry()
    errors = 0
    response_q.put(("ready", index))

    def run(batch: List[ServeTicket]) -> None:
        nonlocal errors
        t0 = time.perf_counter()
        batcher.run_batch(batch)
        service_s = time.perf_counter() - t0
        rows = []
        for ticket in batch:
            seq = ticket.item[0]
            try:
                rows.append((seq, ticket.result(), None))
            except BaseException as exc:  # the runner's, stored by run_batch
                errors += 1
                trace = "".join(traceback.format_exception(
                    type(exc), exc, exc.__traceback__))
                rows.append((seq, None,
                             f"replica {index} batch runner failed:\n{trace}"))
        obs.histogram(f"{name}.service_s").observe(service_s)
        response_q.put(("res", index, service_s, rows))

    stopping = False
    while not stopping:
        deadline = batcher.next_deadline()
        try:
            message = (request_q.get() if deadline is None else
                       request_q.get(timeout=max(
                           0.0, deadline - batcher.clock.now())))
        except queue_module.Empty:
            message = None
        # Greedy drain: fill the batch from what is already queued.
        while message is not None:
            if message[0] == "stop":
                stopping = True
                break
            batcher.submit(message[1:])
            if batcher.pending >= batcher.config.max_batch_size:
                break
            try:
                message = request_q.get_nowait()
            except queue_module.Empty:
                message = None
        while batcher.ready():
            run(batcher.take_batch())
    while batcher.pending:
        run(batcher.take_batch())
    return {"requests": batcher.request_count,
            "batches": batcher.batch_count, "errors": errors}


def replica_main(index: int, spec: ReplicaSpec, seed: int,
                 request_q, response_q, capture_obs: bool = False) -> None:
    """Process/thread entry point: serve, then report.

    ``capture_obs`` runs the loop under a private registry and ships
    the counter/gauge/histogram deltas back in the ``bye`` message for
    submission-order merge in the router — the same telemetry contract
    as :class:`repro.runtime.WorkerPool` workers.
    """
    try:
        if capture_obs:
            registry = MetricsRegistry()
            with use_registry(registry):
                stats = replica_loop(index, spec, seed, request_q,
                                     response_q)
            delta = registry.worker_snapshot()
        else:
            stats = replica_loop(index, spec, seed, request_q, response_q)
            delta = None
        response_q.put(("bye", index, stats, delta))
    except BaseException:
        response_q.put(("fatal", index, traceback.format_exc()))
