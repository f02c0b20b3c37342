"""The serving fleet: sharded :class:`MicroBatcher` replicas behind a
staleness-aware router.

:class:`ServingFleet` is the process fabric around the deterministic
:class:`~repro.fleet.scheduler.FleetScheduler` core: it spawns one
replica per shard (each a :class:`~repro.serve.MicroBatcher` owning a
private model instance), sends each request with its payload over the
replica's request queue, and runs a collector thread that routes
finished batches back to the blocked submitters while feeding
completions into the scheduler's delay model.

Request lifecycle::

    submit() -> scheduler.assign()      (route / downgrade / shed)
             -> ("req", seq, payload) on the replica's queue
    replica  -> micro-batches, answers on the shared response queue
    collector-> records completion + latency, resolves the caller's
                ticket

Every admitted request ends in exactly one scheduler outcome:
``completed`` (answered, possibly with a batch runner's error),
``failed`` (its replica died first), ``shed`` or ``downgraded``.

Shedding surfaces as :class:`RequestShed` — a subclass of
:class:`repro.serve.ServiceOverloaded`, because it is the same
reject-over-queue contract one level up — with the reason
(``"stale"`` or ``"overload"``) attached.  Downgrades run the
registered ``fallback`` callable synchronously in the submitting
thread: the request is still answered, just by the cheap method, and
counted under ``fleet.downgraded``.

Two execution shapes share every line of routing and replica code:

* ``inprocess=False`` (default) — replicas are OS processes over
  ``multiprocessing`` queues, and replica telemetry deltas are merged
  back in replica-index order on close, exactly like
  :class:`repro.runtime.WorkerPool` workers.
* ``inprocess=True`` — replicas are threads over ``queue.Queue``, for
  deterministic tests and hosts without ``multiprocessing``.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import threading
import time
from typing import Any, Callable, Dict, Optional, Sequence

from ..obs.registry import get_registry
from ..runtime.seeding import spawn_seeds
from ..serve.scheduler import ServeTicket, ServiceOverloaded
from .replica import ReplicaSpec, replica_main
from .scheduler import FleetConfig, FleetScheduler, SLOLane

__all__ = ["RequestShed", "FleetReplicaError", "ServingFleet"]


class RequestShed(ServiceOverloaded):
    """The router refused to queue a request.

    ``reason`` is ``"stale"`` (projected queue delay would exceed the
    request's staleness budget — the observation would be too old to
    act on by the time it was served) or ``"overload"`` (every eligible
    replica is at its hard in-flight cap).
    """

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


class FleetReplicaError(RuntimeError):
    """A replica-side failure, carrying the replica's traceback text."""


class _ReplicaHandle:
    """Router-side bookkeeping for one replica."""

    __slots__ = ("index", "request_q", "worker", "ready", "bye", "stats",
                 "obs_delta", "inflight")

    def __init__(self, index: int, request_q):
        self.index = index
        self.request_q = request_q
        self.worker = None
        self.ready = threading.Event()
        self.bye = threading.Event()
        self.stats: Optional[dict] = None
        self.obs_delta: Optional[dict] = None
        self.inflight: Dict[int, ServeTicket] = {}  # seq -> ticket


class ServingFleet:
    """Sharded multi-replica serving front-end (see module docstring).

    Parameters
    ----------
    spec:
        What each replica serves (:class:`ReplicaSpec`: picklable
        runner factory + :class:`BatcherConfig` + base seed).  Its
        ``batch.max_queue_depth`` must be at least
        ``config.max_queue_depth``, so a replica's batcher never sheds
        what the router admitted.
    config:
        Fleet sizing/admission knobs (:class:`FleetConfig`).
    lanes:
        SLO lanes; defaults to
        :data:`repro.fleet.scheduler.DEFAULT_LANES`.
    fallback:
        ``payload -> result`` degraded-mode method for downgradable
        lanes.  ``None`` turns would-be downgrades into sheds.
    inprocess:
        Thread replicas instead of processes (deterministic tests,
        restricted hosts).
    """

    def __init__(self, spec: ReplicaSpec,
                 config: Optional[FleetConfig] = None,
                 lanes: Optional[Sequence[SLOLane]] = None,
                 fallback: Optional[Callable[[Any], Any]] = None,
                 inprocess: bool = False, name: str = "fleet",
                 ready_timeout_s: float = 120.0):
        self.spec = spec
        self.config = config or FleetConfig()
        if spec.batch.max_queue_depth < self.config.max_queue_depth:
            raise ValueError(
                f"replica max_queue_depth {spec.batch.max_queue_depth} is "
                f"below the fleet's in-flight cap "
                f"{self.config.max_queue_depth}: replicas would shed "
                "admitted requests")
        self.fallback = fallback
        self.inprocess = inprocess
        self.name = name
        self.scheduler = FleetScheduler(self.config, lanes, name=name)
        self._lock = threading.Lock()
        self._closed = False
        self._seq = 0
        # Thread replicas already record into the active registry.
        self._capture_obs = not inprocess and bool(
            getattr(get_registry(), "enabled", False))
        self._fatal: Dict[int, str] = {}

        seeds = spawn_seeds(spec.seed, self.config.replicas)
        if inprocess:
            self._response_q = queue_module.Queue()
            make_request_q = queue_module.Queue
        else:
            self._mp = multiprocessing.get_context()
            self._response_q = self._mp.Queue()
            make_request_q = self._mp.Queue
        self._replicas = [_ReplicaHandle(index, make_request_q())
                          for index in range(self.config.replicas)]

        get_registry().gauge(f"{name}.replicas").set(self.config.replicas)
        self._collector = threading.Thread(
            target=self._collect, name=f"{name}-collector", daemon=True)
        self._collector.start()
        try:
            self._start_replicas(seeds)
            self._wait_ready(ready_timeout_s)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------ startup
    def _start_replicas(self, seeds: Sequence[int]) -> None:
        make_worker = (threading.Thread if self.inprocess
                       else self._mp.Process)
        for handle, seed in zip(self._replicas, seeds):
            worker = make_worker(
                target=replica_main,
                args=(handle.index, self.spec, seed, handle.request_q,
                      self._response_q),
                kwargs={"capture_obs": self._capture_obs},
                name=f"{self.name}-r{handle.index}", daemon=True)
            handle.worker = worker
            worker.start()

    def _wait_ready(self, timeout_s: float) -> None:
        deadline = time.perf_counter() + timeout_s
        for handle in self._replicas:
            remaining = deadline - time.perf_counter()
            if not handle.ready.wait(max(0.1, remaining)):
                raise RuntimeError(
                    f"{self.name}: replica {handle.index} not ready within "
                    f"{timeout_s:.0f}s"
                    + (f"\n{self._fatal[handle.index]}"
                       if handle.index in self._fatal else ""))
            if handle.index in self._fatal:
                raise FleetReplicaError(self._fatal[handle.index])

    # ------------------------------------------------------------ clients
    def submit_async(self, payload: Any, key: Optional[str] = None,
                     lane: str = "default",
                     staleness_budget_ms: Optional[float] = None
                     ) -> ServeTicket:
        """Admit one request; returns a ticket (or raises
        :class:`RequestShed`).  Downgraded requests are resolved before
        this returns — by the fallback method, in the calling thread."""
        now = time.perf_counter()
        ticket = ServeTicket(payload, now)
        with self._lock:
            if self._closed:
                raise RuntimeError(f"{self.name} is closed")
            decision = self.scheduler.assign(
                key if key is not None else "",
                lane=lane, staleness_budget_ms=staleness_budget_ms,
                enqueue_t=now, can_downgrade=self.fallback is not None)
            if decision.action == "shed":
                raise RequestShed(
                    f"{self.name}: shed ({decision.reason}; projected "
                    f"wait {decision.projected_wait_s * 1e3:.1f}ms)",
                    decision.reason)
            if decision.action == "dispatch":
                handle = self._replicas[decision.replica]
                if handle.index in self._fatal:
                    self.scheduler.record_failure()
                    raise FleetReplicaError(self._fatal[handle.index])
                self._seq += 1
                handle.inflight[self._seq] = ticket
                self.scheduler.record_dispatch(handle.index)
                message = ("req", self._seq, payload)
        if decision.action == "downgrade":
            self._run_fallback(ticket, payload)
            return ticket
        handle.request_q.put(message)
        return ticket

    def submit(self, payload: Any, key: Optional[str] = None,
               lane: str = "default",
               staleness_budget_ms: Optional[float] = None,
               timeout: Optional[float] = None) -> Any:
        """Blocking submit: route, wait for the batched result."""
        ticket = self.submit_async(payload, key=key, lane=lane,
                                   staleness_budget_ms=staleness_budget_ms)
        if not ticket.event.wait(timeout):
            raise TimeoutError(f"{self.name}: no result within {timeout}s")
        return ticket.result()

    def _run_fallback(self, ticket: ServeTicket, payload: Any) -> None:
        t0 = time.perf_counter()
        try:
            result = self.fallback(payload)
        except BaseException as exc:
            ticket._resolve(error=exc)
            return
        self.scheduler.record_latency(time.perf_counter() - t0,
                                      downgraded=True)
        ticket._resolve(result=result)

    # ---------------------------------------------------------- collector
    def _collect(self) -> None:
        while True:
            try:
                message = self._response_q.get(timeout=0.2)
            except queue_module.Empty:
                if self._closed and all(h.bye.is_set()
                                        for h in self._replicas):
                    return
                self._check_workers()
                continue
            kind = message[0]
            if kind == "ready":
                self._replicas[message[1]].ready.set()
            elif kind == "res":
                self._handle_batch(message[1], message[2], message[3])
            elif kind == "bye":
                _, index, stats, delta = message
                handle = self._replicas[index]
                handle.stats = stats
                handle.obs_delta = delta
                handle.bye.set()
            elif kind == "fatal":
                self._handle_fatal(message[1], message[2])

    def _handle_batch(self, index: int, service_s: float, rows) -> None:
        handle = self._replicas[index]
        now = time.perf_counter()
        with self._lock:
            self.scheduler.record_completion(index, service_s, len(rows))
            for seq, result, error in rows:
                ticket = handle.inflight.pop(seq, None)
                if ticket is None:
                    continue
                if error is not None:
                    ticket._resolve(error=FleetReplicaError(error))
                else:
                    self.scheduler.record_latency(now - ticket.enqueue_t)
                    ticket._resolve(result=result)

    def _handle_fatal(self, index: int, tb_text: str) -> None:
        self._fatal[index] = tb_text
        handle = self._replicas[index]
        handle.ready.set()
        handle.bye.set()
        error = FleetReplicaError(
            f"{self.name}: replica {index} died:\n{tb_text}")
        with self._lock:
            self.scheduler.record_failure(index, len(handle.inflight))
            for ticket in handle.inflight.values():
                ticket._resolve(error=error)
            handle.inflight.clear()
        get_registry().counter(f"{self.name}.replica_failures").inc()

    def _check_workers(self) -> None:
        if self.inprocess:
            return
        for handle in self._replicas:
            worker = handle.worker
            if (worker is not None and not handle.bye.is_set()
                    and not worker.is_alive() and handle.inflight):
                self._handle_fatal(
                    handle.index,
                    f"replica process exited with code {worker.exitcode} "
                    "without reporting")

    # ---------------------------------------------------------- reporting
    def stats(self) -> dict:
        """Router + replica accounting (replica stats complete after
        :meth:`close`)."""
        with self._lock:
            snapshot = self.scheduler.snapshot()
        return {
            "scheduler": snapshot,
            "inprocess": self.inprocess,
            "replicas": {h.index: h.stats for h in self._replicas
                         if h.stats is not None},
        }

    # ---------------------------------------------------------- lifecycle
    def close(self, timeout_s: float = 30.0) -> None:
        """Stop accepting work, drain replicas, merge telemetry, tear
        down processes.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for handle in self._replicas:
            try:
                handle.request_q.put(("stop",))
            except Exception:  # pragma: no cover - queue already broken
                pass
        deadline = time.perf_counter() + timeout_s
        for handle in self._replicas:
            handle.bye.wait(max(0.1, deadline - time.perf_counter()))
        if self._collector.is_alive():
            self._collector.join(max(0.5, deadline - time.perf_counter()))
        # Telemetry deltas merge in replica-index order — deterministic,
        # like WorkerPool's submission-order merge.
        registry = get_registry()
        if getattr(registry, "enabled", False):
            for handle in self._replicas:
                if handle.obs_delta is not None:
                    registry.merge_worker_snapshot(handle.obs_delta)
        for handle in self._replicas:
            worker = handle.worker
            if worker is None:
                continue
            if self.inprocess:
                worker.join(1.0)
            else:
                worker.join(max(0.1, deadline - time.perf_counter()))
                if worker.is_alive():  # pragma: no cover - stuck replica
                    worker.terminate()
                    worker.join(1.0)

    def __enter__(self) -> "ServingFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
