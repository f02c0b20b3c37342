"""Dynamic micro-batching scheduler.

Two layers, split so the batching policy is testable without threads:

* :class:`MicroBatcher` — the deterministic core.  A bounded FIFO of
  :class:`ServeTicket`\\ s plus the coalescing policy: a batch is ready
  when ``max_batch_size`` requests are queued *or* the oldest request
  has waited ``max_wait_ms``.  Entirely clock-driven (inject a
  :class:`repro.core.VirtualClock` and the policy becomes an exact,
  reproducible function of submit/advance calls).
* :class:`BatchedService` — a worker thread around a
  :class:`MicroBatcher`.  Callers block in :meth:`BatchedService.submit`
  while the worker coalesces concurrent requests and runs the batch
  runner.  The model is only ever touched from the worker thread, so
  per-sample implementations need no internal locking.

Backpressure: once ``max_queue_depth`` requests are waiting, further
submissions are *shed* — :class:`ServiceOverloaded` is raised instead of
queueing unboundedly (the reject-over-queue policy of a loop that would
rather drop a stale frame than act on it late).

Result routing is by submission order: ``take_batch`` pops the oldest
``max_batch_size`` tickets and the runner's row ``i`` answers ticket
``i``.  Rows are computed independently by every batched forward path in
this repo, so a request's result does not depend on its batch-mates
(verified by the parity test suite).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from ..core.clock import Clock, SystemClock
from ..obs.registry import Histogram, get_registry

__all__ = ["BatcherConfig", "ServeTicket", "ServiceOverloaded",
           "MicroBatcher", "BatchedService"]

BatchRunner = Callable[[List[Any]], Sequence[Any]]


class ServiceOverloaded(RuntimeError):
    """Raised when a submission is shed because the queue is full."""


@dataclass(frozen=True)
class BatcherConfig:
    """Coalescing and backpressure knobs.

    max_batch_size:
        Flush as soon as this many requests are queued.
    max_wait_ms:
        Flush a partial batch once its oldest request has waited this
        long — the bounded queueing delay traded for throughput.
    max_queue_depth:
        Shed (:class:`ServiceOverloaded`) submissions beyond this many
        waiting requests.
    """

    max_batch_size: int = 8
    max_wait_ms: float = 50.0
    max_queue_depth: int = 64

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.max_queue_depth < self.max_batch_size:
            raise ValueError("max_queue_depth must be >= max_batch_size")


class ServeTicket:
    """One in-flight request: its payload, timing, and eventual result."""

    __slots__ = ("item", "enqueue_t", "event", "_result", "_error", "done")

    def __init__(self, item: Any, enqueue_t: float):
        self.item = item
        self.enqueue_t = enqueue_t
        self.event = threading.Event()
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self.done = False

    def _resolve(self, result: Any = None,
                 error: Optional[BaseException] = None) -> None:
        self._result = result
        self._error = error
        self.done = True
        self.event.set()

    def result(self) -> Any:
        """The routed result; re-raises the runner's error if it failed."""
        if not self.done:
            raise RuntimeError("ticket not resolved yet")
        if self._error is not None:
            raise self._error
        return self._result


class MicroBatcher:
    """Deterministic batching core: queue, coalescing policy, routing.

    Not thread-safe by itself — :class:`BatchedService` serializes
    access; single-threaded tests, virtual-time simulations and
    :mod:`repro.fleet` replicas drive it directly.
    """

    def __init__(self, runner: BatchRunner,
                 config: Optional[BatcherConfig] = None,
                 clock: Optional[Clock] = None, name: str = "serve"):
        self.runner = runner
        self.config = config or BatcherConfig()
        self.clock = clock if clock is not None else SystemClock()
        self.name = name
        self._queue: List[ServeTicket] = []
        # Local histograms so quantiles are available even with the
        # process-wide obs registry disabled; enabled registries get the
        # same observations under the ``serve.*`` names.
        self.request_latency = Histogram(f"{name}.request_latency_s")
        self.queue_wait = Histogram(f"{name}.queue_wait_s")
        self.batch_sizes = Histogram(f"{name}.batch_size")
        self.shed_count = 0
        self.request_count = 0
        self.batch_count = 0

    # ------------------------------------------------------------- queue
    @property
    def pending(self) -> int:
        return len(self._queue)

    def oldest_age_s(self) -> float:
        """Seconds the head request has waited (0 when idle)."""
        if not self._queue:
            return 0.0
        return self.clock.now() - self._queue[0].enqueue_t

    def submit(self, item: Any) -> ServeTicket:
        """Enqueue one request; sheds with :class:`ServiceOverloaded`
        when ``max_queue_depth`` requests are already waiting."""
        obs = get_registry()
        if len(self._queue) >= self.config.max_queue_depth:
            self.shed_count += 1
            obs.counter(f"{self.name}.shed").inc()
            raise ServiceOverloaded(
                f"{self.name}: queue depth {len(self._queue)} at limit "
                f"{self.config.max_queue_depth}")
        ticket = ServeTicket(item, self.clock.now())
        self._queue.append(ticket)
        self.request_count += 1
        obs.counter(f"{self.name}.requests").inc()
        obs.gauge(f"{self.name}.queue_depth").set(len(self._queue))
        return ticket

    # ------------------------------------------------------------ policy
    def ready(self) -> bool:
        """A batch should flush now: full, or the head request's wait
        has reached ``max_wait_ms``."""
        if not self._queue:
            return False
        if len(self._queue) >= self.config.max_batch_size:
            return True
        return self.oldest_age_s() >= self.config.max_wait_ms / 1000.0

    def next_deadline(self) -> Optional[float]:
        """Clock time at which the head request must flush; None when
        the queue is empty."""
        if not self._queue:
            return None
        return self._queue[0].enqueue_t + self.config.max_wait_ms / 1000.0

    def take_batch(self) -> List[ServeTicket]:
        """Pop up to ``max_batch_size`` tickets in submission order."""
        batch = self._queue[: self.config.max_batch_size]
        del self._queue[: len(batch)]
        obs = get_registry()
        obs.gauge(f"{self.name}.queue_depth").set(len(self._queue))
        if batch:
            now = self.clock.now()
            self.batch_sizes.observe(len(batch))
            obs.histogram(f"{self.name}.batch_size").observe(len(batch))
            for t in batch:
                self.queue_wait.observe(now - t.enqueue_t)
                obs.histogram(f"{self.name}.queue_wait_s").observe(
                    now - t.enqueue_t)
        return batch

    def run_batch(self, batch: List[ServeTicket]) -> None:
        """Run the batch runner and route row ``i`` to ticket ``i``.

        A runner exception (or a row-count mismatch) resolves every
        ticket in the batch with the error instead of killing the
        caller's worker loop.
        """
        if not batch:
            return
        obs = get_registry()
        try:
            results = self.runner([t.item for t in batch])
            if len(results) != len(batch):
                raise RuntimeError(
                    f"{self.name}: runner returned {len(results)} results "
                    f"for a batch of {len(batch)}")
        except BaseException as exc:  # routed, not swallowed
            for t in batch:
                t._resolve(error=exc)
        else:
            for t, r in zip(batch, results):
                t._resolve(result=r)
        self.batch_count += 1
        obs.counter(f"{self.name}.batches").inc()
        now = self.clock.now()
        for t in batch:
            self.request_latency.observe(now - t.enqueue_t)
            obs.histogram(f"{self.name}.request_latency_s").observe(
                now - t.enqueue_t)

    def poll(self) -> int:
        """Flush one batch if the policy says so; returns its size."""
        if not self.ready():
            return 0
        batch = self.take_batch()
        self.run_batch(batch)
        return len(batch)

    def flush(self) -> int:
        """Drain the whole queue regardless of deadlines (shutdown)."""
        drained = 0
        while self._queue:
            batch = self.take_batch()
            self.run_batch(batch)
            drained += len(batch)
        return drained

    def latency_quantiles(self) -> dict:
        """p50/p95/p99 request latency (seconds) over completed work."""
        return self.request_latency.quantiles()


class BatchedService:
    """Threaded micro-batching front-end over a batch runner.

    One daemon worker owns the model: it sleeps until a request arrives,
    coalesces up to ``max_batch_size`` concurrent requests (waiting at
    most ``max_wait_ms`` past the first), runs the batch, and wakes the
    blocked submitters.  ``submit`` is safe to call from any number of
    threads.
    """

    def __init__(self, runner: BatchRunner,
                 config: Optional[BatcherConfig] = None,
                 name: str = "serve"):
        self.batcher = MicroBatcher(runner, config, name=name)
        self._cond = threading.Condition()
        self._closed = False
        self._worker = threading.Thread(
            target=self._run, name=f"{name}-worker", daemon=True)
        self._worker.start()

    # ----------------------------------------------------------- clients
    def submit(self, item: Any, timeout: Optional[float] = None) -> Any:
        """Block until the batched result for ``item`` is routed back."""
        with self._cond:
            if self._closed:
                raise RuntimeError("service is closed")
            ticket = self.batcher.submit(item)  # may shed
            self._cond.notify_all()
        if not ticket.event.wait(timeout):
            raise TimeoutError(
                f"{self.batcher.name}: no result within {timeout}s")
        return ticket.result()

    # ------------------------------------------------------------ worker
    def _run(self) -> None:
        clock = self.batcher.clock
        while True:
            with self._cond:
                while not self._closed and self.batcher.pending == 0:
                    self._cond.wait()
                if self._closed and self.batcher.pending == 0:
                    return
                # Coalesce: sleep until the batch fills or the head
                # request's deadline passes (closing flushes early).
                while (not self._closed
                       and self.batcher.pending
                       < self.batcher.config.max_batch_size):
                    remaining = self.batcher.next_deadline() - clock.now()
                    if remaining <= 0:
                        break
                    self._cond.wait(timeout=remaining)
                batch = self.batcher.take_batch()
            # Model work happens outside the lock so submitters can keep
            # queueing the next batch while this one computes.
            self.batcher.run_batch(batch)

    # ---------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Stop accepting work, drain the queue, join the worker."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._worker.join()

    def __enter__(self) -> "BatchedService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
