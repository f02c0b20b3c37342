"""The monitor's batched runner and its loop-facing wrapper.

A *runner* is what a :class:`repro.serve.BatchedService` worker calls:
``runner(items) -> results`` with row ``i`` answering item ``i``.
:func:`monitor_runner` wraps
:meth:`repro.starnet.monitor.STARNet.assess_batch`; the other pillars'
batched entry points (:meth:`BEVDetector.detect_batch`,
:meth:`RMAE.occupancy_probability_batch`) already have that shape and
go to a :class:`MicroBatcher` as they are.

:class:`BatchedMonitor` implements the :mod:`repro.core` ``Monitor``
protocol, so a :class:`SensingToActionLoop` plugs into a shared batched
service without knowing it is being multiplexed: its ``assess`` call
blocks in ``service.submit`` while the scheduler coalesces it with the
other loops' requests.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..core.components import Monitor, Percept
from .scheduler import BatchedService

__all__ = ["BatchedMonitor", "monitor_runner"]


# ------------------------------------------------------------------ runners
def monitor_runner(monitor) -> Callable[[List[Percept]], Sequence[float]]:
    """Batch runner over a monitor with ``assess_batch`` (STARNet)."""
    def run(percepts: List[Percept]) -> Sequence[float]:
        return [float(t) for t in monitor.assess_batch(percepts)]
    return run


# ----------------------------------------------------------- loop wrappers
class BatchedMonitor(Monitor):
    """A :class:`Monitor` whose assessments run through a shared batched
    service (runner built with :func:`monitor_runner`)."""

    def __init__(self, service: BatchedService,
                 timeout: Optional[float] = None):
        self.service = service
        self.timeout = timeout

    def assess(self, percept: Percept) -> float:
        return float(self.service.submit(percept, timeout=self.timeout))
