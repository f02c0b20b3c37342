"""The binding: where the controller meets the running loop.

:class:`LoopControlBinding` adapts a
:class:`~repro.core.SensingToActionLoop` into context snapshots for a
:class:`~repro.control.controller.Controller`.  The loop accepts it as
its ``controller=`` argument and calls :meth:`~LoopControlBinding.on_cycle`
at the end of every cycle.  Snapshots are stamped from the loop's own
simulated timebase (``loop.t``), never from a clock the binding opens
itself, so virtual-time loops stay fully deterministic.

Signals in each snapshot: ``trust``, ``coverage``, ``staleness_s``,
``rejection_rate``, plus the windowed energy deltas
``energy_window_mj`` / ``energy_sensing_window_mj`` /
``energy_compute_window_mj`` (via ``EnergyLedger.snapshot()/delta()``).
"""

from __future__ import annotations

from typing import List, Optional

from .controller import Controller, Decision
from .signals import ContextSnapshot, EnergyWindow

__all__ = ["LoopControlBinding"]


class LoopControlBinding:
    """Per-cycle reconfiguration of a sensing-to-action loop.

    Pass as ``SensingToActionLoop(..., controller=binding)``; the loop
    calls :meth:`on_cycle` after every completed cycle.  The energy
    window covers exactly the cycle since the previous controller step,
    so energy-driven rules see *rates*, not lifetime totals.

    Snapshots are stamped with ``loop.t`` — the loop's *simulated*
    timebase, which advances by ``period_s`` per cycle — not a clock
    read: rule cooldowns are contracts about loop time ("at most one
    reconfiguration per N cycles"), and loop time is identical across
    virtual- and wall-clock hosts, keeping the decision trace exactly
    reproducible.
    """

    def __init__(self, controller: Controller):
        self.controller = controller
        self._energy: Optional[EnergyWindow] = None

    def on_cycle(self, loop) -> List[Decision]:
        if self._energy is None:
            self._energy = EnergyWindow(loop.metrics.energy)
        window = self._energy.read()
        record = loop.history[-1]
        return self.controller.step(ContextSnapshot(t=loop.t, signals={
            "trust": record.trust,
            "coverage": record.reading.coverage,
            "staleness_s": record.staleness_s,
            "rejection_rate": loop.metrics.rejection_rate,
            "energy_window_mj": window["total_mj"],
            "energy_sensing_window_mj": window["sensing_mj"],
            "energy_compute_window_mj": window["compute_mj"],
        }))
