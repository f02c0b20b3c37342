"""Context signals: what the controller observes.

A :class:`ContextSnapshot` is one immutable observation of the world at
a controller step — a timestamp (from an *injected* clock, never the
wall) plus named float signals: STARNet trust, coverage, windowed
energy-ledger deltas.  :class:`EnergyWindow` turns the cumulative
:class:`~repro.hardware.energy.EnergyLedger` meters into per-window
readings via the ledger's ``snapshot()``/``delta()`` pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["ContextSnapshot", "EnergyWindow"]


@dataclass(frozen=True)
class ContextSnapshot:
    """One observation the controller steps on.

    ``t`` is seconds on whatever clock the binding injected
    (:class:`~repro.core.VirtualClock` in every test); ``signals`` maps
    signal names to floats.  Missing signals read as ``None`` so rules
    listening for them simply do not fire.
    """

    t: float
    signals: Dict[str, float] = field(default_factory=dict)

    def get(self, name: str) -> Optional[float]:
        value = self.signals.get(name)
        return None if value is None else float(value)

    def as_dict(self) -> Dict[str, float]:
        out = {"t": self.t}
        out.update({k: float(v) for k, v in sorted(self.signals.items())})
        return out


class EnergyWindow:
    """Windowed readings over a cumulative :class:`EnergyLedger`.

    ``read()`` returns per-meter consumption since the previous
    ``read()`` (or construction) and starts the next window — built on
    the ledger's ``snapshot()``/``delta()`` helpers, the same pair
    :mod:`repro.obs` spans use for per-stage energy deltas.
    """

    def __init__(self, ledger):
        self.ledger = ledger
        self._since = ledger.snapshot()

    def peek(self) -> Dict[str, float]:
        """The current window's consumption without closing the window."""
        return self.ledger.delta(self._since)

    def read(self) -> Dict[str, float]:
        """Close the window: consumption since last read, then reset."""
        delta = self.ledger.delta(self._since)
        self._since = self.ledger.snapshot()
        return delta
