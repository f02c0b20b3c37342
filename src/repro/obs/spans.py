"""Structured trace spans with wall-time and energy-ledger deltas.

A :class:`Span` is one timed region; spans opened while another is live
become its children, so a profiled run produces a tree mirroring the
call structure (cycle -> sense/perceive/monitor/act/actuate).  When a
span is given an energy ledger (anything with the ``snapshot()`` /
``delta(since)`` pair of :class:`repro.hardware.energy.EnergyLedger`),
it snapshots the meters on entry and records the per-meter delta on
exit — the paper's "energy per loop stage" accounting for free.  A
ledger with a ``meters()`` tuple reading (an ``EnergyLedger``) is read
through it on entry instead: the same delta, one dict per span.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

__all__ = ["Span", "Tracer", "NOOP_SPAN"]


class Span:
    """One timed (and optionally energy-metered) region of execution."""

    __slots__ = ("name", "attrs", "children", "start_s", "end_s",
                 "energy_mj", "_tracer", "_ledger", "_energy_before")

    def __init__(self, name: str, tracer: "Tracer", ledger=None,
                 attrs: Optional[dict] = None):
        self.name = name
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self.children: List[Span] = []
        self.start_s = 0.0
        self.end_s = 0.0
        self.energy_mj: Optional[Dict[str, float]] = None
        self._tracer = tracer
        self._ledger = ledger
        self._energy_before = None

    # ------------------------------------------------------------ protocol
    def __enter__(self) -> "Span":
        self._tracer._stack.append(self)
        ledger = self._ledger
        if ledger is not None:
            meters = getattr(ledger, "meters", None)
            self._energy_before = (meters() if meters is not None
                                   else ledger.snapshot())
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_s = time.perf_counter()
        if self._ledger is not None:
            self.energy_mj = self._ledger.delta(self._energy_before)
        self._tracer._pop(self)
        return False

    # ----------------------------------------------------------- interface
    @property
    def duration_s(self) -> float:
        return max(self.end_s - self.start_s, 0.0)

    def annotate(self, **attrs) -> "Span":
        """Attach key/value metadata to the span."""
        self.attrs.update(attrs)
        return self

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.energy_mj is not None:
            out["energy_mj"] = dict(self.energy_mj)
        if self.children:
            out["children"] = [c.as_dict() for c in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, {1e3 * self.duration_s:.3f} ms, "
                f"{len(self.children)} children)")


class _NoopSpan:
    """Shared do-nothing span for the disabled path (no allocations)."""

    __slots__ = ()
    name = "noop"
    children: List[Span] = []
    attrs: Dict[str, object] = {}
    duration_s = 0.0
    energy_mj = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attrs) -> "_NoopSpan":
        return self

    def as_dict(self) -> dict:
        return {"name": self.name, "start_s": 0.0, "duration_s": 0.0}


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Maintains the live span stack and the forest of finished roots.

    ``max_spans`` bounds retention: beyond it, spans are still timed
    (callers may read their durations) but no longer attached to the
    tree; ``dropped`` counts them so truncation is never silent.
    """

    def __init__(self, max_spans: int = 20_000):
        self.roots: List[Span] = []
        self.dropped = 0
        self.max_spans = max_spans
        self._stack: List[Span] = []
        self._retained = 0

    # ------------------------------------------------------------ plumbing
    def _pop(self, span: Span) -> None:
        # Tolerate exception-driven unwinding: pop back to this span.
        stack = self._stack
        while stack and stack.pop() is not span:
            pass
        if self._retained >= self.max_spans:
            self.dropped += 1
            return
        self._retained += 1
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
