"""Metrics instruments and the registry that owns them.

Three instrument kinds cover the paper's loop-accounting needs
(Sec. II: per-stage latency, energy, staleness, trust):

* :class:`Counter` — monotonically increasing totals (cycles, spikes,
  communication bytes, SPSA iterations);
* :class:`Gauge` — last-value-wins readings (current trust, coverage);
* :class:`Histogram` — streaming distributions with p50/p95/p99 via
  bounded reservoir sampling (cycle latency, stage timings).

A :class:`MetricsRegistry` holds instruments by name and owns a span
:class:`~repro.obs.spans.Tracer`.  The module-level *active registry*
defaults to a no-op implementation whose instruments are shared
singletons doing literally nothing, so instrumented hot paths cost a few
method calls and **zero allocations** per cycle when observability is
disabled — benchmarks stay honest.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .spans import NOOP_SPAN, Span, Tracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NoopRegistry",
    "NOOP_REGISTRY", "get_registry", "set_registry", "enable", "disable",
    "use_registry", "trace_span",
]

DEFAULT_QUANTILES: Tuple[float, float, float] = (0.5, 0.95, 0.99)


class Counter:
    """A float total that only goes up."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only increase")
        self.value += n

    def as_dict(self) -> dict:
        return {"kind": "counter", "name": self.name, "value": self.value}


class Gauge:
    """A last-value-wins reading."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)

    def as_dict(self) -> dict:
        return {"kind": "gauge", "name": self.name, "value": self.value}


class Histogram:
    """Streaming distribution: exact count/sum/min/max plus quantile
    estimates from a bounded reservoir (Vitter's algorithm R).

    For streams no longer than ``reservoir_size`` the quantiles are
    exact; beyond that each seen value has had an equal chance of being
    retained, so sorted-reservoir interpolation is an unbiased estimate.
    A tiny deterministic LCG replaces ``random`` so identical runs give
    identical summaries.
    """

    __slots__ = ("name", "reservoir_size", "count", "total", "min", "max",
                 "_reservoir", "_sorted", "_dirty", "_lcg")

    def __init__(self, name: str, reservoir_size: int = 1024):
        if reservoir_size < 2:
            raise ValueError("reservoir needs at least 2 slots")
        self.name = name
        self.reservoir_size = reservoir_size
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._reservoir: List[float] = []
        self._sorted: List[float] = []
        self._dirty = False
        self._lcg = 0x9E3779B97F4A7C15

    def observe(self, v: float) -> None:
        v = float(v)
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        if len(self._reservoir) < self.reservoir_size:
            self._reservoir.append(v)
        else:
            self._lcg = (self._lcg * 6364136223846793005
                         + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
            j = (self._lcg >> 33) % self.count
            if j < self.reservoir_size:
                self._reservoir[j] = v
        self._dirty = True

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def _ensure_sorted(self) -> List[float]:
        if self._dirty:
            self._sorted = sorted(self._reservoir)
            self._dirty = False
        return self._sorted

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile of the retained sample."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        data = self._ensure_sorted()
        if not data:
            return 0.0
        pos = q * (len(data) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(data) - 1)
        frac = pos - lo
        # Clamp: the convex combination can overshoot data[hi] (or
        # undershoot data[lo]) by an ulp when both endpoints are tiny.
        return min(max(data[lo] * (1.0 - frac) + data[hi] * frac,
                       data[lo]), data[hi])

    def quantiles(self, qs: Sequence[float] = DEFAULT_QUANTILES
                  ) -> Dict[str, float]:
        return {f"p{q * 100:g}": self.quantile(q) for q in qs}

    def raw(self) -> List[float]:
        """The retained sample, in observation order.

        Exact for streams no longer than the reservoir; beyond that it is
        the uniformly retained subset (used to replay worker histograms
        into a parent registry).
        """
        return list(self._reservoir)

    def as_dict(self) -> dict:
        out = {
            "kind": "histogram",
            "name": self.name,
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }
        out.update(self.quantiles())
        return out


# ------------------------------------------------------------- no-op path
class _NoopCounter:
    __slots__ = ()
    name = "noop"
    value = 0.0

    def inc(self, n: float = 1.0) -> None:
        pass

    def as_dict(self) -> dict:
        return {"kind": "counter", "name": self.name, "value": 0.0}


class _NoopGauge:
    __slots__ = ()
    name = "noop"
    value = 0.0

    def set(self, v: float) -> None:
        pass

    def as_dict(self) -> dict:
        return {"kind": "gauge", "name": self.name, "value": 0.0}


class _NoopHistogram:
    __slots__ = ()
    name = "noop"
    count = 0
    total = 0.0
    mean = 0.0
    min = 0.0
    max = 0.0

    def observe(self, v: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def quantiles(self, qs: Sequence[float] = DEFAULT_QUANTILES
                  ) -> Dict[str, float]:
        return {f"p{q * 100:g}": 0.0 for q in qs}

    def as_dict(self) -> dict:
        return {"kind": "histogram", "name": self.name, "count": 0}


_NOOP_COUNTER = _NoopCounter()
_NOOP_GAUGE = _NoopGauge()
_NOOP_HISTOGRAM = _NoopHistogram()


class NoopRegistry:
    """Disabled observability: every accessor returns a shared singleton
    whose mutators do nothing, so the instrumented path allocates
    nothing.  ``trace_span`` yields the shared no-op span."""

    __slots__ = ()
    enabled = False

    def counter(self, name: str) -> _NoopCounter:
        return _NOOP_COUNTER

    def gauge(self, name: str) -> _NoopGauge:
        return _NOOP_GAUGE

    def histogram(self, name: str, reservoir_size: int = 1024
                  ) -> _NoopHistogram:
        return _NOOP_HISTOGRAM

    def trace_span(self, name: str, ledger=None, attrs=None):
        return NOOP_SPAN

    @property
    def spans(self) -> List[Span]:
        return []

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NOOP_REGISTRY = NoopRegistry()


# ------------------------------------------------------------ live registry
class MetricsRegistry:
    """Named instruments plus a span tracer — one observability session.

    Instruments are get-or-create by name; asking twice for the same
    name returns the same object, so modules can fetch instruments in
    hot loops without caching them.
    """

    enabled = True

    def __init__(self, max_spans: int = 20_000):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self.tracer = Tracer(max_spans=max_spans)

    # ----------------------------------------------------------- accessors
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str, reservoir_size: int = 1024) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, reservoir_size)
        return h

    def trace_span(self, name: str, ledger=None,
                   attrs: Optional[dict] = None) -> Span:
        """Open a nestable span; use as a context manager."""
        return Span(name, self.tracer, ledger, attrs)

    # ----------------------------------------------------------- reporting
    @property
    def spans(self) -> List[Span]:
        """Finished root spans, in completion order."""
        return self.tracer.roots

    def instruments(self) -> Iterable[object]:
        yield from self._counters.values()
        yield from self._gauges.values()
        yield from self._histograms.values()

    def snapshot(self) -> dict:
        """All instrument states as one JSON-ready mapping."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.as_dict()
                           for n, h in sorted(self._histograms.items())},
        }

    # ------------------------------------------------- worker aggregation
    def worker_snapshot(self) -> dict:
        """Mergeable delta of this registry (for pool workers).

        Counters/gauges ship their values; histograms ship their retained
        raw samples so the parent can replay observations (exact up to
        the reservoir size).
        """
        return {
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": {n: g.value for n, g in self._gauges.items()},
            "histograms": {n: h.raw() for n, h in self._histograms.items()},
        }

    def merge_worker_snapshot(self, delta: dict) -> None:
        """Fold a worker's :meth:`worker_snapshot` into this registry.

        Deterministic when applied in task submission order: counters
        add, gauges take the delta's value (last submission wins, as in
        a serial run), histogram samples are replayed.
        """
        for name, value in sorted(delta.get("counters", {}).items()):
            self.counter(name).inc(value)
        for name, value in sorted(delta.get("gauges", {}).items()):
            self.gauge(name).set(value)
        for name, values in sorted(delta.get("histograms", {}).items()):
            h = self.histogram(name)
            for v in values:
                h.observe(v)


# -------------------------------------------------------- active registry
_ACTIVE: object = NOOP_REGISTRY


def get_registry():
    """The process-wide active registry (no-op unless enabled)."""
    return _ACTIVE


def set_registry(registry) -> None:
    global _ACTIVE
    _ACTIVE = registry


@contextmanager
def use_registry(registry):
    """Temporarily install ``registry`` as the active one."""
    previous = get_registry()
    set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def trace_span(name: str, ledger=None, attrs: Optional[dict] = None):
    """Open a span on whatever registry is currently active."""
    return _ACTIVE.trace_span(name, ledger=ledger, attrs=attrs)
