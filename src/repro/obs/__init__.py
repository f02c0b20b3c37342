"""``repro.obs`` — loop-wide telemetry and profiling.

The paper's thesis is that sensing-to-action loops must be *measured*
end to end — per-stage latency, energy, staleness, trust — before they
can be co-designed (Sec. II, Fig. 1).  This package is that measurement
layer, dependency-free and near-zero-cost when disabled:

* :class:`MetricsRegistry` — named counters, gauges, and streaming
  histograms (p50/p95/p99 via reservoir sampling);
* :func:`trace_span` — nestable context managers building structured
  span trees with wall time and per-meter energy-ledger deltas;
* :func:`~repro.obs.export.export_jsonl` /
  :func:`~repro.obs.export.render_report` — JSONL export and a text
  flamegraph-ish summary.

By default the *active registry* is a shared no-op (:data:`NOOP_REGISTRY`)
whose instruments allocate nothing, so the instrumentation woven through
``repro.core.loop``, ``repro.starnet``, ``repro.generative``,
``repro.neuromorphic``, and ``repro.federated`` costs a few method calls
per cycle until :func:`use_registry` (or ``repro profile ...``)
installs a live :class:`MetricsRegistry`.
"""

from .export import (
    aggregate_spans,
    deterministic_counters,
    export_jsonl,
    read_jsonl,
    registry_payload,
    render_metrics,
    render_report,
    render_span_tree,
)
from .registry import (
    NOOP_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NoopRegistry,
    get_registry,
    set_registry,
    trace_span,
    use_registry,
)
from .spans import NOOP_SPAN, Span, Tracer


def __getattr__(name):
    # Lazy: scenario builds on repro.core, which itself imports
    # repro.obs.registry — a top-level import here would be circular.
    if name == "run_profile_scenario":
        from .scenario import run_profile_scenario
        return run_profile_scenario
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NoopRegistry",
    "NOOP_REGISTRY", "Span", "Tracer", "NOOP_SPAN",
    "get_registry", "set_registry", "use_registry",
    "trace_span",
    "export_jsonl", "read_jsonl", "registry_payload", "aggregate_spans",
    "deterministic_counters",
    "render_span_tree", "render_metrics", "render_report",
    "run_profile_scenario",
]
