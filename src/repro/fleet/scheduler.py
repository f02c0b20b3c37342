"""Fleet front-end scheduling: routing, SLO lanes, staleness admission.

The router's policy brain, split out of the process machinery exactly
the way :class:`repro.serve.MicroBatcher` is split out of
:class:`repro.serve.BatchedService`: :class:`FleetScheduler` is a pure,
clock-injected state machine, so every routing and shedding decision is
an exact function of recorded dispatches/completions and the injected
:class:`~repro.core.clock.Clock` — drive it with a
:class:`~repro.core.clock.VirtualClock` and the policy is unit-testable
without processes, threads, or sleeps.

Three policy layers, applied per request in this order:

1. **Placement** — consistent hashing over replica ids (SHA-256 ring
   with virtual nodes) keeps a client's requests on one replica so its
   micro-batches stay warm; when the primary's queue is ``spill_depth``
   deep the request spills to the least-loaded replica instead.
2. **Staleness admission** — the paper's Sec. II argument made
   operational: a stale observation served on time beats a fresh one
   served late, so a request that *cannot* be served inside its
   declared staleness budget is not queued at all.  The projected queue
   delay (per-replica EMA of service time x queue depth, plus the
   request's current age) is compared against the budget: over budget
   means **shed** (reject now, let the loop use its previous estimate)
   or — for lanes that allow it — **downgrade** (serve through a cheap
   fallback method instead, e.g. SPSA likelihood regret in place of
   exact).  Priority-0 lanes get one escape hatch: retry the projection
   on the least-loaded replica before giving up.
3. **Backpressure** — a hard per-replica in-flight cap
   (``max_queue_depth``) sheds with reason ``"overload"`` once every
   replica is full.

Everything is accounted twice: local counters/histograms on the
scheduler (exact, available with telemetry disabled) and ``fleet.*``
instruments on the active :mod:`repro.obs` registry.  Once every
request has an outcome, ``requests == completed + failed + shed +
downgraded``.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.clock import Clock, SystemClock
from ..obs.registry import Histogram, get_registry

__all__ = ["SLOLane", "DEFAULT_LANES", "FleetConfig", "Decision",
           "ConsistentHashRing", "FleetScheduler"]


@dataclass(frozen=True)
class SLOLane:
    """One tenant class: its priority and latency/staleness contract.

    priority:
        0 is the most important.  Priority-0 requests whose primary
        replica cannot meet their budget are retried against the
        least-loaded replica before being shed.
    latency_budget_ms:
        The end-to-end target the tenant signed up for (reported, not
        enforced — enforcement is the staleness budget below).
    staleness_budget_ms:
        Default per-request staleness budget: the longest a request may
        wait in queue before its observation is too stale to act on.
        Individual requests may override it downward or upward.
    downgradable:
        Whether requests in this lane may be served by the registered
        fallback method when the budget cannot be met (downgrade
        instead of shed).
    """

    name: str
    priority: int = 1
    latency_budget_ms: float = 100.0
    staleness_budget_ms: float = 250.0
    downgradable: bool = False

    def __post_init__(self):
        if self.priority < 0:
            raise ValueError("priority must be >= 0 (0 = most important)")
        if self.staleness_budget_ms <= 0:
            raise ValueError("staleness_budget_ms must be positive")


#: Three lanes cover the paper's loop taxonomy: control-critical loops
#: (tight budget, never approximated silently), standard telemetry, and
#: best-effort analytics that prefer a degraded answer over none.
DEFAULT_LANES: Tuple[SLOLane, ...] = (
    SLOLane("interactive", priority=0, latency_budget_ms=50.0,
            staleness_budget_ms=100.0, downgradable=False),
    SLOLane("default", priority=1, latency_budget_ms=100.0,
            staleness_budget_ms=250.0, downgradable=False),
    SLOLane("besteffort", priority=2, latency_budget_ms=500.0,
            staleness_budget_ms=1000.0, downgradable=True),
)


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-wide sizing and admission knobs.

    replicas:
        Number of replicas, each one :class:`~repro.serve.MicroBatcher`.
    vnodes:
        Virtual nodes per replica on the consistent-hash ring.
    max_queue_depth:
        Hard per-replica in-flight cap.
    spill_depth:
        Queue depth at which a request abandons its hash-affine primary
        for the least-loaded replica.
    ema_alpha:
        Weight of the newest per-request service-time sample in the
        exponential moving average behind delay projection.
    initial_service_s:
        Per-request service-time prior used before a replica has
        reported any completions.
    """

    replicas: int = 2
    vnodes: int = 32
    max_queue_depth: int = 64
    spill_depth: int = 8
    ema_alpha: float = 0.2
    initial_service_s: float = 0.005

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("need at least one replica")
        if self.vnodes < 1:
            raise ValueError("need at least one virtual node per replica")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if not 0.0 < self.ema_alpha <= 1.0:
            raise ValueError("ema_alpha must be in (0, 1]")


@dataclass(frozen=True)
class Decision:
    """Outcome of one admission: where the request goes, or why not.

    action is ``"dispatch"`` (to ``replica``), ``"downgrade"`` (serve
    via the fallback method), or ``"shed"`` (reject).  ``reason`` is
    ``"stale"`` or ``"overload"`` for non-dispatch outcomes, and
    ``projected_wait_s`` is the queue-delay estimate the decision was
    based on.
    """

    action: str
    replica: Optional[int] = None
    reason: str = ""
    projected_wait_s: float = 0.0


class ConsistentHashRing:
    """SHA-256 consistent-hash ring over replica indices.

    ``vnodes`` virtual points per replica smooth the key distribution;
    routing is deterministic across processes and Python versions
    (``hashlib``, not the salted builtin ``hash``).
    """

    def __init__(self, replicas: int, vnodes: int = 32):
        if replicas < 1:
            raise ValueError("need at least one replica")
        points: List[Tuple[int, int]] = []
        for replica in range(replicas):
            for vnode in range(vnodes):
                points.append((self._digest(f"replica:{replica}:{vnode}"),
                               replica))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [r for _, r in points]
        self.replicas = replicas

    @staticmethod
    def _digest(text: str) -> int:
        return int.from_bytes(
            hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")

    def route(self, key: str) -> int:
        """The replica owning ``key``: first ring point at or after its
        hash, wrapping at the top."""
        h = self._digest(str(key))
        index = bisect.bisect_left(self._hashes, h)
        if index == len(self._hashes):
            index = 0
        return self._owners[index]


class FleetScheduler:
    """Deterministic routing/admission core for a replica fleet."""

    def __init__(self, config: Optional[FleetConfig] = None,
                 lanes: Optional[Sequence[SLOLane]] = None,
                 clock: Optional[Clock] = None, name: str = "fleet"):
        self.config = config or FleetConfig()
        self.clock = clock if clock is not None else SystemClock()
        self.name = name
        self.lanes: Dict[str, SLOLane] = {
            lane.name: lane for lane in (lanes or DEFAULT_LANES)}
        self.ring = ConsistentHashRing(self.config.replicas,
                                       self.config.vnodes)
        n = self.config.replicas
        self._depth = [0] * n
        self._ema_service_s = [self.config.initial_service_s] * n
        self.dispatched_per_replica = [0] * n
        # Local accounting mirrors the ``fleet.*`` obs instruments so
        # policy tests and benchmarks work with telemetry disabled.
        self.requests = 0
        self.dispatched = 0
        self.completed = 0
        self.failed = 0
        self.spills = 0
        self.shed_stale = 0
        self.shed_overload = 0
        self.downgraded = 0
        self.request_latency = Histogram(f"{name}.request_latency_s")
        self.downgrade_latency = Histogram(f"{name}.downgrade_latency_s")
        self.service_time = Histogram(f"{name}.replica_service_s")

    # ----------------------------------------------------------- lookups
    @property
    def shed_total(self) -> int:
        return self.shed_stale + self.shed_overload

    def lane(self, name: str) -> SLOLane:
        try:
            return self.lanes[name]
        except KeyError:
            raise ValueError(
                f"unknown SLO lane {name!r}; configured lanes: "
                f"{', '.join(sorted(self.lanes))}") from None

    def depth(self, replica: int) -> int:
        """Requests currently in flight to ``replica``."""
        return self._depth[replica]

    def projected_wait_s(self, replica: int) -> float:
        """Queue-delay estimate: in-flight depth x per-request EMA."""
        return self._depth[replica] * self._ema_service_s[replica]

    def least_loaded(self) -> int:
        """Replica with the smallest projected wait (depth, then index,
        break ties deterministically)."""
        return min(range(self.config.replicas),
                   key=lambda r: (self.projected_wait_s(r),
                                  self._depth[r], r))

    # --------------------------------------------------------- admission
    def assign(self, key: str, lane: str = "default",
               staleness_budget_ms: Optional[float] = None,
               enqueue_t: Optional[float] = None,
               can_downgrade: bool = True) -> Decision:
        """Admit one request: place it, downgrade it, or shed it.

        ``enqueue_t`` is when the underlying observation was taken
        (defaults to now); its age counts against the staleness budget,
        so a request that arrives already stale is shed immediately.
        ``can_downgrade`` is false when no fallback method is
        registered, turning would-be downgrades into sheds.
        """
        obs = get_registry()
        self.requests += 1
        obs.counter(f"{self.name}.requests").inc()
        slo = self.lane(lane)
        budget_s = (slo.staleness_budget_ms if staleness_budget_ms is None
                    else float(staleness_budget_ms)) / 1e3
        now = self.clock.now()
        age_s = 0.0 if enqueue_t is None else max(0.0, now - enqueue_t)
        slack_s = budget_s - age_s

        primary = self.ring.route(key)
        target = primary
        if self._depth[primary] >= self.config.spill_depth:
            alt = self.least_loaded()
            if self.projected_wait_s(alt) < self.projected_wait_s(primary):
                target = alt
                self.spills += 1
                obs.counter(f"{self.name}.spills").inc()

        projected = self.projected_wait_s(target)
        if projected > slack_s:
            # Priority-0 lanes try the least-loaded replica before the
            # request is given up on.
            alt = self.least_loaded()
            if (slo.priority == 0 and alt != target
                    and self.projected_wait_s(alt) <= slack_s):
                target, projected = alt, self.projected_wait_s(alt)
                self.spills += 1
                obs.counter(f"{self.name}.spills").inc()
            elif slo.downgradable and can_downgrade:
                self.downgraded += 1
                obs.counter(f"{self.name}.downgraded").inc()
                return Decision("downgrade", None, "stale", projected)
            else:
                return self._shed("stale", projected, obs)

        if self._depth[target] >= self.config.max_queue_depth:
            alt = self.least_loaded()
            if self._depth[alt] >= self.config.max_queue_depth:
                return self._shed("overload", projected, obs)
            target = alt
            self.spills += 1
            obs.counter(f"{self.name}.spills").inc()
        return Decision("dispatch", target, "", projected)

    def _shed(self, reason: str, projected: float, obs) -> Decision:
        if reason == "stale":
            self.shed_stale += 1
        else:
            self.shed_overload += 1
        obs.counter(f"{self.name}.shed").inc()
        obs.counter(f"{self.name}.shed_{reason}").inc()
        return Decision("shed", None, reason, projected)

    # -------------------------------------------------------- accounting
    def record_dispatch(self, replica: int) -> None:
        """A request was handed to ``replica``'s queue."""
        self._depth[replica] += 1
        self.dispatched += 1
        self.dispatched_per_replica[replica] += 1
        obs = get_registry()
        obs.counter(f"{self.name}.dispatched").inc()
        obs.gauge(f"{self.name}.r{replica}.inflight").set(
            self._depth[replica])

    def record_completion(self, replica: int, service_s: float,
                          batch_size: int) -> None:
        """A batch of ``batch_size`` requests finished on ``replica`` in
        ``service_s`` wall seconds; updates depth and the service EMA."""
        if batch_size < 1:
            return
        self._depth[replica] = max(0, self._depth[replica] - batch_size)
        self.completed += batch_size
        per_request = service_s / batch_size
        alpha = self.config.ema_alpha
        self._ema_service_s[replica] = (
            alpha * per_request + (1.0 - alpha) * self._ema_service_s[replica])
        self.service_time.observe(service_s)
        obs = get_registry()
        obs.counter(f"{self.name}.completed").inc(batch_size)
        obs.gauge(f"{self.name}.r{replica}.inflight").set(
            self._depth[replica])
        obs.histogram(f"{self.name}.replica_service_s").observe(service_s)

    def record_failure(self, replica: Optional[int] = None,
                       count: int = 1) -> None:
        """``count`` admitted requests will never complete: the
        requests in flight to ``replica`` when it died, or (no
        ``replica``) one request routed to a replica already dead."""
        obs = get_registry()
        if replica is not None:
            self._depth[replica] = max(0, self._depth[replica] - count)
            obs.gauge(f"{self.name}.r{replica}.inflight").set(
                self._depth[replica])
        self.failed += count
        obs.counter(f"{self.name}.failed").inc(count)

    def record_latency(self, seconds: float, downgraded: bool = False
                       ) -> None:
        """One request's end-to-end latency (cross-replica histogram)."""
        obs = get_registry()
        if downgraded:
            self.downgrade_latency.observe(seconds)
            obs.histogram(f"{self.name}.downgrade_latency_s").observe(seconds)
        else:
            self.request_latency.observe(seconds)
            obs.histogram(f"{self.name}.request_latency_s").observe(seconds)

    # ---------------------------------------------------------- reporting
    def latency_quantiles(self) -> Dict[str, float]:
        """p50/p95/p99 end-to-end latency over dispatched requests."""
        return self.request_latency.quantiles()

    def snapshot(self) -> dict:
        """JSON-ready view of the scheduler's accounting."""
        return {
            "replicas": self.config.replicas,
            "requests": self.requests,
            "dispatched": self.dispatched,
            "completed": self.completed,
            "failed": self.failed,
            "spills": self.spills,
            "shed": self.shed_total,
            "shed_stale": self.shed_stale,
            "shed_overload": self.shed_overload,
            "downgraded": self.downgraded,
            "queue_depth": list(self._depth),
            "dispatched_per_replica": list(self.dispatched_per_replica),
            "ema_service_s": [round(s, 6) for s in self._ema_service_s],
            "latency_quantiles_s": self.latency_quantiles(),
        }
