"""Asynchronous federated simulation at fleet scale (Sec. VII).

The synchronous :class:`~repro.federated.server.FLServer` round is
priced by its slowest participant: every client — server-class box or
LoRa-attached MCU — must report before the merge.  At 10^3+ clients with
the tier spread of :data:`~repro.federated.heterogeneity.UPLINK_MBPS`
that barrier wastes almost the whole fleet's time.  This module removes
it:

* **Virtual-time event scheduler** — each dispatched client finishes at
  ``now + compute_s + comm_s`` on a
  :class:`~repro.core.clock.VirtualClock`, so a week of fleet time
  simulates in seconds and every timestamp is exact;
* **Staleness-weighted aggregation** — updates merge on arrival with
  weight ``n_samples * decay(versions_behind)``; no update is discarded,
  late ones just count less (:func:`staleness_decay`);
* **Semi-async buffering** — ``buffer_size`` updates merge per server
  step.  With ``sample_fraction=1.0``, ``buffer_size=n_clients`` and
  ``cost_aware=False`` the engine reduces *bit-identically* to
  ``FLServer.run_round``: dispatch order is client order, every
  staleness is zero so ``decay(0) == 1.0`` exactly, and the merge is the
  same :func:`~repro.federated.dcnas.merge_subnetwork` call;
* **Importance-based sampling** — idle clients re-enter w.p. proportional
  to :func:`participation_weights` (cost-aware: cheap-to-reach clients
  participate more, expensive ones *less often but never never*);
* **Persistent orchestration** — wire a
  :class:`~repro.runtime.store.JobStore` through ``run_async`` and
  the run becomes resumable: kill it anywhere and a reconstructed engine
  restores the last checkpoint and finishes in a state bit-identical to
  an uninterrupted run.

Determinism contract: results depend only on the constructor arguments
and seeds — never on worker count.  Client tasks go through the same
:func:`~repro.federated.client.train_client_task` as synchronous rounds,
updates merge in dispatch order within a wave, and per-client RNG
advancement is re-applied in the parent after pooled execution.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.clock import VirtualClock
from ..hardware.energy import mac_energy_pj
from ..obs.registry import get_registry
from ..runtime.seeding import assert_private_rngs
from ..sim.datasets import ClassificationDataset
from .client import FLClient, model_macs_per_sample, train_client_task
from .dcnas import merge_subnetwork, slice_weights
from .heterogeneity import uplink_mbps
from .server import FLServer, payload_bytes

__all__ = ["AsyncFLServer", "DispatchRecord", "DECAY_KINDS",
           "staleness_decay", "participation_weights"]

DECAY_KINDS = ("poly", "exp")


def staleness_decay(staleness: Union[float, Sequence[float], np.ndarray],
                    alpha: float = 0.5, kind: str = "poly"
                    ) -> Union[float, np.ndarray]:
    """Aggregation discount for an update ``staleness`` versions behind.

    ``poly``: ``(1 + s) ** -alpha`` — heavy-tailed, never zero;
    ``exp``: ``exp(-alpha * s)`` — aggressive cutoff for large lags.
    Both are exactly ``1.0`` at ``s == 0`` (fresh updates are never
    discounted, which is what makes the lockstep reduction exact) and
    monotone non-increasing in ``s`` for ``alpha >= 0``.
    """
    if alpha < 0:
        raise ValueError("staleness decay needs alpha >= 0")
    if kind not in DECAY_KINDS:
        raise ValueError(f"unknown decay kind {kind!r}; "
                         f"choose from {DECAY_KINDS}")
    s = np.asarray(staleness, dtype=np.float64)
    if np.any(s < 0):
        raise ValueError("staleness cannot be negative")
    out = (1.0 + s) ** (-alpha) if kind == "poly" else np.exp(-alpha * s)
    return float(out) if out.ndim == 0 else out


def participation_weights(cost_s: Sequence[float],
                          affordable_rounds: Sequence[float],
                          floor: float = 0.05) -> np.ndarray:
    """Cost-aware sampling distribution over the fleet.

    A client's raw importance is ``affordable_rounds / (1 + cost_s)`` —
    how many rounds its energy budget affords, discounted by how long
    each round holds its link and compute.  Weights are normalized to a
    max of 1 and floored at ``floor`` before renormalizing, so expensive
    clients participate *less often*, never never: every data shard
    keeps a sampling probability of at least ``floor / n`` per slot.
    """
    if not 0.0 <= floor <= 1.0:
        raise ValueError("participation floor must be in [0, 1]")
    cost = np.asarray(cost_s, dtype=np.float64)
    afford = np.asarray(affordable_rounds, dtype=np.float64)
    if cost.shape != afford.shape or cost.ndim != 1 or cost.size == 0:
        raise ValueError("need matching non-empty cost/afford vectors")
    if np.any(cost < 0) or np.any(afford <= 0):
        raise ValueError("costs must be >= 0 and affordances > 0")
    raw = afford / (1.0 + cost)
    raw = raw / raw.max()
    w = np.maximum(raw, floor)
    return w / w.sum()


@dataclass
class DispatchRecord:
    """One in-flight client task in the virtual-time event queue."""

    client_index: int
    version: int           # global-model version the client trains from
    weights: List[np.ndarray]
    hidden: int
    precision: Any
    start_t: float
    finish_t: float
    seq: int               # dispatch order; the merge tie-breaker


class AsyncFLServer(FLServer):
    """Barrier-free federated training over a simulated fleet.

    Extends :class:`FLServer` with an event-driven scheduler; planning
    (:func:`~repro.federated.server.client_plan`), local training
    (:func:`~repro.federated.client.train_client_task`), and aggregation
    (:func:`~repro.federated.dcnas.merge_subnetwork`) are all shared
    with the synchronous path, so the two engines differ *only* in when
    updates merge and how they are weighted.
    """

    def __init__(self, clients: Sequence[FLClient],
                 test_data: ClassificationDataset,
                 hidden: int = 32, mode: str = "fedavg",
                 local_epochs: int = 1, lr: float = 0.1,
                 rng: Optional[np.random.Generator] = None,
                 buffer_size: int = 1, sample_fraction: float = 0.1,
                 staleness_alpha: float = 0.5, staleness_kind: str = "poly",
                 cost_aware: bool = True, participation_floor: float = 0.05,
                 sampler_seed: int = 0):
        super().__init__(clients, test_data, hidden=hidden, mode=mode,
                         local_epochs=local_epochs, lr=lr, rng=rng)
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        if not 0.0 < sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")
        # decay-kind/alpha validation lives in staleness_decay
        staleness_decay(0.0, alpha=staleness_alpha, kind=staleness_kind)
        self.buffer_size = int(buffer_size)
        self.sample_fraction = float(sample_fraction)
        self.staleness_alpha = float(staleness_alpha)
        self.staleness_kind = staleness_kind
        self.cost_aware = bool(cost_aware)
        self.participation_floor = float(participation_floor)
        self.sampler_seed = int(sampler_seed)
        self.clock = VirtualClock()
        self._sampler = np.random.default_rng(self.sampler_seed)

        n = len(self.clients)
        self.version = 0
        self.updates = 0
        self.waves = 0
        self.total_energy_mj = 0.0
        self.comm_bytes = 0.0
        self.eval_history: List[Dict[str, float]] = []
        self._seq = 0
        self._heap: List[tuple] = []          # (finish_t, seq)
        self._in_flight: Dict[int, DispatchRecord] = {}
        self._idle = set(range(n))
        self.client_update_counts = np.zeros(n, dtype=np.int64)
        self.client_dispatch_counts = np.zeros(n, dtype=np.int64)
        self._stale_sum = 0.0
        self._stale_count = 0
        self._stale_max = 0
        self._base_weights = self._static_participation()
        # Content address of the starting point; part of the job id so a
        # resumed run can only attach to a checkpoint of *this* model.
        from ..runtime.cache import fingerprint
        self._initial_sha = fingerprint([w for w in self.global_weights])

    # ----------------------------------------------------------- sampling
    def _static_participation(self) -> np.ndarray:
        """Fleet-wide sampling weights from static device economics."""
        n = len(self.clients)
        if not self.cost_aware:
            return np.full(n, 1.0 / n)
        input_dim = self.test_data.dim
        n_classes = self.test_data.n_classes
        macs_fwd = model_macs_per_sample(input_dim, self.hidden, n_classes)
        n_params = (input_dim * self.hidden + self.hidden
                    + self.hidden * n_classes + n_classes)
        costs, afford = [], []
        for client in self.clients:
            macs = 3 * macs_fwd * len(client.data) * self.local_epochs
            compute_s = client.profile.inference_latency_ms(macs, 32) / 1e3
            comm_s = (2 * n_params * 4 * 8
                      / (uplink_mbps(client.profile) * 1e6))
            costs.append(compute_s + comm_s)
            energy_mj = max(macs * mac_energy_pj(32) * 1e-9, 1e-12)
            afford.append(client.profile.energy_budget_mj / energy_mj)
        return participation_weights(costs, afford,
                                     floor=self.participation_floor)

    def _sampling_weights(self, idle: np.ndarray) -> np.ndarray:
        w = self._base_weights[idle]
        return w / w.sum()

    # ----------------------------------------------------------- dispatch
    def _simulated_duration_s(self, client: FLClient,
                              weights: List[np.ndarray], precision) -> float:
        """Virtual seconds from dispatch to update arrival."""
        input_dim = self.test_data.dim
        n_classes = self.test_data.n_classes
        hidden_used = weights[0].shape[1]
        macs = (3 * model_macs_per_sample(input_dim, hidden_used, n_classes)
                * len(client.data) * self.local_epochs)
        compute_s = client.profile.inference_latency_ms(
            macs, precision.mac_bits) / 1e3
        comm_s = (2 * payload_bytes(weights, precision.weight_bits) * 8
                  / (uplink_mbps(client.profile) * 1e6))
        return compute_s + comm_s

    def _dispatch(self, client_index: int) -> None:
        client = self.clients[client_index]
        hidden_used, precision = self._client_plan(client)
        weights = slice_weights(self.global_weights, hidden_used)
        pay = 2 * payload_bytes(weights, precision.weight_bits)
        now = self.clock.now()
        record = DispatchRecord(
            client_index=client_index, version=self.version,
            weights=weights, hidden=hidden_used, precision=precision,
            start_t=now,
            finish_t=now + self._simulated_duration_s(
                client, weights, precision),
            seq=self._seq)
        self._seq += 1
        heapq.heappush(self._heap, (record.finish_t, record.seq))
        self._in_flight[record.seq] = record
        self._idle.discard(client_index)
        self.client_dispatch_counts[client_index] += 1
        self.comm_bytes += pay
        get_registry().counter("federated.async.comm_bytes").inc(pay)

    def _refill(self) -> None:
        """Top the in-flight cohort back up to the sampled fraction."""
        target = max(1, int(round(self.sample_fraction * len(self.clients))))
        need = target - len(self._in_flight)
        if need <= 0 or not self._idle:
            return
        idle = np.array(sorted(self._idle), dtype=np.int64)
        if need >= idle.size:
            chosen = idle      # whole fleet: no sampling randomness used
        else:
            chosen = self._sampler.choice(idle, size=need, replace=False,
                                          p=self._sampling_weights(idle))
        # Dispatch in client order so seq (the merge tie-breaker) never
        # depends on the sampler's internal output ordering.
        for client_index in sorted(int(c) for c in chosen):
            self._dispatch(client_index)

    # -------------------------------------------------------------- waves
    def _step_wave(self, pool=None) -> Dict[str, Any]:
        """Refill, wait for ``buffer_size`` arrivals, merge them."""
        obs = get_registry()
        self._refill()
        k = min(self.buffer_size, len(self._heap))
        popped = [heapq.heappop(self._heap) for _ in range(k)]
        records = sorted((self._in_flight.pop(seq) for _, seq in popped),
                         key=lambda r: r.seq)
        items = [(self.clients[r.client_index], r.weights, r.hidden,
                  r.precision, self.local_epochs, self.lr) for r in records]
        if pool is not None and pool.workers > 1:
            assert_private_rngs(
                (self.clients[r.client_index].rng for r in records),
                owners=[f"client {r.client_index}" for r in records])
            outs = pool.map(train_client_task, items,
                            label="federated.async_train")
            for record, (_, _, rng_state) in zip(records, outs):
                rng = self.clients[record.client_index].rng
                rng.bit_generator.state = rng_state
        else:
            outs = [train_client_task(item) for item in items]

        staleness = [self.version - r.version for r in records]
        effective = [report.n_samples
                     * staleness_decay(s, alpha=self.staleness_alpha,
                                       kind=self.staleness_kind)
                     for (_, report, _), s in zip(outs, staleness)]
        self.global_weights = merge_subnetwork(
            self.global_weights, [u for u, _, _ in outs],
            [r.hidden for r in records], effective)
        self.version += 1

        # Virtual time jumps to the last arrival merged in this wave
        # (pops come off the heap in ascending finish order).
        advance = popped[-1][0] - self.clock.now()
        if advance > 0:
            self.clock.sleep(advance)
        for record, s in zip(records, staleness):
            self._idle.add(record.client_index)
            self.client_update_counts[record.client_index] += 1
            self._stale_sum += s
            self._stale_count += 1
            self._stale_max = max(self._stale_max, s)
            obs.histogram("federated.async.staleness").observe(float(s))
        self.total_energy_mj += sum(rep.energy_mj for _, rep, _ in outs)
        self.updates += k
        self.waves += 1
        obs.counter("federated.async.updates").inc(float(k))
        obs.counter("federated.async.waves").inc()
        obs.histogram("federated.async.wave_size").observe(float(k))
        return {"wave": self.waves, "merged": k, "version": self.version,
                "virtual_s": self.clock.now(),
                "staleness_max": int(max(staleness)),
                "clients": [r.client_index for r in records]}

    # ---------------------------------------------------------------- runs
    def _job_parts(self, limits: Dict[str, Any]) -> List[Any]:
        """Input closure identifying one run for the job store."""
        return [self.mode, self.hidden, self.local_epochs, self.lr,
                self.buffer_size, self.sample_fraction,
                self.staleness_alpha, self.staleness_kind,
                self.cost_aware, self.participation_floor,
                self.sampler_seed,
                [(len(c.data), c.profile.name) for c in self.clients],
                self._initial_sha, limits]

    def _checkpoint_state(self) -> Dict[str, Any]:
        return {
            "global_weights": [w.copy() for w in self.global_weights],
            "version": self.version, "seq": self._seq,
            "clock_t": self.clock.now(),
            "heap": list(self._heap),
            "in_flight": dict(self._in_flight),
            "idle": sorted(self._idle),
            "client_rng_states": [c.rng.bit_generator.state
                                  for c in self.clients],
            "sampler_state": self._sampler.bit_generator.state,
            "client_update_counts": self.client_update_counts.copy(),
            "client_dispatch_counts": self.client_dispatch_counts.copy(),
            "stale_sum": self._stale_sum, "stale_count": self._stale_count,
            "stale_max": self._stale_max,
            "updates": self.updates, "waves": self.waves,
            "total_energy_mj": self.total_energy_mj,
            "comm_bytes": self.comm_bytes,
            "eval_history": list(self.eval_history),
        }

    def _restore(self, state: Dict[str, Any]) -> None:
        self.global_weights = [w.copy() for w in state["global_weights"]]
        self.version = state["version"]
        self._seq = state["seq"]
        delta = state["clock_t"] - self.clock.now()
        if delta > 0:
            self.clock.sleep(delta)
        self._heap = list(state["heap"])
        self._in_flight = dict(state["in_flight"])
        self._idle = set(state["idle"])
        for client, rng_state in zip(self.clients,
                                     state["client_rng_states"]):
            client.rng.bit_generator.state = rng_state
        self._sampler.bit_generator.state = state["sampler_state"]
        self.client_update_counts = state["client_update_counts"].copy()
        self.client_dispatch_counts = state["client_dispatch_counts"].copy()
        self._stale_sum = state["stale_sum"]
        self._stale_count = state["stale_count"]
        self._stale_max = state["stale_max"]
        self.updates = state["updates"]
        self.waves = state["waves"]
        self.total_energy_mj = state["total_energy_mj"]
        self.comm_bytes = state["comm_bytes"]
        self.eval_history = list(state["eval_history"])
        get_registry().counter("federated.async.resumes").inc()

    def run_async(self, max_updates: Optional[int] = None,
                  max_waves: Optional[int] = None,
                  target_accuracy: Optional[float] = None,
                  eval_every: int = 25, pool=None,
                  store=None, checkpoint_every: int = 50,
                  on_wave=None) -> Dict[str, Any]:
        """Run until an update/wave budget or accuracy target is met.

        ``store`` (a :class:`~repro.runtime.store.JobStore`) makes
        the run durable: a completed job short-circuits to its stored
        result, and an interrupted one resumes from the last checkpoint
        and finishes bit-identical to an uninterrupted run.  ``on_wave``
        (called as ``on_wave(wave_index, wave_record)``) exists for
        progress display — and for tests that kill a run mid-flight.
        """
        if max_updates is None and max_waves is None \
                and target_accuracy is None:
            raise ValueError("need max_updates, max_waves, or "
                             "target_accuracy to bound the run")
        if eval_every < 1 or checkpoint_every < 1:
            raise ValueError("eval_every/checkpoint_every must be >= 1")
        handle = None
        if store is not None:
            handle = store.open_job("fedasync", self._job_parts(
                {"max_updates": max_updates, "max_waves": max_waves,
                 "target_accuracy": target_accuracy,
                 "eval_every": eval_every}))
            prior = handle.result()
            if prior is not None:
                return prior
            checkpoint = handle.load_checkpoint()
            if checkpoint is not None:
                self._restore(checkpoint)

        obs = get_registry()
        reached = False
        with obs.trace_span("federated.async_run",
                            attrs={"mode": self.mode,
                                   "clients": len(self.clients),
                                   "buffer": self.buffer_size}):
            while True:
                if max_waves is not None and self.waves >= max_waves:
                    break
                if max_updates is not None and self.updates >= max_updates:
                    break
                wave = self._step_wave(pool)
                if handle is not None:
                    handle.append_event(wave)
                if self.waves % eval_every == 0:
                    accuracy = self.evaluate()
                    self.eval_history.append(
                        {"wave": self.waves, "updates": self.updates,
                         "virtual_s": self.clock.now(),
                         "accuracy": accuracy})
                    if target_accuracy is not None \
                            and accuracy >= target_accuracy:
                        reached = True
                if handle is not None \
                        and self.waves % checkpoint_every == 0:
                    handle.checkpoint(self._checkpoint_state())
                if on_wave is not None:
                    on_wave(self.waves, wave)
                if reached:
                    break

        final_accuracy = self.evaluate()
        self.eval_history.append(
            {"wave": self.waves, "updates": self.updates,
             "virtual_s": self.clock.now(), "accuracy": final_accuracy})
        for count in self.client_update_counts:
            obs.histogram("federated.async.client_updates").observe(
                float(count))
        result = {
            "n_clients": len(self.clients),
            "mode": self.mode,
            "buffer_size": self.buffer_size,
            "sample_fraction": self.sample_fraction,
            "updates": self.updates,
            "waves": self.waves,
            "version": self.version,
            "virtual_s": self.clock.now(),
            "final_accuracy": final_accuracy,
            "reached_target": reached,
            "total_energy_mj": self.total_energy_mj,
            "comm_bytes": self.comm_bytes,
            "staleness_mean": (self._stale_sum / self._stale_count
                               if self._stale_count else 0.0),
            "staleness_max": self._stale_max,
            "participating_clients": int(
                (self.client_update_counts > 0).sum()),
            "dispatched_clients": int(
                (self.client_dispatch_counts > 0).sum()),
            "weights_sha": self.weights_fingerprint(),
            "eval_history": list(self.eval_history),
        }
        if handle is not None:
            result["job_id"] = handle.job_id
            handle.finish(result)
        return result
