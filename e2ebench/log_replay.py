"""``log_replay``: a recorded drive log reprocessed offline.

Set-up records a seeded drive log of clean and corrupted scans, full
and frugal alike.  The timed phase submits the logged scans through
``serve.MicroBatcher`` at a fixed batch size; the batch runner calls
the batched entry points: ``RMAE.occupancy_probability_batch``,
``BEVDetector.detect_batch`` and ``STARNet.assess_batch`` with the
deterministic ``exact`` regret.

Why: the simulator does no timed work, so voxel, generative, detect,
starnet, nn and kernels carry all the time through batched paths the
closed loop never calls; a sensing change should leave it unchanged.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core import Percept
from repro.obs import trace_span
from repro.runtime import spawn_rngs
from repro.serve import BatcherConfig, MicroBatcher, ServiceOverloaded
from repro.sim import LidarScanner, apply_corruption_stack
from repro.voxel import voxelize

from . import common, stack

# The log loops as one stream; its length is coprime to the batch size,
# so batch boundaries shift every pass and the batches, whose times are
# the request latencies, mix every stretch of the log.
LOG_SCANS = 85
BATCH = 16
BLOCK, EPISODE = 12, 4          # a third of the log corrupted
FULL_EVERY = 3                  # every third logged scan is a full scan
PARITY_TOL = 1e-6               # the kernels' drift tolerance
DETECT_MAP_FLOOR = 1.0
MONITOR_AUC_FLOOR = 0.65
SETUP_REPEATS = 3
WARM_STEPS = -(-LOG_SCANS // BATCH)     # one pass through the log
# Batches every run serves (~10 s on an idle host, ~19 s at the slowest
# seen): the tail is their p84, with ten batches beyond it.
MIN_BATCHES = 64


@dataclass
class Entry:
    scan: object
    scene: object
    corrupted: bool


def record_log(seed: int) -> List[Entry]:
    scene_rng, sched_rng, scan_rng, corrupt_rng, mask_rng = spawn_rngs(
        seed + 20_000, 5)
    scanner = LidarScanner(stack.LIDAR, rng=scan_rng)
    schedule = stack.episode_schedule(sched_rng, LOG_SCANS, BLOCK, EPISODE)
    entries, cloud = [], None
    for i, scene in enumerate(stack.sample_scenes(scene_rng, LOG_SCANS)):
        mask = None if i % FULL_EVERY == 0 else stack.frugal_mask(
            cloud, mask_rng)
        scan = scanner.scan(scene, mask)
        cloud = voxelize(scan.points, scan.labels, stack.GRID)
        if schedule[i] is not None:
            scan = apply_corruption_stack(
                scan, [schedule[i]],
                rngs=[np.random.default_rng(corrupt_rng.integers(2 ** 63))])
        entries.append(Entry(scan, scene, schedule[i] is not None))
    return entries


@dataclass
class Replay:
    models: stack.Stack
    log: List[Entry]


def setup(seed: int) -> Replay:
    return Replay(stack.build_stack("exact"), record_log(seed))


def batch_runner(models: stack.Stack):
    def run(scans):
        with trace_span("voxel.voxelize"):
            clouds = [voxelize(s.points, s.labels, stack.GRID)
                      for s in scans]
        with trace_span("rmae.recon"):
            occupancy = models.rmae.occupancy_probability_batch(clouds)
        with trace_span("detect.detect"):
            detections = models.detector.detect_batch(clouds)
        with trace_span("starnet.extract"):
            features = models.extractor.extract_batch(scans)
        # The library's starnet.assess_batch span nests inside this one.
        with trace_span("starnet.trust"):
            trust = models.monitor.assess_batch(
                [Percept(features=f) for f in features])
        return [{"trust": float(t), "detections": d,
                 "voxels": c.num_occupied, "points": s.num_points,
                 "occupied": int((o > 0.5).sum())}
                for t, d, c, s, o in zip(trust, detections, clouds, scans,
                                         occupancy)]
    return run


class Runner(common.Runner):
    """The log replayed as one looped stream through a MicroBatcher over
    a copy of the models; one step submits logged scans until a batch
    is due and runs it."""

    SPAN = "serve.batch"
    MIN_STEPS = MIN_BATCHES

    def __init__(self, replay: Replay, obs):
        super().__init__(obs)
        self.replay = copy.deepcopy(replay)
        self.batcher = MicroBatcher(batch_runner(self.replay.models),
                                    BatcherConfig(max_batch_size=BATCH,
                                                  max_wait_ms=60_000.0,
                                                  max_queue_depth=4 * BATCH))
        self.submitted = self.served = self.shed = 0
        self.latency_s: List[float] = []
        self.latency_step: List[int] = []   # the step that served it
        self.first: List[dict] = [None] * len(self.replay.log)
        self.pending: List[Tuple[int, object]] = []  # (request, ticket)

    @property
    def ops(self) -> int:
        return self.served

    @property
    def attempted(self) -> int:
        return self.submitted

    def latency_ms(self) -> List[float]:
        """One sample per batch: its requests' mean latency over the
        host's slowdown.  A batch's requests share one latency to within
        their submission, so counted apart they would put the tail's ten
        samples beyond it into one or two batches."""
        batches: Dict[int, List[float]] = {}
        for s, i in zip(self.latency_s, self.latency_step):
            batches.setdefault(i, []).append(s)
        last = len(self.slowdown) - 1
        return [1e3 * float(np.mean(v)) / self.slowdown[min(i, last)]
                for i, v in sorted(batches.items())]

    def op_id(self) -> str:
        return f"batch-{self.batcher.batch_count}"

    def step(self) -> None:
        log = self.replay.log
        for _ in range(BATCH):
            try:
                self.pending.append((self.submitted, self.batcher.submit(
                    log[self.submitted % len(log)].scan)))
            except ServiceOverloaded:
                self.shed += 1
            self.submitted += 1
            if self.batcher.ready():
                break
        self.batcher.poll()
        self.settle()

    def settle(self) -> None:
        now = self.batcher.clock.now()
        still = []
        for index, ticket in self.pending:
            if not ticket.done:
                still.append((index, ticket))
                continue
            try:
                result = ticket.result()
            except Exception as exc:  # a routed runner error
                self.failed += 1
                self.error = repr(exc)
                continue
            self.served += 1
            self.latency_s.append(now - ticket.enqueue_t)
            self.latency_step.append(len(self.step_s))
            if index < len(self.first):
                self.first[index] = result
        self.pending = still

    def close(self) -> None:
        self.batcher.flush()
        self.settle()


def quality(r: Runner) -> Dict[str, float]:
    log = r.replay.log
    return {
        "detect_map": stack.detect_map([x["detections"] for x in r.first],
                                       [e.scene for e in log]),
        "monitor_auc": stack.monitor_auc([x["trust"] for x in r.first],
                                         [e.corrupted for e in log]),
    }


def parity(r: Runner) -> None:
    """Routed batched results match the per-sample entry points."""
    models = r.replay.models
    for entry, routed in zip(r.replay.log[:BATCH], r.first[:BATCH]):
        scan = entry.scan
        cloud = voxelize(scan.points, scan.labels, stack.GRID)
        trust = models.monitor.assess(
            Percept(features=models.extractor.extract(scan)))
        common.check(abs(trust - routed["trust"]) <= PARITY_TOL,
                     f"batched trust {routed['trust']} != per-sample {trust}")
        single = models.detector.detect(cloud)
        batched = routed["detections"]
        common.check(len(single) == len(batched),
                     "batched detections differ from per-sample ones")
        for a, b in zip(single, batched):
            common.check(a.cls == b.cls and max(abs(a.x - b.x),
                                                abs(a.y - b.y),
                                                abs(a.score - b.score))
                         <= PARITY_TOL,
                         f"batched detection {b} != per-sample {a}")


def checks(r: Runner) -> None:
    common.check(r.failed == 0 and r.shed == 0,
                 f"{r.failed} failed, {r.shed} shed requests: {r.error}")
    common.check(r.submitted == r.served + r.shed + r.failed,
                 f"requests {r.submitted} != served {r.served} + shed "
                 f"{r.shed} + failed {r.failed}")
    common.check(r.batcher.request_count + r.batcher.shed_count
                 == r.submitted, "the batcher lost count of requests")
    common.check(all(x is not None for x in r.first),
                 "the first pass did not return every logged scan")
    parity(r)
    q = quality(r)
    common.check(q["monitor_auc"] >= MONITOR_AUC_FLOOR,
                 f"monitor_auc {q['monitor_auc']:.3f} below floor")
    common.check(q["detect_map"] >= DETECT_MAP_FLOOR,
                 f"detect_map {q['detect_map']:.2f} below floor")


def compute_mj_per_scan(r: Runner) -> float:
    macs = r.replay.models.macs
    return float(np.mean([stack.compute_energy_mj(macs.scan(x["voxels"],
                                                            "exact"))
                          for x in r.first]))


def end_to_end(r: Runner) -> Dict[str, float]:
    return {
        # A logged scan's data is in hand when it is submitted, so its
        # age at the decision is its request latency.
        "staleness_p50_ms": common.median(r.latency_ms()),
        "energy_mj_per_op": compute_mj_per_scan(r),
        "peak_rss_mb": common.peak_rss_mb(),
    }


def details(r: Runner) -> dict:
    return {**quality(r), "passes": r.submitted / len(r.replay.log)}


def layer_metrics(r: Runner, registry) -> Dict[str, float]:
    n, first = r.served, r.first
    models = r.replay.models

    def per_scan_ms(name: str) -> float:
        return 1e3 * sum(common.durations(registry, name)) / n

    snap = registry.snapshot()
    regret_calls = snap["histograms"].get(
        "kernels.likelihood_regret.score_rows_s", {}).get("count", 0)
    # Every logged scan is replayed equally often (give or take one).
    macs_per_scan = np.mean([models.rmae.reconstruction_macs(x["voxels"])
                             for x in first])
    q = quality(r)
    return {
        "voxel.voxelize_ms": per_scan_ms("voxel.voxelize"),
        "voxel.points": np.mean([x["points"] for x in first]),
        "rmae.recon_ms": per_scan_ms("rmae.recon"),
        "rmae.active_voxels": np.mean([x["voxels"] for x in first]),
        "rmae.mac_rate": 1e3 * macs_per_scan / per_scan_ms("rmae.recon"),
        "detect.ms": per_scan_ms("detect.detect"),
        "detect.detections": np.mean([len(x["detections"]) for x in first]),
        "detect.map": q["detect_map"],
        "starnet.extract_ms": per_scan_ms("starnet.extract"),
        "starnet.assess_ms": per_scan_ms("starnet.trust"),
        "starnet.regret_rows": snap["counters"].get(
            "starnet.assessments", 0.0) / max(regret_calls, 1),
        "starnet.rejected_share": np.mean([x["trust"] < 0.5 for x in first]),
        "starnet.monitor_auc": q["monitor_auc"],
        "nn.macs_per_scan": models.macs.static_per_scan,
        "energy.compute_mj": compute_mj_per_scan(r),
        "serve.batch_size_mean": r.batcher.batch_sizes.mean,
        "serve.queue_wait_ms": 1e3 * r.batcher.queue_wait.mean,
        "serve.batches": r.batcher.batch_count * len(first) / r.submitted,
        "serve.shed": r.batcher.shed_count,
    }
