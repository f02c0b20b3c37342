"""``closed_loop``: one robot's live sensing-to-action loop.

Each cycle starts when the previous actuation returns: a raycast scan
under the current beam mask (plus a scripted corruption during
episodes) -> ``voxelize`` -> ``RMAE.occupancy_probability`` ->
``BEVDetector.detect`` -> ``LidarFeatureExtractor`` + STARNet SPSA
``assess`` -> an LQR policy steering toward the freer side of the
reconstructed occupancy -> actuation.  After a trusted cycle the policy
asks for a frugal radial beam mask; after a rejected one the loop goes
back to a full scan, so corruption drives both latency and energy.

Why: the only workload where the simulator, the per-sample perception
paths and the loop orchestrator all block the result.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.core import (Action, Actuator, Environment, Monitor, Percept,
                        Perception, Policy, SensingToActionLoop, Sensor,
                        SensorReading)
from repro.koopman import LQRController
from repro.obs import trace_span
from repro.runtime import spawn_rngs
from repro.sim import LidarScanner, apply_corruption_stack
from repro.voxel import voxelize

from . import common, stack

PERIOD_S = 0.1
# Quality and modeled energy are scored on the first cycles only, so
# they do not depend on how many cycles fit into the run; the energy
# window spans whole rotations of the three corruption families.
EVAL_CYCLES = 30
ENERGY_CYCLES = 150
BLOCK, EPISODE = 10, 3          # 30% of cycles corrupted
# Scenes and corruption episodes repeat only after the energy window, so
# a seed's energy averages over 150 scenes and 15 episodes.
SCENE_POOL = ENERGY_CYCLES
GOAL_M = 1.5
ACTUATION_MJ_PER_UNIT = 2.0
DETECT_MAP_FLOOR = 1.0          # percent
MONITOR_AUC_FLOOR = 0.65
SETUP_REPEATS = 3
WARM_STEPS = 10
# A traced cycle takes its untraced twin's time within this share: the
# spans cost well under 1% of a cycle, and the two runners alternate
# cycles, so the host's drift reaches both alike.
TRACE_TOLERANCE = 0.05
# The time no stage span claims (loop.self_ms) stays under this share
# of the cycle, so a stage left without a span fails the check: it
# reads ~0.9% with every span, ~4.5% without the detector's alone.
LOOP_SELF_MAX_SHARE = 0.025


class DriveEnv(Environment):
    """Lateral dynamics of a robot passing a seeded sequence of scenes."""

    def __init__(self, scenes, schedule):
        self.scenes = scenes
        self.schedule = schedule
        self.state = np.zeros(2)     # lateral offset, lateral velocity
        self.cycle = 0

    @property
    def scene(self):
        return self.scenes[self.cycle % len(self.scenes)]

    @property
    def episode(self):
        return self.schedule[self.cycle % len(self.schedule)]

    def observe_state(self) -> np.ndarray:
        return self.state.copy()

    def advance(self, dt: float) -> None:
        x, v = self.state
        self.state = np.array([x + v * dt, v])
        self.cycle += 1


class LidarSensor(Sensor):
    def __init__(self, scanner: LidarScanner, rng: np.random.Generator):
        self.scanner = scanner
        self.rng = rng
        self.charged_mj = 0.0
        self.sense_end = 0.0

    def sense(self, env: DriveEnv, directive, t: float) -> SensorReading:
        episode = env.episode
        with trace_span("sim.scan"):
            scan = self.scanner.scan(env.scene, directive.get("beams"))
        if episode is not None:
            stage_rng = np.random.default_rng(self.rng.integers(2 ** 63))
            with trace_span("sim.corrupt"):
                scan = apply_corruption_stack(scan, [episode],
                                              rngs=[stage_rng])
        energy = scan.sensing_energy_mj()
        self.charged_mj += energy
        self.sense_end = time.perf_counter()
        return SensorReading(data=scan, timestamp=t,
                             coverage=scan.coverage_fraction,
                             energy_mj=energy, modality="lidar",
                             meta={"corrupted": episode is not None,
                                   "scene": env.scene})


class StackPerception(Perception):
    def __init__(self, models: stack.Stack):
        self.models = models

    def perceive(self, reading: SensorReading) -> Percept:
        scan = reading.data
        with trace_span("voxel.voxelize"):
            cloud = voxelize(scan.points, scan.labels, stack.GRID)
        with trace_span("rmae.recon"):
            occupancy = self.models.rmae.occupancy_probability(cloud)
        with trace_span("detect.detect"):
            detections = self.models.detector.detect(cloud)
        with trace_span("starnet.extract"):
            features = self.models.extractor.extract(scan)
        return Percept(features=features, estimate=detections,
                       meta={"cloud": cloud, "occupancy": occupancy})


class TracedMonitor(Monitor):
    """STARNet behind a benchmark-side span (the library's own
    ``starnet.assess`` span nests inside it)."""

    def __init__(self, monitor):
        self.monitor = monitor

    def assess(self, percept: Percept) -> float:
        with trace_span("starnet.trust"):
            return self.monitor.assess(percept)


class SteeringPolicy(Policy):
    """LQR toward the freer side of the near occupancy; sets sensing."""

    def __init__(self, env: DriveEnv, lqr: LQRController,
                 models: stack.Stack, rng: np.random.Generator):
        self.env = env
        self.lqr = lqr
        self.models = models
        self.rng = rng
        self.goal = 0.0
        self.charged_mj = 0.0

    def act(self, percept: Percept, t: float) -> Action:
        cloud = percept.meta["cloud"]
        trusted = percept.confidence > 0
        with trace_span("policy.act"):
            if trusted:
                near = percept.meta["occupancy"][:stack.GRID.nx // 3].max(
                    axis=2)
                half = stack.GRID.ny // 2
                neg, pos = near[:, :half].sum(), near[:, half:].sum()
                self.goal = GOAL_M * (neg - pos) / (neg + pos + 1e-9)
            self.lqr.set_goal(np.array([self.goal, 0.0]))
            command = float(self.lqr.act(self.env.observe_state())[0])
        directive = {}
        if trusted:
            with trace_span("voxel.mask"):
                directive = {"beams": stack.frugal_mask(cloud, self.rng)}
        macs = self.models.macs.scan(cloud.num_occupied, "spsa") \
            + self.lqr.gain.size
        energy = stack.compute_energy_mj(macs)
        self.charged_mj += energy
        return Action(command=command, sensing_directive=directive,
                      energy_mj=energy)


class Drive(Actuator):
    def __init__(self, sensor: LidarSensor):
        self.sensor = sensor
        self.staleness_s: List[float] = []
        self.charged_mj = 0.0

    def actuate(self, env: DriveEnv, action: Action, t: float) -> float:
        self.staleness_s.append(time.perf_counter() - self.sensor.sense_end)
        env.state = env.state + np.array([0.0, action.command * PERIOD_S])
        energy = ACTUATION_MJ_PER_UNIT * abs(action.command)
        self.charged_mj += energy
        return energy


@dataclass
class World:
    """Everything the cycles mutate; each runner drives its own copy."""

    models: stack.Stack
    env: DriveEnv
    scanner: LidarScanner
    corrupt_rng: np.random.Generator
    mask_rng: np.random.Generator


def setup(seed: int) -> World:
    models = stack.build_stack("spsa")
    scene_rng, sched_rng, scan_rng, corrupt_rng, mask_rng = spawn_rngs(
        seed + 10_000, 5)
    schedule = stack.episode_schedule(sched_rng, ENERGY_CYCLES, BLOCK,
                                      EPISODE)
    env = DriveEnv(stack.sample_scenes(scene_rng, SCENE_POOL), schedule)
    return World(models, env, LidarScanner(stack.LIDAR, rng=scan_rng),
                 corrupt_rng, mask_rng)


class Runner(common.Runner):
    """A live loop over a copy of the world; one step is one cycle,
    started when the previous actuation has returned."""

    SPAN = "loop.run_cycle"
    MIN_STEPS = ENERGY_CYCLES

    def __init__(self, world: World, obs):
        super().__init__(obs)
        world = copy.deepcopy(world)
        self.env, self.models = world.env, world.models
        self.sensor = LidarSensor(world.scanner, world.corrupt_rng)
        dt = PERIOD_S
        lqr = LQRController(np.array([[1.0, dt], [0.0, 1.0]]),
                            np.array([[0.5 * dt * dt], [dt]]), horizon=40,
                            action_limit=2.0)
        self.policy = SteeringPolicy(world.env, lqr, world.models,
                                     world.mask_rng)
        self.actuator = Drive(self.sensor)
        self.loop = SensingToActionLoop(
            self.sensor, StackPerception(world.models), self.policy,
            self.actuator, monitor=TracedMonitor(world.models.monitor),
            trust_threshold=0.5, period_s=PERIOD_S, obs=obs)
        self.records: List[dict] = []
        self.window_rss_mb = 0.0

    @property
    def ops(self) -> int:
        return len(self.records)

    def op_id(self) -> str:
        return f"cycle-{len(self.records)}"

    def step(self) -> None:
        record = self.loop.run_cycle(self.env)
        reading = record.reading
        self.records.append({
            "corrupted": reading.meta["corrupted"],
            "scene": reading.meta["scene"],
            "trust": record.trust,
            "trusted": record.trusted,
            "detections": record.percept.estimate,
            "coverage": reading.coverage,
            "beams": int(reading.data.fired_mask.sum()),
            "points": reading.data.num_points,
            "voxels": record.percept.meta["cloud"].num_occupied,
            "energy_total_mj": self.loop.metrics.energy.total_mj,
        })
        if len(self.records) == ENERGY_CYCLES:
            # Memory at a fixed amount of work: the loop keeps every
            # cycle's record, so a later read would grow with host speed.
            self.window_rss_mb = common.peak_rss_mb()

    def close(self) -> None:
        # Drop what the loop keeps per cycle once read: raw scans add up.
        self.loop.history.clear()


def quality(r: Runner) -> Dict[str, float]:
    head = r.records[:EVAL_CYCLES]
    return {
        "detect_map": stack.detect_map([x["detections"] for x in head],
                                       [x["scene"] for x in head]),
        "monitor_auc": stack.monitor_auc([x["trust"] for x in head],
                                         [x["corrupted"] for x in head]),
    }


def checks(r: Runner) -> None:
    common.check(r.loop.metrics.cycles == r.ops,
                 "loop cycle count differs from cycles run")
    ledger = r.loop.metrics.energy
    parts = {"sensing": (ledger.sensing_mj, r.sensor.charged_mj),
             "compute": (ledger.compute_mj, r.policy.charged_mj),
             "actuation": (ledger.actuation_mj, r.actuator.charged_mj)}
    for name, (booked, charged) in parts.items():
        common.check(abs(booked - charged) <= 1e-9 * max(charged, 1.0),
                     f"ledger {name} {booked} != charged {charged}")
    total = sum(booked for booked, _ in parts.values())
    common.check(ledger.communication_mj == 0.0
                 and abs(ledger.total_mj - total) <= 1e-9 * max(total, 1.0),
                 "ledger total is not sensing + compute + actuation")
    q = quality(r)
    common.check(q["monitor_auc"] >= MONITOR_AUC_FLOOR,
                 f"monitor_auc {q['monitor_auc']:.3f} below floor")
    common.check(q["detect_map"] >= DETECT_MAP_FLOOR,
                 f"detect_map {q['detect_map']:.2f} below floor")


def trace_checks(traced: Runner, untraced: Runner, registry) -> None:
    """Stage self times plus ``loop.self_ms`` make up each traced cycle
    (every span nests in a cycle's root span).  That total must match
    the untraced twin cycle within ``TRACE_TOLERANCE``, and no stage may
    be left without a span."""
    cycles = [span.duration_s for span in registry.spans]
    gap = common.median([t / u for t, u in zip(cycles, untraced.step_s)]) \
        - 1.0
    common.check(abs(gap) <= TRACE_TOLERANCE,
                 f"traced cycles differ from untraced ones by {gap:+.3f} "
                 f"(tolerance {TRACE_TOLERANCE})")
    share = common.layer_self_s(registry).get("loop", 0.0) / sum(cycles)
    common.check(share <= LOOP_SELF_MAX_SHARE,
                 f"{share:.3f} of the cycle is in no stage span "
                 f"(limit {LOOP_SELF_MAX_SHARE})")


def end_to_end(r: Runner) -> Dict[str, float]:
    return {
        "staleness_p50_ms": 1e3 * common.median([
            s / k for s, k in zip(r.actuator.staleness_s, r.slowdown)]),
        "energy_mj_per_op": r.records[ENERGY_CYCLES - 1]["energy_total_mj"]
        / ENERGY_CYCLES,
        "peak_rss_mb": r.window_rss_mb,
    }


def details(r: Runner) -> dict:
    return {**quality(r), "full_scan_share": float(np.mean(
        [x["coverage"] == 1.0 for x in r.records]))}


def layer_metrics(r: Runner, registry) -> Dict[str, float]:
    def mean_ms(name: str) -> float:
        values = common.durations(registry, name)
        return 1e3 * float(np.mean(values)) if values else 0.0

    n, recs = r.ops, r.records
    ledger = r.loop.metrics.energy
    recon_s = sum(common.durations(registry, "rmae.recon"))
    recon_macs = sum(r.models.rmae.reconstruction_macs(x["voxels"])
                     for x in recs)
    counters = registry.snapshot()["counters"]
    regret_calls = registry.snapshot()["histograms"].get(
        "kernels.likelihood_regret.score_rows_s", {}).get("count", 0)
    q = quality(r)
    return {
        "sim.scan_ms": mean_ms("sim.scan"),
        "sim.scan_share": sum(common.durations(registry, "sim.scan"))
        / sum(common.durations(registry, Runner.SPAN)),
        "sim.beams_fired": np.mean([x["beams"] for x in recs]),
        "voxel.voxelize_ms": mean_ms("voxel.voxelize"),
        "voxel.points": np.mean([x["points"] for x in recs]),
        "voxel.mask_ms": mean_ms("voxel.mask"),
        "rmae.recon_ms": mean_ms("rmae.recon"),
        "rmae.active_voxels": np.mean([x["voxels"] for x in recs]),
        "rmae.mac_rate": recon_macs / recon_s,
        "detect.ms": mean_ms("detect.detect"),
        "detect.detections": np.mean([len(x["detections"]) for x in recs]),
        "detect.map": q["detect_map"],
        "starnet.extract_ms": mean_ms("starnet.extract"),
        "starnet.assess_ms": mean_ms("starnet.trust"),
        "starnet.regret_rows": counters.get("starnet.assessments", 0.0)
        / max(regret_calls, 1),
        "starnet.rejected_share": np.mean([not x["trusted"] for x in recs]),
        "starnet.monitor_auc": q["monitor_auc"],
        "nn.macs_per_scan": r.models.macs.static_per_scan,
        "policy.act_ms": mean_ms("policy.act"),
        "loop.coverage_mean": np.mean([x["coverage"] for x in recs]),
        "energy.sensing_mj": ledger.sensing_mj / n,
        "energy.compute_mj": ledger.compute_mj / n,
        "energy.actuation_mj": ledger.actuation_mj / n,
    }
