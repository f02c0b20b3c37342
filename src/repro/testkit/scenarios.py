"""The seven golden-trace scenarios — one end-to-end run per pillar.

Each scenario is a *fully seeded* miniature of one paper pillar,
recording its intermediate tensors and metrics into a
:class:`~repro.testkit.golden.Trace`:

* ``rmae_detect``     — R-MAE pretraining, masked reconstruction, and
  BEV detection fine-tuning (Sec. III);
* ``koopman_lqr``     — spectral Koopman fit + LQR closed-loop rollout
  (Sec. IV);
* ``starnet_monitor`` — VAE trust monitor scoring clean vs corrupted
  scans (Sec. V);
* ``snn_flow``        — spiking optical-flow training and AEE
  evaluation (Sec. VI);
* ``federated_round`` — two heterogeneity-aware federated rounds
  (Sec. VII); the only scenario with an *internal* parallel path
  (``FLServer.run_round(pool=...)``);
* ``control_adaptation`` — a corruption-ramp episode of a
  :class:`~repro.core.SensingToActionLoop` reconfigured mid-run by the
  :mod:`repro.control` plane (Sec. II/VIII); the golden pins the full
  decision trace (rule, actuator, old -> new, context snapshot).  The
  episode is purely analytic (no kernel-dispatched numerics) and never
  touches process-wide overrides, so its trace is bit-identical across
  kernel backends and both variants;
* ``scenario_sweep`` — a corruption-stack sweep through the
  :mod:`repro.scenario` engine (Sec. V at sweep scale): grid expansion,
  content-addressed replay against a temp store, fused stack
  application.  Content-derived seeding plus the bit-identical fused
  kernel make the whole trace — metric matrix, content-address keys,
  payload hash — exact under every check.

Every scenario supports two variants: ``float`` (the golden
reference) and ``quantized`` (identical training, then all learned
parameters are fake-quantized to :data:`QUANT_BITS` bits before
evaluation).  The training-phase records of both variants must be
bit-identical; only the evaluation fields named in each scenario's
tolerance spec may drift.

Determinism contract: every random draw comes from an explicitly seeded
generator, no wall-clock values are recorded, and telemetry is captured
under a private registry — so a scenario's trace is a pure function of
the code, regardless of pooling or caching.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from ..obs.export import deterministic_counters
from ..obs.registry import MetricsRegistry, use_registry
from .golden import Trace, TraceRecorder

__all__ = ["SCENARIOS", "VARIANTS", "QUANT_BITS", "run_scenario",
           "run_scenario_task", "scenario_names"]

VARIANTS = ("float", "quantized")
# Evaluation-phase fake-quantization width for the "quantized" variant:
# wide enough that drift stays within declared tolerances, narrow
# enough that an unquantized run cannot pass by accident.
QUANT_BITS = 16


def _quantize_parameters(*modules) -> None:
    """Fake-quantize every parameter of the given modules in place."""
    from ..nn.quantize import quantize
    for module in modules:
        for p in module.parameters():
            p.data[...] = quantize(p.data, QUANT_BITS)


# ------------------------------------------------------------ scenarios
def _rmae_detect(rec: TraceRecorder, variant: str, pool=None) -> None:
    from ..detect import BEVDetector, build_target_maps, finetune_detector
    from ..generative import RMAE, pretrain_rmae, reconstruction_iou
    from ..sim import LidarConfig, LidarScanner, sample_scene
    from ..voxel import RadialMaskConfig, VoxelGridConfig, radial_mask, voxelize

    grid = VoxelGridConfig(nx=12, ny=12, nz=2)
    lidar = LidarConfig(n_azimuth=36, n_elevation=6)
    rng = np.random.default_rng(101)
    scanner = LidarScanner(lidar, rng=rng)
    scenes = [sample_scene(rng, n_cars=2, n_pedestrians=1, n_cyclists=1)
              for _ in range(4)]
    scans = [scanner.scan(s) for s in scenes]
    clouds = [voxelize(s.points, s.labels, grid) for s in scans]
    rec.add("dataset",
            occupancy=np.stack([c.occupancy_dense() for c in clouds]),
            n_occupied=[c.num_occupied for c in clouds])

    model = RMAE(grid, rng=np.random.default_rng(102))
    mask_cfg = RadialMaskConfig()
    losses = pretrain_rmae(model, clouds[:3], mask_cfg, epochs=2,
                           rng=np.random.default_rng(103))
    rec.add("pretrain", losses=losses)

    detector = BEVDetector(grid, encoder=model,
                           rng=np.random.default_rng(104))
    pairs = [(clouds[i], build_target_maps(scenes[i], grid))
             for i in range(3)]
    det_losses = finetune_detector(detector, pairs, epochs=2,
                                   rng=np.random.default_rng(105))
    rec.add("finetune", losses=det_losses)

    if variant == "quantized":
        _quantize_parameters(model, detector)

    keep, _ = radial_mask(clouds[3], mask_cfg, np.random.default_rng(106))
    masked = clouds[3].masked(keep)
    prob = model.occupancy_probability(masked)
    iou = reconstruction_iou(prob > 0.5, clouds[3].occupancy_dense())
    rec.add("reconstruct", probability=prob, iou=iou)

    score_maps = detector.score_maps(clouds[3])
    detections = detector.detect(clouds[3])
    rec.add("detect", score_maps=score_maps,
            n_detections=len(detections),
            score_sum=float(sum(d.score for d in detections)))


_RMAE_TOLERANCES = {
    "reconstruct/probability*": {"atol": 5e-3, "rtol": 5e-3},
    "reconstruct/iou": {"atol": 0.1},
    "detect/score_maps*": {"atol": 5e-3, "rtol": 5e-3},
    "detect/n_detections": {"atol": 2},
    "detect/score_sum": {"atol": 0.5, "rtol": 0.1},
    "telemetry/counters/*": {"atol": 16, "rtol": 0.05},
}


def _koopman_lqr(rec: TraceRecorder, variant: str, pool=None) -> None:
    from ..koopman import (
        build_model,
        collect_transitions,
        fit_dynamics_model,
        make_controller,
        rollout_controller,
    )

    states, actions, next_states = collect_transitions(
        n_episodes=5, steps=40, rng=np.random.default_rng(201))
    rec.add("transitions", states=states, actions=actions,
            next_states=next_states)

    model = build_model("spectral_koopman", 4, 1,
                        rng=np.random.default_rng(202))
    losses = fit_dynamics_model(model, (states, actions, next_states),
                                epochs=30, rng=np.random.default_rng(203))
    rec.add("fit", losses=losses)

    if variant == "quantized":
        _quantize_parameters(model.op, model.lift, model.proj)

    controller = make_controller(model, np.random.default_rng(204))
    traj_states, traj_actions, reward = rollout_controller(
        controller, disturbance_p=0.0, steps=80, seed=205)
    rec.add("rollout", states=traj_states, actions=traj_actions,
            reward=reward, steps=len(traj_actions))


_KOOPMAN_TOLERANCES = {
    "rollout/states*": {"atol": 0.35, "rtol": 0.35},
    "rollout/actions*": {"atol": 0.35, "rtol": 0.35},
    "rollout/reward": {"atol": 2.0, "rtol": 0.05},
    "telemetry/counters/*": {"atol": 16, "rtol": 0.05},
}


def _starnet_monitor(rec: TraceRecorder, variant: str, pool=None) -> None:
    from ..generative import RMAE, pretrain_rmae
    from ..metrics import roc_auc
    from ..starnet import LidarFeatureExtractor, STARNet, corruption_scores, generate_scans
    from ..voxel import VoxelGridConfig, voxelize

    grid = VoxelGridConfig(nx=12, ny=12, nz=2)
    from ..sim import LidarConfig
    lidar = LidarConfig(n_azimuth=36, n_elevation=6)
    fit_scans = generate_scans(10, lidar, seed=301)
    test_scans = generate_scans(5, lidar, seed=302)

    rmae = RMAE(grid, rng=np.random.default_rng(303))
    fit_clouds = [voxelize(s.points, s.labels, grid) for s in fit_scans[:6]]
    pre_losses = pretrain_rmae(rmae, fit_clouds, epochs=1,
                               rng=np.random.default_rng(304))
    extractor = LidarFeatureExtractor(rmae, grid)
    features = extractor.extract_batch(fit_scans)
    rec.add("features", features=features, losses=pre_losses)

    monitor = STARNet(extractor.feature_dim, score_method="recon",
                      rng=np.random.default_rng(305))
    vae_losses = monitor.fit(features, epochs=8)
    rec.add("fit", losses=vae_losses)

    if variant == "quantized":
        _quantize_parameters(monitor.vae)

    clean = [monitor.score(extractor.extract(s)) for s in test_scans]
    results: Dict[str, List[float]] = {"clean": clean}
    aucs: Dict[str, float] = {}
    for name, seed in (("snow", 306), ("fog", 307)):
        bad = corruption_scores(monitor, extractor, test_scans, name,
                                severity=0.6, seed=seed)
        results[name] = bad
        aucs[name] = roc_auc(np.array(clean + bad),
                             np.array([0] * len(clean) + [1] * len(bad)))
    rec.add("scores", **results)
    rec.add("auc", **aucs)


_STARNET_TOLERANCES = {
    "scores/*": {"atol": 0.05, "rtol": 0.05},
    "auc/*": {"atol": 0.2},
    "telemetry/counters/*": {"atol": 16, "rtol": 0.05},
}


def _snn_flow(rec: TraceRecorder, variant: str, pool=None) -> None:
    from ..neuromorphic import build_flow_model, per_sample_aee, train_flow_model
    from ..sim import make_flow_dataset

    train = make_flow_dataset(8, seed=401, max_displacement=2.0)
    test = make_flow_dataset(4, seed=402, max_displacement=2.0)
    model = build_flow_model("adaptive_spikenet", channels=6,
                             rng=np.random.default_rng(403))
    losses = train_flow_model(model, train, epochs=3,
                              rng=np.random.default_rng(404))
    rec.add("train", losses=losses)

    if variant == "quantized":
        _quantize_parameters(model)

    errors = per_sample_aee(model, test)
    rec.add("evaluate", per_sample_aee=errors,
            mean_aee=float(np.mean(errors)),
            prediction=model.predict(test[0]))


_SNN_TOLERANCES = {
    "evaluate/per_sample_aee*": {"atol": 0.3, "rtol": 0.3},
    "evaluate/mean_aee": {"atol": 0.3, "rtol": 0.3},
    "evaluate/prediction*": {"atol": 0.5, "rtol": 0.5},
    "telemetry/counters/*": {"atol": 64, "rtol": 0.2},
}


def _federated_round(rec: TraceRecorder, variant: str, pool=None) -> None:
    from ..federated import FLClient, FLServer, make_fleet
    from ..nn.quantize import quantize
    from ..sim import make_synthetic_cifar, shard_dirichlet

    ds = make_synthetic_cifar(n_per_class=10, seed=501)
    train, test = ds.split(0.25, np.random.default_rng(502))
    shards = shard_dirichlet(train, 3, alpha=0.5,
                             rng=np.random.default_rng(503))
    fleet = make_fleet(3, rng=np.random.default_rng(504))
    clients = [FLClient(i, s, p, rng=np.random.default_rng(510 + i))
               for i, (s, p) in enumerate(zip(shards, fleet))]
    server = FLServer(clients, test, hidden=16, mode="dcnas+halo",
                      rng=np.random.default_rng(505))
    for _ in range(2):
        summary = server.run_round(pool=pool)
        rec.add(f"round{summary.round_index}",
                accuracy=summary.test_accuracy,
                energy_mj=summary.total_energy_mj,
                latency_ms=summary.max_latency_ms,
                train_loss=summary.mean_train_loss,
                comm_bytes=summary.comm_bytes,
                client_hidden=summary.client_hidden,
                client_bits=summary.client_bits)

    if variant == "quantized":
        server.global_weights = [quantize(w, QUANT_BITS)
                                 for w in server.global_weights]

    rec.add("global_model",
            weights=np.concatenate([w.ravel()
                                    for w in server.global_weights]),
            fingerprint=server.weights_fingerprint(),
            final_accuracy=server.evaluate())


_FEDERATED_TOLERANCES = {
    "global_model/weights*": {"atol": 1e-3, "rtol": 1e-3},
    "global_model/fingerprint": {"ignore": True},
    "global_model/final_accuracy": {"atol": 0.1},
    "telemetry/counters/*": {"atol": 16, "rtol": 0.05},
}


def _control_adaptation(rec: TraceRecorder, variant: str, pool=None) -> None:
    """Corruption-ramp control episode: trust dips, the controller
    boosts sensing / switches the monitor method / drops precision, and
    reverts as the corruption clears.  Entirely analytic (plain float
    math plus one seeded gaussian stream) under a VirtualClock: no
    kernel dispatch, no process-wide overrides, no wall-clock reads —
    so the recorded decision trace is bit-identical regardless of
    backend, pooling, caching, or variant."""
    from ..control import (
        ActuatorRegistry,
        Controller,
        LoopControlBinding,
        Rule,
        attr_actuator,
        precision_bits_actuator,
    )
    from ..core.clock import VirtualClock
    from ..core.components import (
        Action,
        Actuator,
        Environment,
        Monitor,
        Percept,
        Perception,
        Policy,
        Sensor,
        SensorReading,
    )
    from ..core.loop import SensingToActionLoop

    class RampEnvironment(Environment):
        """Scripted corruption severity: ramp up, plateau, ramp down."""

        def __init__(self):
            self.t = 0.0

        def observe_state(self) -> float:
            t = self.t
            if t < 0.3:
                return 0.0
            if t < 1.1:
                return 0.9 * (t - 0.3) / 0.8
            if t < 1.4:
                return 0.9
            if t < 2.1:
                return 0.9 * (2.1 - t) / 0.7
            return 0.0

        def advance(self, dt: float) -> None:
            self.t += dt

    class FractionSensor(Sensor):
        """Sensing fraction is the actuated knob; energy ~ fraction^2."""

        def __init__(self):
            self.fraction = 0.3
            self.severities: List[float] = []

        def sense(self, env, directive, t) -> SensorReading:
            severity = float(env.observe_state())
            self.severities.append(severity)
            f = self.fraction
            return SensorReading(
                data=severity, timestamp=t, coverage=f,
                energy_mj=0.5 * f * f, modality="synthetic",
                meta={"severity": severity})

    class PassThrough(Perception):
        def perceive(self, reading) -> Percept:
            return Percept(
                features=np.array([reading.data, reading.coverage]),
                estimate=reading.data, confidence=1.0,
                meta={"severity": reading.data,
                      "coverage": reading.coverage})

    class CorruptionMonitor(Monitor):
        """Trust falls with severity; dense sensing partially masks it."""

        def __init__(self, rng):
            self.method = "spsa"
            self.rng = rng

        def assess(self, percept) -> float:
            severity = percept.meta["severity"]
            coverage = percept.meta["coverage"]
            noise = float(self.rng.normal(0.0, 0.003))
            return float(min(1.0, max(
                0.0, 1.0 - severity * (1.05 - coverage) + noise)))

    class PrecisionModel:
        bits = 32

    class MethodAwarePolicy(Policy):
        """Compute energy tracks the monitor method and precision bits."""

        COST = {"spsa": 0.02, "exact": 0.06}

        def __init__(self, monitor, model):
            self.monitor = monitor
            self.model = model

        def act(self, percept, t) -> Action:
            energy = self.COST[self.monitor.method] * (self.model.bits / 32.0)
            return Action(command=float(percept.confidence),
                          energy_mj=energy)

    class NullActuator(Actuator):
        def actuate(self, env, action, t) -> float:
            return 0.0

    sensor = FractionSensor()
    monitor = CorruptionMonitor(np.random.default_rng(601))
    model = PrecisionModel()
    registry = ActuatorRegistry()
    attr_actuator(registry, "sensor.fraction", sensor, "fraction",
                  bounds=(0.1, 1.0))
    attr_actuator(registry, "monitor.method", monitor, "method",
                  choices=("spsa", "exact"))
    precision_bits_actuator(registry, model, name="model.bits")
    controller = Controller([
        # Corruption drives trust down -> sense densely; clear -> cheap.
        Rule("sensing_boost", signal="trust", actuator="sensor.fraction",
             low=0.55, high=0.92, low_value=0.9, high_value=0.3,
             cooldown_s=0.2),
        # Dense-sensing regime warrants the exact regret method.
        Rule("regret_method", signal="coverage", actuator="monitor.method",
             low=0.4, high=0.6, low_value="spsa", high_value="exact",
             cooldown_s=0.1),
        # Energy pressure from dense sensing -> drop precision bits.
        Rule("precision", signal="energy_window_mj", actuator="model.bits",
             low=0.1, high=0.3, low_value=32, high_value=8,
             cooldown_s=0.1),
    ], registry)
    binding = LoopControlBinding(controller)

    loop = SensingToActionLoop(
        sensor, PassThrough(), MethodAwarePolicy(monitor, model),
        NullActuator(), monitor=monitor, trust_threshold=0.4,
        compute_latency_s=0.01, period_s=0.05,
        clock=VirtualClock(), controller=binding)
    env = RampEnvironment()
    metrics = loop.run(env, 48)

    rec.add("episode",
            severity=np.array(sensor.severities),
            trust=np.array([r.trust for r in loop.history]),
            coverage=np.array([r.reading.coverage for r in loop.history]),
            final_fraction=sensor.fraction,
            final_method=monitor.method,
            final_bits=model.bits)
    rec.add("decisions",
            trace=controller.decision_trace(),
            n_decisions=len(controller.decisions),
            steps=controller.steps,
            suppressed_cooldown=controller.suppressed_cooldown)
    rec.add("summary",
            energy=metrics.energy.as_dict(),
            cycles=metrics.cycles,
            rejected_cycles=metrics.rejected_cycles,
            mean_coverage=metrics.mean_coverage)


# The control scenario is analytic end to end, so every field —
# including the discrete decision trace — must reproduce bit-for-bit
# under every check; only the shared counter slack is declared.
_CONTROL_TOLERANCES = {
    "telemetry/counters/*": {"atol": 16, "rtol": 0.05},
}


def _scenario_sweep(rec: TraceRecorder, variant: str, pool=None) -> None:
    """A miniature corruption-stack sweep through the full scenario
    engine: grid expansion, content-addressed replay against a fresh
    temp store, and stack application via the two-backend
    ``corruption_stack`` kernel (fused by default, *bit-identical* to
    the per-stage reference — so this trace declares zero kernel
    drift).  Severity-0 stages are included deliberately: their exact-
    identity filtering is part of the contract under test.  Runs the
    engine at one worker internally (the pooled differential already
    executes the whole scenario inside a worker process; ``workers=1``
    never forks), and nothing host-specific — no paths, no wall-clock
    — is recorded."""
    import shutil
    import tempfile

    from ..scenario import ReplayStore, SweepPlan, run_sweep, stack_grid

    stacks = stack_grid(("snow", "fog", "crosstalk"),
                        (0.0, 0.5, 1.0), depth=2)
    plan = SweepPlan(stacks=tuple(stacks), platforms=("vehicle",),
                     traffics=("urban",), seeds=(0,),
                     evaluator="scan_stats")
    tmp = tempfile.mkdtemp(prefix="repro-golden-sweep-")
    try:
        store = ReplayStore(tmp)
        cold = run_sweep(plan, workers=1, store=store)
        warm = run_sweep(plan, workers=1, store=store)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metric_names = sorted(cold.metrics[0])
    matrix = np.array([[row[name] for name in metric_names]
                       for row in cold.metrics])
    rec.add("sweep",
            n_scenarios=cold.count,
            keys=list(cold.keys),
            metric_names=metric_names,
            metrics=matrix,
            executed=cold.executed,
            replayed=cold.replayed,
            payload_sha=cold.payload_sha())
    rec.add("replay",
            executed=warm.executed,
            replayed=warm.replayed,
            warm_matches_cold=bool(
                warm.payload_sha() == cold.payload_sha()))


# The sweep is deterministic end to end — content-derived seeds, exact
# replay, bit-identical fused kernel — so every field (including the
# content-address keys and payload hash) must reproduce bit-for-bit;
# only the shared counter slack is declared.
_SCENARIO_SWEEP_TOLERANCES = {
    "telemetry/counters/*": {"atol": 16, "rtol": 0.05},
}


ScenarioFn = Callable[[TraceRecorder, str, Optional[object]], None]

SCENARIOS: Dict[str, tuple] = {
    "rmae_detect": (_rmae_detect, _RMAE_TOLERANCES),
    "koopman_lqr": (_koopman_lqr, _KOOPMAN_TOLERANCES),
    "starnet_monitor": (_starnet_monitor, _STARNET_TOLERANCES),
    "snn_flow": (_snn_flow, _SNN_TOLERANCES),
    "federated_round": (_federated_round, _FEDERATED_TOLERANCES),
    "control_adaptation": (_control_adaptation, _CONTROL_TOLERANCES),
    "scenario_sweep": (_scenario_sweep, _SCENARIO_SWEEP_TOLERANCES),
}

# Extra per-field tolerances applied ONLY when a vectorized-backend run
# is compared against the reference-recorded goldens (the ``kernels``
# differential, and the serial/quantized checks when ``REPRO_KERNELS``
# selects the vectorized backend).  The vectorized kernels re-associate
# floating-point reductions — a stacked GEMM instead of per-site GEMVs
# in the sparse conv, one batched-time conv instead of T small ones in
# the SNN, whole-batch decoder calls in likelihood regret — so fields
# downstream of those reductions drift at the last-ulp level.  Observed
# drift on the seeded scenarios is <= 3e-14 relative; the 1e-6 bounds
# below leave ~1e7 headroom for other BLAS builds while staying orders
# of magnitude below any real regression.  Fields not listed here (and
# not already tolerance-spec'd by their scenario) must still match the
# goldens bit-for-bit: koopman_lqr and federated_round use only dense
# layers, touch no kernel-dispatched path, and therefore declare no
# drift at all.
KERNEL_DRIFT_TOLERANCES: Dict[str, Dict[str, Dict[str, float]]] = {
    "rmae_detect": {
        "pretrain/losses*": {"atol": 1e-6, "rtol": 1e-6},
        "finetune/losses*": {"atol": 1e-6, "rtol": 1e-6},
    },
    "koopman_lqr": {},
    "starnet_monitor": {
        "features/features*": {"atol": 1e-6, "rtol": 1e-6},
        "features/losses*": {"atol": 1e-6, "rtol": 1e-6},
        "fit/losses*": {"atol": 1e-6, "rtol": 1e-6},
    },
    "snn_flow": {
        "train/losses*": {"atol": 1e-6, "rtol": 1e-6},
    },
    "federated_round": {},
    # Analytic loop, no kernel dispatch: zero drift by construction.
    "control_adaptation": {},
    # The fused corruption stack is bit-identical to the reference by
    # construction (same draws, same ufuncs, same order): zero drift.
    "scenario_sweep": {},
}


def scenario_names() -> List[str]:
    return list(SCENARIOS)


# --------------------------------------------------------------- running
def run_scenario(name: str, variant: str = "float",
                 pool=None) -> Trace:
    """Execute one scenario; returns its canonicalized trace.

    Telemetry is captured under a private registry and appended as a
    final ``telemetry`` record (strategy-dependent ``runtime.*``
    counters excluded), so the trace is identical no matter where or
    how the scenario ran.
    """
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; choose from "
                       f"{', '.join(SCENARIOS)}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from "
                         f"{VARIANTS}")
    fn, tolerances = SCENARIOS[name]
    rec = TraceRecorder(name, tolerances)
    registry = MetricsRegistry()
    with use_registry(registry):
        fn(rec, variant, pool)
    rec.add("telemetry", counters=deterministic_counters(registry))
    return rec.trace


def run_scenario_task(item) -> Trace:
    """Picklable pool-task wrapper: ``item`` is ``name`` or
    ``(name, variant)``; used to fan scenario recording out over a
    :class:`repro.runtime.WorkerPool`."""
    if isinstance(item, str):
        return run_scenario(item)
    name, variant = item
    return run_scenario(name, variant=variant)
