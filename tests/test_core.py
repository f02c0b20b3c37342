"""Tests for the sensing-to-action loop abstraction (repro.core)."""

import numpy as np
import pytest

from repro.core import (
    Action,
    Actuator,
    CascadeModel,
    Environment,
    LoopSchedule,
    Monitor,
    Percept,
    Perception,
    Policy,
    RiskCoverageAdaptation,
    SensingToActionLoop,
    Sensor,
    SensorReading,
    Stage,
    closed_loop_gain_estimate,
    staleness_error,
    synchronization_delay,
)


# ------------------------------------------------- a minimal concrete loop
class ScalarEnv(Environment):
    """1-D integrator: state drifts up unless pushed down."""

    def __init__(self):
        self.state = 1.0
        self.drift = 0.5

    def observe_state(self):
        return self.state

    def advance(self, dt):
        self.state += self.drift * dt


class ScalarSensor(Sensor):
    def __init__(self):
        self.last_directive = {}

    def sense(self, env, directive, t):
        self.last_directive = dict(directive)
        coverage = directive.get("coverage", 1.0)
        return SensorReading(data=env.observe_state(), timestamp=t,
                             coverage=coverage, energy_mj=coverage * 10.0)


class ScalarPerception(Perception):
    def perceive(self, reading):
        return Percept(features=np.array([reading.data]),
                       estimate=reading.data)


class ProportionalPolicy(Policy):
    def act(self, percept, t):
        command = -percept.estimate if percept.confidence > 0 else 0.0
        return Action(command=command,
                      sensing_directive={"coverage": 0.5},
                      energy_mj=0.1)


class ScalarActuator(Actuator):
    def actuate(self, env, action, t):
        env.state += action.command
        return 0.05


class ThresholdMonitor(Monitor):
    def __init__(self, limit):
        self.limit = limit

    def assess(self, percept):
        return 1.0 if abs(percept.estimate) < self.limit else 0.0


def _make_loop(monitor=None, latency=0.0):
    return SensingToActionLoop(ScalarSensor(), ScalarPerception(),
                               ProportionalPolicy(), ScalarActuator(),
                               monitor=monitor, compute_latency_s=latency,
                               period_s=0.1)


def test_loop_runs_and_regulates():
    env = ScalarEnv()
    loop = _make_loop()
    metrics = loop.run(env, 30)
    assert metrics.cycles == 30
    assert abs(env.state) < 1.0  # regulated near zero despite drift


def test_loop_energy_accounting():
    env = ScalarEnv()
    loop = _make_loop()
    loop.run(env, 10)
    e = loop.metrics.energy
    assert e.sensing_mj > 0
    assert e.compute_mj == pytest.approx(10 * 0.1)
    assert e.actuation_mj == pytest.approx(10 * 0.05)


def test_action_to_sensing_directive_applied_next_cycle():
    env = ScalarEnv()
    loop = _make_loop()
    loop.run_cycle(env)  # first cycle: empty directive, full coverage
    assert loop.history[0].reading.coverage == 1.0
    loop.run_cycle(env)
    assert loop.history[1].reading.coverage == 0.5


def test_monitor_rejects_and_resets_directive():
    env = ScalarEnv()
    env.state = 100.0  # wildly out-of-distribution
    loop = _make_loop(monitor=ThresholdMonitor(limit=10.0))
    record = loop.run_cycle(env)
    assert not record.trusted
    assert record.percept.confidence == 0.0
    assert loop.metrics.rejected_cycles == 1
    # Next cycle falls back to full coverage.
    env.state = 0.0
    record2 = loop.run_cycle(env)
    assert record2.reading.coverage == 1.0


def test_compute_latency_makes_data_stale():
    env = ScalarEnv()
    loop = _make_loop(latency=0.05)
    record = loop.run_cycle(env)
    assert record.staleness_s == pytest.approx(0.05)
    assert loop.metrics.max_staleness_s == pytest.approx(0.05)


def test_latency_degrades_regulation():
    def final_state(latency):
        env = ScalarEnv()
        env.drift = 4.0
        loop = _make_loop(latency=latency)
        loop.run(env, 40)
        return abs(env.state)

    assert final_state(0.09) >= final_state(0.0)


def test_loop_validation():
    with pytest.raises(ValueError):
        SensingToActionLoop(ScalarSensor(), ScalarPerception(),
                            ProportionalPolicy(), ScalarActuator(),
                            period_s=0.0)
    with pytest.raises(ValueError):
        SensingToActionLoop(ScalarSensor(), ScalarPerception(),
                            ProportionalPolicy(), ScalarActuator(),
                            period_s=0.1, compute_latency_s=0.2)


# --------------------------------------------------------------- adaptation
def test_risk_coverage_bounds_and_hysteresis():
    adapt = RiskCoverageAdaptation(min_coverage=0.1, hysteresis=0.2)
    high = adapt.update(1.0)
    assert high == pytest.approx(1.0)
    # Small risk wiggle does not move coverage (hysteresis).
    assert adapt.update(0.95) == high
    low = adapt.update(0.0)
    assert low == pytest.approx(0.1)


def test_risk_coverage_directive():
    d = RiskCoverageAdaptation().directive(1.0)
    assert d["coverage"] == pytest.approx(1.0)


# ------------------------------------------------------------------ errors
def test_staleness_error_linear():
    assert staleness_error(2.0, 0.1) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        staleness_error(1.0, -0.1)


def test_cascade_stable_decays():
    model = CascadeModel(gain=0.5)
    traj = model.propagate(1.0, 10)
    assert traj[-1] < 1e-2
    assert model.stable


def test_cascade_unstable_grows():
    model = CascadeModel(gain=1.5)
    traj = model.propagate(0.01, 20)
    assert traj[-1] > 10
    assert not model.stable


def test_cascade_steady_state():
    model = CascadeModel(gain=0.8)
    ss = model.steady_state_error(0.1)
    traj = model.propagate(0.0, 200, injected=np.full(200, 0.1))
    assert traj[-1] == pytest.approx(ss, rel=1e-3)


def test_cascade_cycles_to_threshold():
    model = CascadeModel(gain=2.0)
    n = model.cycles_to_threshold(0.01, 1.0)
    assert n is not None
    traj = model.propagate(0.01, n)
    assert traj[-1] >= 1.0
    assert CascadeModel(gain=0.9).cycles_to_threshold(0.01, 1.0) is None


def test_gain_estimation_recovers_truth():
    model = CascadeModel(gain=0.7)
    traj = model.propagate(1.0, 30)
    assert closed_loop_gain_estimate(traj) == pytest.approx(0.7, abs=1e-6)


# -------------------------------------------------------------- scheduling
def test_sync_delay_is_slowest_stream():
    assert synchronization_delay([0.01, 0.1, 0.05]) == pytest.approx(0.1)
    assert synchronization_delay([]) == 0.0
    with pytest.raises(ValueError):
        synchronization_delay([0.1, 0.0])


def test_schedule_feasibility_and_slack():
    sched = LoopSchedule(period_s=0.1)
    sched.add_stage("sense", 0.02).add_stage("compute", 0.05, jitter_s=0.01)
    assert sched.feasible()
    assert sched.slack_s == pytest.approx(0.02)
    sched.add_stage("actuate", 0.03)
    assert not sched.feasible()


def test_schedule_staleness_excludes_sensing():
    sched = LoopSchedule(period_s=0.2)
    sched.add_stage("sense", 0.02).add_stage("fuse", 0.03)
    sched.add_stage("compute", 0.05)
    assert sched.staleness_at_actuation_s() == pytest.approx(0.08)


def test_schedule_critical_stage_and_rate():
    sched = LoopSchedule(period_s=1.0)
    sched.add_stage("a", 0.1).add_stage("b", 0.4)
    assert sched.critical_stage().name == "b"
    assert sched.max_rate_hz() == pytest.approx(2.0)


def test_stage_validation():
    with pytest.raises(ValueError):
        Stage("bad", -1.0)
