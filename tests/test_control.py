"""Tests for the context-aware reconfiguration control plane
(``repro.control``).

Everything deterministic runs under a :class:`VirtualClock` (or the
loop's simulated timebase): actuator registry semantics and scoped
revert, rule validation and hysteresis/cooldown firing, the
``REPRO_CONTROL`` kill switch, the kernel-backend actuator, loop
and micro-batcher integration.  The one threaded test exercises a real
:class:`BatchedService` whose controller retunes the batch size
mid-stream, mirroring ``tests/test_serve.py``.  A static scan pins the
package's no-wall-clock contract at the source level.
"""

import os

import numpy as np
import pytest

from repro.control import (
    ActuatorRegistry,
    ContextSnapshot,
    ControlError,
    Controller,
    EnergyWindow,
    LoopControlBinding,
    Rule,
    ServiceControlBinding,
    SignalSource,
    attr_actuator,
    config_field_actuator,
    control_enabled,
    kernel_backend_actuator,
    microbatcher_actuators,
    precision_bits_actuator,
)
from repro.core import (
    Action,
    Actuator,
    Environment,
    Percept,
    Perception,
    Policy,
    SensingToActionLoop,
    Sensor,
    SensorReading,
    VirtualClock,
)
from repro.hardware.energy import EnergyLedger
from repro.kernels import active_backend
from repro.serve import BatcherConfig, MicroBatcher


class Knob:
    def __init__(self, x=1.0, mode="a"):
        self.x = x
        self.mode = mode


def make_controller(rules=None, knob=None, **kwargs):
    knob = knob or Knob()
    registry = ActuatorRegistry()
    attr_actuator(registry, "knob.x", knob, "x", bounds=(0.0, 10.0))
    attr_actuator(registry, "knob.mode", knob, "mode", choices=("a", "b"))
    rules = rules if rules is not None else [
        Rule("r", signal="s", actuator="knob.x",
             low=0.2, high=0.8, low_value=9.0, high_value=1.0)]
    return Controller(rules, registry, enabled=True), registry, knob


# ------------------------------------------------------------- actuators
def test_actuator_requires_bounds_xor_choices():
    registry = ActuatorRegistry()
    knob = Knob()
    with pytest.raises(ControlError, match="exactly one"):
        registry.register("k", lambda: knob.x,
                          lambda v: setattr(knob, "x", v))
    with pytest.raises(ControlError, match="exactly one"):
        registry.register("k", lambda: knob.x,
                          lambda v: setattr(knob, "x", v),
                          bounds=(0, 1), choices=("a",))


def test_numeric_bounds_clamp_and_int_bounds_stay_integral():
    registry = ActuatorRegistry()
    knob = Knob()
    act = attr_actuator(registry, "f", knob, "x", bounds=(0.5, 2.0))
    act.set(99.0)
    assert knob.x == 2.0
    act.set(-1.0)
    assert knob.x == 0.5
    iknob = Knob(x=4)
    iact = attr_actuator(registry, "i", iknob, "x", bounds=(1, 8))
    iact.set(3.7)
    assert iknob.x == 4 and isinstance(iknob.x, int)
    iact.set(100)
    assert iknob.x == 8


def test_categorical_rejects_unknown_choice():
    registry = ActuatorRegistry()
    act = attr_actuator(registry, "m", Knob(), "mode", choices=("a", "b"))
    with pytest.raises(ControlError, match="not in declared choices"):
        act.set("c")


def test_set_returns_previous_value():
    registry = ActuatorRegistry()
    knob = Knob(x=1.5)
    act = attr_actuator(registry, "f", knob, "x", bounds=(0.0, 10.0))
    assert act.set(3.0) == 1.5
    assert act.set(4.0) == 3.0


def test_registry_names_contains_and_unknown_errors():
    registry = ActuatorRegistry()
    attr_actuator(registry, "f", Knob(), "x", bounds=(0, 1))
    assert registry.names() == ("f",)
    assert "f" in registry and "g" not in registry
    with pytest.raises(ControlError, match="unknown actuator"):
        registry.get("g")
    with pytest.raises(ControlError, match="already registered"):
        attr_actuator(registry, "f", Knob(), "x", bounds=(0, 1))


def test_scope_reverts_on_exit_and_on_exception():
    registry = ActuatorRegistry()
    knob = Knob(x=1.0, mode="a")
    attr_actuator(registry, "f", knob, "x", bounds=(0.0, 10.0))
    attr_actuator(registry, "m", knob, "mode", choices=("a", "b"))
    with registry.scope():
        registry.set("f", 5.0)
        registry.set("m", "b")
        assert (knob.x, knob.mode) == (5.0, "b")
    assert (knob.x, knob.mode) == (1.0, "a")
    with pytest.raises(RuntimeError, match="boom"):
        with registry.scope():
            registry.set("f", 7.0)
            raise RuntimeError("boom")
    assert knob.x == 1.0


def test_config_field_actuator_replaces_frozen_config():
    batcher = MicroBatcher(lambda xs: xs,
                           BatcherConfig(max_batch_size=2,
                                         max_queue_depth=32),
                           clock=VirtualClock())
    registry = ActuatorRegistry()
    act = config_field_actuator(registry, "b", batcher, "max_batch_size",
                                bounds=(1, 16))
    original = batcher.config
    act.set(8)
    assert batcher.config.max_batch_size == 8
    assert original.max_batch_size == 2  # frozen value untouched
    with pytest.raises(ControlError, match="no field"):
        config_field_actuator(registry, "bad", batcher, "nope",
                              bounds=(0, 1))


def test_kernel_and_compile_actuators_revert_under_scope():
    from repro.kernels import force_backend

    registry = ActuatorRegistry()
    kernel_backend_actuator(registry)
    backend0 = active_backend()
    other = "reference" if backend0 == "vectorized" else "vectorized"
    try:
        with registry.scope():
            registry.set("kernel_backend", other)
            assert active_backend() == other
        assert active_backend() == backend0
    finally:
        # The scope revert re-installs the *resolved* value as a forced
        # override (the actuator cannot see "no override"); clear it so
        # env-var selection keeps working for the rest of the session.
        force_backend(None)


def test_precision_bits_actuator_choices():
    registry = ActuatorRegistry()
    model = Knob(x=32)
    precision_bits_actuator(registry, model, attr="x")
    registry.set("precision_bits", 8)
    assert model.x == 8
    with pytest.raises(ControlError):
        registry.set("precision_bits", 7)


# ----------------------------------------------------------------- rules
def test_rule_validation():
    with pytest.raises(ControlError, match="low < high"):
        Rule("r", "s", "a", low=0.8, high=0.2, low_value=1, high_value=2)
    with pytest.raises(ControlError, match="identical"):
        Rule("r", "s", "a", low=0.2, high=0.8, low_value=1, high_value=1)
    with pytest.raises(ControlError, match="cooldown"):
        Rule("r", "s", "a", low=0.2, high=0.8, low_value=1, high_value=2,
             cooldown_s=-1.0)


def test_controller_validates_wiring_at_construction():
    registry = ActuatorRegistry()
    attr_actuator(registry, "m", Knob(), "mode", choices=("a", "b"))
    rule = Rule("r", "s", "m", low=0.2, high=0.8,
                low_value="a", high_value="b")
    with pytest.raises(ControlError, match="duplicate rule"):
        Controller([rule, rule], registry, enabled=True)
    with pytest.raises(ControlError, match="unregistered actuator"):
        Controller([Rule("q", "s", "ghost", low=0, high=1,
                         low_value=1, high_value=2)],
                   registry, enabled=True)
    with pytest.raises(ControlError, match="not in actuator"):
        Controller([Rule("q", "s", "m", low=0, high=1,
                         low_value="a", high_value="z")],
                   registry, enabled=True)


def test_hysteresis_band_fires_nothing():
    controller, _, knob = make_controller()
    controller.step(ContextSnapshot(t=0.0, signals={"s": 0.5}))
    assert knob.x == 1.0 and controller.decisions == []
    controller.step(ContextSnapshot(t=1.0, signals={"s": 0.1}))
    assert knob.x == 9.0
    controller.step(ContextSnapshot(t=2.0, signals={"s": 0.5}))
    assert knob.x == 9.0  # band holds the last setting
    controller.step(ContextSnapshot(t=3.0, signals={"s": 0.9}))
    assert knob.x == 1.0
    assert [d.rule for d in controller.decisions] == ["r", "r"]
    assert [d.old for d in controller.decisions] == [1.0, 9.0]


def test_missing_signal_leaves_rule_dormant():
    controller, _, knob = make_controller()
    controller.step(ContextSnapshot(t=0.0, signals={"other": 0.0}))
    assert knob.x == 1.0 and controller.steps == 1


def test_cooldown_suppresses_then_allows():
    controller, _, knob = make_controller(rules=[
        Rule("r", signal="s", actuator="knob.x",
             low=0.2, high=0.8, low_value=9.0, high_value=1.0,
             cooldown_s=1.0)])
    controller.step(ContextSnapshot(t=0.0, signals={"s": 0.0}))
    assert knob.x == 9.0
    controller.step(ContextSnapshot(t=0.5, signals={"s": 1.0}))
    assert knob.x == 9.0 and controller.suppressed_cooldown == 1
    controller.step(ContextSnapshot(t=1.0, signals={"s": 1.0}))
    assert knob.x == 1.0
    assert controller.last_fired("r") == 1.0


def test_no_refire_when_already_at_target():
    controller, _, knob = make_controller()
    for t in range(5):
        controller.step(ContextSnapshot(t=float(t), signals={"s": 0.0}))
    assert len(controller.decisions) == 1  # applied once, then steady


def test_disabled_controller_is_inert():
    registry = ActuatorRegistry()
    knob = Knob()
    attr_actuator(registry, "knob.x", knob, "x", bounds=(0.0, 10.0))
    controller = Controller(
        [Rule("r", "s", "knob.x", low=0.2, high=0.8,
              low_value=9.0, high_value=1.0)],
        registry, enabled=False)
    assert controller.step(ContextSnapshot(t=0.0, signals={"s": 0.0})) == []
    assert knob.x == 1.0 and controller.steps == 0


def test_repro_control_env_gate(monkeypatch):
    monkeypatch.setenv("REPRO_CONTROL", "off")
    assert not control_enabled()
    registry = ActuatorRegistry()
    knob = Knob()
    attr_actuator(registry, "knob.x", knob, "x", bounds=(0.0, 10.0))
    env_controller = Controller(
        [Rule("r", "s", "knob.x", low=0.2, high=0.8,
              low_value=9.0, high_value=1.0)], registry)  # enabled=None
    env_controller.step(ContextSnapshot(t=0.0, signals={"s": 0.0}))
    assert knob.x == 1.0
    monkeypatch.setenv("REPRO_CONTROL", "on")
    assert control_enabled()
    monkeypatch.setenv("REPRO_CONTROL", "maybe")
    with pytest.raises(ControlError, match="REPRO_CONTROL"):
        control_enabled()


def test_decision_trace_and_bounded_retention():
    registry = ActuatorRegistry()
    knob = Knob()
    attr_actuator(registry, "knob.x", knob, "x", bounds=(0.0, 10.0))
    controller = Controller(
        [Rule("r", "s", "knob.x", low=0.2, high=0.8,
              low_value=9.0, high_value=1.0)],
        registry, enabled=True, max_decisions=3)
    for i in range(6):  # alternate below/above the band every step
        s = 0.0 if i % 2 == 0 else 1.0
        controller.step(ContextSnapshot(t=float(i), signals={"s": s}))
    assert len(controller.decisions) == 3
    assert controller.dropped_decisions == 3
    trace = controller.decision_trace()
    assert [d["t"] for d in trace] == [3.0, 4.0, 5.0]
    assert {"t", "rule", "actuator", "signal", "signal_value", "old",
            "new", "context"} <= set(trace[0])


# --------------------------------------------------------------- signals
def test_energy_window_read_resets_peek_does_not():
    ledger = EnergyLedger()
    window = EnergyWindow(ledger)
    ledger.charge_sensing(2.0)
    assert window.peek()["sensing_mj"] == pytest.approx(2.0)
    assert window.peek()["sensing_mj"] == pytest.approx(2.0)
    assert window.read()["total_mj"] == pytest.approx(2.0)
    assert window.read()["total_mj"] == pytest.approx(0.0)


def test_signal_source_omits_none_and_merges_extra():
    source = SignalSource()
    source.register("a", lambda: 1.0)
    source.register("b", lambda: None)
    snap = source.sample(2.5, extra={"c": 3})
    assert snap.t == 2.5
    assert snap.signals == {"a": 1.0, "c": 3.0}
    assert snap.get("b") is None
    assert snap.as_dict()["t"] == 2.5


# ------------------------------------------------------ loop integration
class _FractionSensor(Sensor):
    def __init__(self):
        self.fraction = 0.3

    def sense(self, env, directive, t):
        return SensorReading(data=np.zeros(2), timestamp=t,
                             coverage=self.fraction)


class _PassPerception(Perception):
    def perceive(self, reading):
        return Percept(features=np.asarray(reading.data))


class _NullPolicy(Policy):
    def act(self, percept, t):
        return Action(command=None)


class _NullActuator(Actuator):
    def actuate(self, env, action, t):
        return 0.0


class _ScriptedEnv(Environment):
    def observe_state(self):
        return np.zeros(2)

    def advance(self, dt):
        pass


class _ScriptedMonitor:
    """Trust follows a script, indexed by assessment count."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def assess(self, percept):
        trust = self.script[min(self.calls, len(self.script) - 1)]
        self.calls += 1
        return trust


def test_loop_controller_retunes_sensing_fraction():
    sensor = _FractionSensor()
    registry = ActuatorRegistry()
    attr_actuator(registry, "sensor.fraction", sensor, "fraction",
                  bounds=(0.1, 1.0))
    controller = Controller(
        [Rule("boost", signal="trust", actuator="sensor.fraction",
              low=0.55, high=0.92, low_value=0.9, high_value=0.3)],
        registry, enabled=True)
    monitor = _ScriptedMonitor([1.0, 1.0, 0.4, 0.4, 1.0, 1.0])
    loop = SensingToActionLoop(
        sensor, _PassPerception(), _NullPolicy(), _NullActuator(),
        monitor=monitor, trust_threshold=0.2, period_s=0.05,
        clock=VirtualClock(),
        controller=LoopControlBinding(controller))
    loop.run(_ScriptedEnv(), 6)
    coverages = [r.reading.coverage for r in loop.history]
    # Trust dips at cycle 2 -> the *next* cycle senses at 0.9; recovers
    # at cycle 4 -> cycle 5 is lean again.
    assert coverages == [0.3, 0.3, 0.3, 0.9, 0.9, 0.3]
    trace = controller.decision_trace()
    assert [d["new"] for d in trace] == [0.9, 0.3]
    # Snapshots are stamped with loop.t (simulated time), which at the
    # cycle-end hook reads (cycle_index + 1) * period_s.
    assert trace[0]["t"] == pytest.approx(3 * 0.05)
    assert loop.metrics.cycles == 6


def test_loop_binding_interval_and_energy_signal():
    sensor = _FractionSensor()
    registry = ActuatorRegistry()
    attr_actuator(registry, "sensor.fraction", sensor, "fraction",
                  bounds=(0.1, 1.0))
    controller = Controller([
        Rule("nop", signal="trust", actuator="sensor.fraction",
             low=-2.0, high=-1.0, low_value=0.9, high_value=0.3)],
        registry, enabled=True)
    binding = LoopControlBinding(controller, interval_cycles=3)
    seen = []
    binding.add_signal("probe", lambda: seen.append(1) or 1.0)
    loop = SensingToActionLoop(
        sensor, _PassPerception(), _NullPolicy(), _NullActuator(),
        monitor=_ScriptedMonitor([1.0]), period_s=0.05,
        clock=VirtualClock(), controller=binding)
    loop.run(_ScriptedEnv(), 7)
    assert controller.steps == 2  # cycles 3 and 6 only
    assert len(seen) == 2
    with pytest.raises(ValueError):
        LoopControlBinding(controller, interval_cycles=0)


# ------------------------------------------------- batcher integration
def test_microbatcher_controller_retunes_batch_size():
    clock = VirtualClock()
    batcher = MicroBatcher(lambda xs: xs,
                           BatcherConfig(max_batch_size=2, max_wait_ms=0.0,
                                         max_queue_depth=64),
                           clock=clock)
    registry = ActuatorRegistry()
    microbatcher_actuators(registry, batcher, prefix="serve")
    controller = Controller(
        [Rule("batch_up", signal="queue_depth",
              actuator="serve.max_batch_size",
              low=1.0, high=4.0, low_value=2, high_value=8)],
        registry, enabled=True)
    batcher.controller = ServiceControlBinding(controller)

    for i in range(8):
        batcher.submit(i)
    # First poll runs a batch of 2; the post-batch hook sees 6 queued
    # (>= high) and raises max_batch_size to 8 for the next poll.
    assert batcher.poll() == 2
    assert batcher.config.max_batch_size == 8
    assert batcher.poll() == 6
    assert controller.decision_trace()[0]["new"] == 8


def test_batched_service_threaded_controller_adapts():
    import threading

    from repro.serve import BatchedService

    registry = ActuatorRegistry()
    state = {"service": None}

    def runner(items):
        return [x * x for x in items]

    config = BatcherConfig(max_batch_size=2, max_wait_ms=20.0,
                           max_queue_depth=64)
    controller_holder = {}

    with BatchedService(runner, config) as service:
        microbatcher_actuators(registry, service.batcher, prefix="serve")
        controller = Controller(
            [Rule("batch_up", signal="queue_depth",
                  actuator="serve.max_batch_size",
                  low=0.5, high=3.0, low_value=2, high_value=8)],
            registry, enabled=True)
        service.batcher.controller = ServiceControlBinding(controller)
        controller_holder["c"] = controller
        state["service"] = service

        results = {}

        def client(i):
            results[i] = service.submit(i, timeout=10.0)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert results == {i: i * i for i in range(16)}
    # The hook ran under the batcher lock after every batch; whether the
    # rule fired depends on thread interleaving, but the controller
    # must have stepped and any applied setting must be admissible.
    controller = controller_holder["c"]
    assert controller.steps >= 1
    assert state["service"].batcher.config.max_batch_size in (2, 8)


# ------------------------------------------------------ source hygiene
def test_control_package_never_reads_the_wall_clock():
    import repro.control as control_pkg

    pkg_dir = os.path.dirname(control_pkg.__file__)
    offenders = []
    for fname in sorted(os.listdir(pkg_dir)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(pkg_dir, fname)) as f:
            source = f.read()
        for needle in ("time.sleep", "time.time(", "time.monotonic(",
                       "time.perf_counter(", "import time"):
            if needle in source:
                offenders.append(f"{fname}: {needle}")
    assert not offenders, (
        "repro.control must be wall-clock-free; time only enters via "
        f"ContextSnapshot.t. Found: {offenders}")
