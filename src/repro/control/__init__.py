"""repro.control: context-aware runtime reconfiguration (Sec. II, VIII).

The paper's central argument is that sensing-to-action loops should
*adapt* sensing, compute, and communication effort to context instead
of running with static knobs — the CARMA/CoSense-LLM direction.  This
package closes that loop over the repo's existing machinery:

* **Actuators** (:mod:`repro.control.actuators`) wrap the knobs that
  already exist — R-MAE sensing fraction, STARNet's exact-vs-SPSA
  likelihood-regret method, micro-batcher ``max_batch_size`` /
  ``max_wait_ms``, the kernel backend, the compile mode, fleet spill
  depth, HaLo-style precision bits — behind declared bounds/choices
  with scoped apply/revert (:meth:`ActuatorRegistry.scope`).
* **Signals** (:mod:`repro.control.signals`) are what context looks
  like: trust scores, queue depths, windowed energy-ledger deltas.
* The **Controller** (:mod:`repro.control.controller`) maps signals to
  actuator settings through declarative hysteresis rules with
  cooldowns — pure, clock-free, and deterministic, so every decision
  trace replays exactly under a :class:`~repro.core.VirtualClock`.
* **Bindings** (:mod:`repro.control.bindings`) attach a controller to
  a :class:`~repro.core.SensingToActionLoop`, a
  :class:`~repro.serve.scheduler.BatchedService`, or a
  :class:`~repro.fleet.scheduler.FleetScheduler` via their
  ``controller=`` arguments.

``REPRO_CONTROL=off`` disables every controller in the process.
``benchmarks/bench_control_adaptation.py`` shows the adaptive policy
riding the energy/accuracy Pareto front across a corruption-and-load
sweep; ``repro verify`` pins the decision semantics with the
``control_adaptation`` golden scenario.
"""

from .actuators import (
    ActuatorRegistry,
    ControlError,
    RuntimeActuator,
    attr_actuator,
    compile_mode_actuator,
    config_field_actuator,
    fleet_spill_actuator,
    kernel_backend_actuator,
    microbatcher_actuators,
    precision_bits_actuator,
    score_method_actuator,
)
from .bindings import (
    FleetControlBinding,
    LoopControlBinding,
    ServiceControlBinding,
)
from .controller import (
    CONTROL_ENV,
    Controller,
    Decision,
    Rule,
    control_enabled,
)
from .signals import ContextSnapshot, EnergyWindow, SignalSource

__all__ = [
    "ControlError", "RuntimeActuator", "ActuatorRegistry",
    "attr_actuator", "config_field_actuator", "kernel_backend_actuator",
    "compile_mode_actuator", "score_method_actuator",
    "microbatcher_actuators", "fleet_spill_actuator",
    "precision_bits_actuator",
    "ContextSnapshot", "EnergyWindow", "SignalSource",
    "CONTROL_ENV", "control_enabled", "Rule", "Decision", "Controller",
    "LoopControlBinding", "ServiceControlBinding", "FleetControlBinding",
]
