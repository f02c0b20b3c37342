"""repro.control: context-aware runtime reconfiguration (Sec. II, VIII).

The paper's central argument is that sensing-to-action loops should
*adapt* sensing, compute, and communication effort to context instead
of running with static knobs — the CARMA/CoSense-LLM direction.  This
package closes that loop over a running sensing-to-action loop:

* **Actuators** (:mod:`repro.control.actuators`) wrap the knobs a loop
  can reach — any plain attribute (e.g. the sensing fraction),
  HaLo-style precision bits — behind declared bounds/choices with
  scoped apply/revert (:meth:`ActuatorRegistry.scope`).
* **Signals** (:mod:`repro.control.signals`) are what context looks
  like: trust scores, coverage, windowed energy-ledger deltas.
* The **Controller** (:mod:`repro.control.controller`) maps signals to
  actuator settings through declarative hysteresis rules with
  cooldowns — pure, clock-free, and deterministic, so every decision
  trace replays exactly under a :class:`~repro.core.VirtualClock`.
* The **binding** (:mod:`repro.control.bindings`) attaches a controller
  to a :class:`~repro.core.SensingToActionLoop` via its
  ``controller=`` argument.

``benchmarks/bench_control_adaptation.py`` shows the adaptive policy
riding the energy/accuracy Pareto front across an analytic
corruption-and-load model; ``repro verify`` pins the decision semantics
with the ``control_adaptation`` golden scenario.
"""

from .actuators import (
    ActuatorRegistry,
    ControlError,
    RuntimeActuator,
    attr_actuator,
    precision_bits_actuator,
)
from .bindings import LoopControlBinding
from .controller import Controller, Decision, Rule
from .signals import ContextSnapshot, EnergyWindow

__all__ = [
    "ControlError", "RuntimeActuator", "ActuatorRegistry",
    "attr_actuator", "precision_bits_actuator",
    "ContextSnapshot", "EnergyWindow",
    "Rule", "Decision", "Controller",
    "LoopControlBinding",
]
