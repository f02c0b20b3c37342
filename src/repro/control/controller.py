"""The deterministic reconfiguration controller.

A :class:`Controller` holds declarative :class:`Rule`\\ s.  Each rule
watches one context signal and drives one actuator between two
settings through a **hysteresis band**: at or above ``high`` the rule
wants ``high_value``, at or below ``low`` it wants ``low_value``, and in
between it wants *nothing* — the dead band that keeps actuators from
flapping when a signal hovers near a threshold.  A per-rule
``cooldown_s`` additionally rate-limits reconfigurations: once a rule
fires, it stays silent for that long even if the signal keeps crossing.

The controller is a pure function of the context snapshots it is
stepped with: no wall-clock reads, no randomness, no threads.  Time
only enters through ``ContextSnapshot.t`` (bindings sample it from an
injected :class:`~repro.core.Clock`), so the full decision trace is
exactly reproducible under a :class:`~repro.core.VirtualClock` — the
property the ``control_adaptation`` golden scenario and the Hypothesis
suite pin down.

Two guarantees worth stating precisely:

* **No oscillation under monotone context** — because ``low < high``
  and the band fires nothing, a monotone signal trajectory can change
  an actuator's value at most twice (once per threshold, each crossed
  at most once in one direction), and never revisits an abandoned
  setting (no A->B->A).
* **Bounded actuators** — every applied setting passes through the
  actuator's declared bounds/choices (:meth:`RuntimeActuator.coerce`),
  so no rule, however misdeclared, can push a knob outside its
  admissible set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..obs.registry import get_registry
from .actuators import ActuatorRegistry, ControlError
from .signals import ContextSnapshot

__all__ = ["Rule", "Decision", "Controller"]


@dataclass(frozen=True)
class Rule:
    """One declarative reconfiguration rule with a hysteresis band.

    signal:
        Context signal name the rule watches; snapshots missing it
        leave the rule dormant.
    actuator:
        Registered actuator name the rule drives.
    low, high:
        Band edges, ``low < high``.  Signal <= low requests
        ``low_value``; signal >= high requests ``high_value``; strictly
        between, the rule requests nothing.
    low_value, high_value:
        The two settings; they must differ, or the rule could never
        reconfigure anything.
    cooldown_s:
        Minimum time between two firings of this rule.
    """

    name: str
    signal: str
    actuator: str
    low: float
    high: float
    low_value: Any
    high_value: Any
    cooldown_s: float = 0.0

    def __post_init__(self):
        if not self.low < self.high:
            raise ControlError(
                f"rule {self.name!r}: need low < high for a hysteresis "
                f"band (got low={self.low}, high={self.high})")
        if self.low_value == self.high_value:
            raise ControlError(
                f"rule {self.name!r}: low_value and high_value are "
                "identical — the rule could never reconfigure anything")
        if self.cooldown_s < 0:
            raise ControlError(
                f"rule {self.name!r}: cooldown must be >= 0")

    def desired(self, value: float) -> Optional[Any]:
        """The setting this rule wants at ``value`` (None in the band)."""
        if value >= self.high:
            return self.high_value
        if value <= self.low:
            return self.low_value
        return None


@dataclass(frozen=True)
class Decision:
    """One applied reconfiguration: the full why and what.

    Everything needed to replay or audit the decision: which rule fired
    at what time on what signal value, which actuator moved from what
    to what, and the complete context snapshot it was based on.
    """

    t: float
    rule: str
    actuator: str
    signal: str
    signal_value: float
    old: Any
    new: Any
    context: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "t": self.t,
            "rule": self.rule,
            "actuator": self.actuator,
            "signal": self.signal,
            "signal_value": self.signal_value,
            "old": self.old,
            "new": self.new,
            "context": dict(self.context),
        }


class Controller:
    """Steps declarative rules against context snapshots.

    Rules are evaluated in declaration order every :meth:`step`; a rule
    fires only when its desired setting differs from the actuator's
    current value *and* its cooldown has elapsed.  Every applied
    reconfiguration is recorded as a :class:`Decision` (bounded by
    ``max_decisions``, oldest dropped first, never silently — the drop
    count is kept) and counted on the active :mod:`repro.obs` registry
    under ``control.*``.
    """

    def __init__(self, rules: Sequence[Rule], registry: ActuatorRegistry,
                 obs=None, max_decisions: int = 10_000):
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ControlError(f"duplicate rule name(s): {', '.join(dupes)}")
        for rule in rules:
            if rule.actuator not in registry:
                raise ControlError(
                    f"rule {rule.name!r} drives unregistered actuator "
                    f"{rule.actuator!r}")
            # Categorical actuators must be able to represent both
            # settings; surfacing this at construction beats a mid-run
            # ControlError on the first firing.
            act = registry.actuator(rule.actuator)
            if act.choices is not None:
                for value in (rule.low_value, rule.high_value):
                    if value not in act.choices:
                        raise ControlError(
                            f"rule {rule.name!r}: value {value!r} not in "
                            f"actuator {rule.actuator!r} choices "
                            f"{act.choices}")
        self.rules = tuple(rules)
        self.registry = registry
        self.obs = obs
        self.max_decisions = max_decisions
        self.decisions: List[Decision] = []
        self.dropped_decisions = 0
        self.steps = 0
        self.suppressed_cooldown = 0
        self._last_fired: Dict[str, float] = {}

    # ------------------------------------------------------------- stepping
    def _observe(self):
        return self.obs if self.obs is not None else get_registry()

    def step(self, context: ContextSnapshot) -> List[Decision]:
        """Evaluate every rule against one context snapshot.

        Returns the decisions applied this step (possibly empty).
        """
        obs = self._observe()
        self.steps += 1
        obs.counter("control.steps").inc()
        fired: List[Decision] = []
        for rule in self.rules:
            value = context.get(rule.signal)
            if value is None:
                continue
            target = rule.desired(value)
            if target is None:
                continue
            actuator = self.registry.actuator(rule.actuator)
            target = actuator.coerce(target)
            current = actuator.get()
            if target == current:
                continue
            last = self._last_fired.get(rule.name)
            if last is not None and context.t - last < rule.cooldown_s:
                self.suppressed_cooldown += 1
                obs.counter("control.cooldown_suppressed").inc()
                continue
            old = actuator.set(target)
            self._last_fired[rule.name] = context.t
            decision = Decision(
                t=context.t, rule=rule.name, actuator=rule.actuator,
                signal=rule.signal, signal_value=value, old=old,
                new=target, context=dict(context.signals))
            fired.append(decision)
            self.decisions.append(decision)
            if len(self.decisions) > self.max_decisions:
                del self.decisions[0]
                self.dropped_decisions += 1
            obs.counter("control.reconfigurations").inc()
            obs.counter(f"control.rule.{rule.name}").inc()
        return fired

    # ------------------------------------------------------------ reporting
    def decision_trace(self) -> List[dict]:
        """The retained decisions as JSON-ready dicts, oldest first."""
        return [d.as_dict() for d in self.decisions]

    def last_fired(self, rule_name: str) -> Optional[float]:
        """When the named rule last fired (None if it never has)."""
        return self._last_fired.get(rule_name)
