"""Runtime actuators: the repo's knobs, made settable mid-run.

An :class:`RuntimeActuator` wraps one knob behind a get/set pair plus a
*declared admissible set* — numeric ``bounds`` (values are clamped into
them, and integer bounds keep the knob integral) or categorical
``choices`` (values outside the set are rejected loudly).  The
:class:`ActuatorRegistry` names them, snapshots them, and — mirroring
the scoped ``kernel_backend()`` context manager — reverts every knob it
touched when a :meth:`ActuatorRegistry.scope` block exits, so a control
experiment can never leak settings into the rest of the process.

The factory helpers at the bottom wire the knobs a loop can reach: any
plain attribute (the sensing fraction, a threshold) and HaLo-style
precision bits.

No wall-clock access anywhere in this package: time only ever arrives
through :class:`~repro.control.signals.ContextSnapshot`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

__all__ = ["ControlError", "RuntimeActuator", "ActuatorRegistry",
           "attr_actuator", "precision_bits_actuator"]


class ControlError(RuntimeError):
    """Invalid actuator registration, value, or rule wiring."""


class RuntimeActuator:
    """One named runtime knob: get/set plus its admissible set.

    ``bounds=(lo, hi)`` clamps numeric settings into the declared range
    (int bounds keep values integral); ``choices`` restricts categorical
    settings to an explicit tuple.  Exactly one of the two must be
    declared — an unconstrained actuator would make the controller's
    safety envelope vacuous.
    """

    __slots__ = ("name", "_get", "_set", "bounds", "choices")

    def __init__(self, name: str, getter: Callable[[], Any],
                 setter: Callable[[Any], None],
                 bounds: Optional[Tuple[float, float]] = None,
                 choices: Optional[Sequence[Any]] = None):
        if (bounds is None) == (choices is None):
            raise ControlError(
                f"actuator {name!r} must declare exactly one of "
                "bounds= or choices=")
        if bounds is not None and not bounds[0] <= bounds[1]:
            raise ControlError(f"actuator {name!r} bounds are inverted")
        if choices is not None and len(choices) == 0:
            raise ControlError(f"actuator {name!r} has no choices")
        self.name = name
        self._get = getter
        self._set = setter
        self.bounds = bounds
        self.choices = tuple(choices) if choices is not None else None

    def get(self) -> Any:
        return self._get()

    def coerce(self, value: Any) -> Any:
        """Map a requested setting into the admissible set.

        Numeric bounds clamp; categorical choices reject unknowns with
        :class:`ControlError` (there is no meaningful nearest choice).
        """
        if self.choices is not None:
            if value not in self.choices:
                raise ControlError(
                    f"actuator {self.name!r}: {value!r} not in declared "
                    f"choices {self.choices}")
            return value
        lo, hi = self.bounds
        clamped = min(max(value, lo), hi)
        if isinstance(lo, int) and isinstance(hi, int):
            clamped = int(round(clamped))
        return clamped

    def set(self, value: Any) -> Any:
        """Apply ``value`` (coerced); returns the previous setting."""
        previous = self._get()
        self._set(self.coerce(value))
        return previous


class ActuatorRegistry:
    """Named actuators plus scoped apply/revert.

    Registration order is preserved and meaningful: snapshots restore in
    reverse registration order so dependent knobs (e.g. a batch size
    bounded by a queue depth) unwind cleanly.
    """

    def __init__(self):
        self._actuators: Dict[str, RuntimeActuator] = {}

    def register(self, name: str, getter: Callable[[], Any],
                 setter: Callable[[Any], None],
                 bounds: Optional[Tuple[float, float]] = None,
                 choices: Optional[Sequence[Any]] = None) -> RuntimeActuator:
        if name in self._actuators:
            raise ControlError(f"actuator {name!r} already registered")
        act = RuntimeActuator(name, getter, setter,
                              bounds=bounds, choices=choices)
        self._actuators[name] = act
        return act

    def names(self) -> Tuple[str, ...]:
        return tuple(self._actuators)

    def __contains__(self, name: str) -> bool:
        return name in self._actuators

    def actuator(self, name: str) -> RuntimeActuator:
        try:
            return self._actuators[name]
        except KeyError:
            raise ControlError(
                f"unknown actuator {name!r}; registered: "
                f"{', '.join(self._actuators) or '(none)'}") from None

    def get(self, name: str) -> Any:
        return self.actuator(name).get()

    def set(self, name: str, value: Any) -> Any:
        """Apply a (coerced) setting; returns the previous value."""
        return self.actuator(name).set(value)

    def snapshot(self) -> Dict[str, Any]:
        """Current value of every registered actuator."""
        return {name: act.get() for name, act in self._actuators.items()}

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Re-apply a snapshot (reverse registration order)."""
        for name in reversed(list(self._actuators)):
            if name in snapshot:
                self._actuators[name].set(snapshot[name])

    @contextmanager
    def scope(self):
        """Snapshot on entry, revert on exit — even on exceptions.

        The control-plane analogue of ``kernel_backend()``: any
        reconfiguration applied inside the block (by a controller or by
        hand) is undone when it closes.
        """
        saved = self.snapshot()
        try:
            yield self
        finally:
            self.restore(saved)


# --------------------------------------------------------------- factories
def attr_actuator(registry: ActuatorRegistry, name: str, obj: Any,
                  attr: str, bounds=None, choices=None) -> RuntimeActuator:
    """Actuate a plain attribute on ``obj``."""
    if not hasattr(obj, attr):
        raise ControlError(f"{type(obj).__name__} has no attribute {attr!r}")
    return registry.register(
        name, lambda: getattr(obj, attr),
        lambda v: setattr(obj, attr, v), bounds=bounds, choices=choices)


def precision_bits_actuator(registry: ActuatorRegistry, obj: Any,
                            attr: str = "bits",
                            name: str = "precision_bits",
                            choices: Sequence[int] = (32, 16, 8, 4)
                            ) -> RuntimeActuator:
    """Actuate a HaLo-style precision selection (bit-width attribute)."""
    return attr_actuator(registry, name, obj, attr, choices=tuple(choices))
