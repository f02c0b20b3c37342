"""Component interfaces of a sensing-to-action loop (Sec. II, Fig. 1).

The paper deconstructs edge loops into a sensing module, a learning
(perception/decision) module, and an actuation module, closed through the
environment, with two optional cross-cutting parts: a *monitor* that
guards loop fidelity (Sec. V) and an *adaptation policy* that retunes
sensing from actions (Sec. IV).  These abstract base classes define the
contracts; every subsystem in this repository implements one or more of
them.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

__all__ = ["SensorReading", "Percept", "Action", "Sensor", "Perception",
           "Policy", "Actuator", "Monitor", "Environment"]


@dataclass
class SensorReading:
    """Raw sensor output plus acquisition metadata.

    ``coverage`` is the fraction of the nominal sensing budget used
    (beams fired / full grid, pixels read / full frame, ...); the energy
    ledger and adaptation policies both consume it.
    """

    data: Any
    timestamp: float
    coverage: float = 1.0
    energy_mj: float = 0.0
    modality: str = "generic"
    meta: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Percept:
    """Output of the perception stage: features and task estimates."""

    features: np.ndarray
    estimate: Any = None
    confidence: float = 1.0
    meta: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Action:
    """Control command plus optional sensing directives.

    ``sensing_directive`` is the action-to-sensing channel: a dict the
    sensor interprets next cycle (e.g. ``{"coverage": 0.1}`` or
    ``{"segments": mask}``).
    """

    command: Any
    sensing_directive: Dict[str, Any] = field(default_factory=dict)
    energy_mj: float = 0.0
    meta: Dict[str, Any] = field(default_factory=dict)


class Sensor(abc.ABC):
    """Acquires a :class:`SensorReading` from the environment.

    ``directive`` carries the previous action's sensing directive
    (possibly empty) so implementations can modulate coverage, rate, or
    modality — the action-to-sensing pathway.
    """

    @abc.abstractmethod
    def sense(self, env: "Environment", directive: Dict[str, Any],
              t: float) -> SensorReading:
        ...


class Perception(abc.ABC):
    """Maps a sensor reading to a percept (features + estimate)."""

    @abc.abstractmethod
    def perceive(self, reading: SensorReading) -> Percept:
        ...


class Policy(abc.ABC):
    """Maps a percept to an action (including sensing directives)."""

    @abc.abstractmethod
    def act(self, percept: Percept, t: float) -> Action:
        ...


class Actuator(abc.ABC):
    """Applies an action to the environment, returning actuation cost."""

    @abc.abstractmethod
    def actuate(self, env: "Environment", action: Action, t: float) -> float:
        ...


class Monitor(abc.ABC):
    """Judges the trustworthiness of the current percept (Sec. V).

    Returns a score in [0, 1]; loops may gate aggressive adaptations on
    it, fall back to conservative sensing, or reject the cycle entirely.
    """

    @abc.abstractmethod
    def assess(self, percept: Percept) -> float:
        ...


class Environment(abc.ABC):
    """A world the loop senses and acts upon."""

    @abc.abstractmethod
    def observe_state(self) -> Any:
        """Ground-truth state (for simulators / evaluation only)."""
        ...

    @abc.abstractmethod
    def advance(self, dt: float) -> None:
        """Evolve autonomous dynamics by ``dt`` seconds."""
        ...
