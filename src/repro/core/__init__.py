"""``repro.core`` — the sensing-to-action loop abstraction (Sec. II).

Component contracts, the closed-loop orchestrator with energy/latency/
staleness accounting, risk-driven coverage adaptation, cascading-error
models, deadline scheduling, and loop co-design.
"""

from .adaptation import RiskCoverageAdaptation
from .clock import Clock, SystemClock, VirtualClock
from .codesign import (
    DesignSpace,
    LoopDesign,
    LoopPlant,
    end_to_end_codesign,
    modular_codesign,
    pareto_front,
)
from .components import (
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
from .errors import CascadeModel, closed_loop_gain_estimate, staleness_error
from .loop import CycleRecord, LoopMetrics, SensingToActionLoop
from .scheduling import LoopSchedule, Stage, synchronization_delay

__all__ = [
    "SensorReading", "Percept", "Action", "Sensor", "Perception", "Policy",
    "Actuator", "Monitor", "Environment",
    "CycleRecord", "LoopMetrics", "SensingToActionLoop",
    "Clock", "SystemClock", "VirtualClock",
    "RiskCoverageAdaptation",
    "CascadeModel", "staleness_error", "closed_loop_gain_estimate",
    "LoopSchedule", "Stage", "synchronization_delay",
    "LoopDesign", "LoopPlant", "DesignSpace", "end_to_end_codesign",
    "modular_codesign", "pareto_front",
]
