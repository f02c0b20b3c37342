"""Fig. 1 / Sec. II concepts — adaptive vs static sensing-to-action loops.

The paper's framing claims: (a) context-aware loops that modulate sensing
coverage by task risk spend far less energy at matched task quality than
always-full-fidelity loops; (b) event-driven (neuromorphic) execution
beats clock-driven execution whenever activity is sparse.  Both are
benchmarked on the loop abstraction directly.

Claims: the adaptive loop spends < 0.6x the static loop's sensing
energy at near-matched hazard recall, and event-driven compute wins by
> 10x (blocking); the energy ratio's drift against the stored baseline
is a warning.
"""

from typing import List

import numpy as np

from repro.core import (
    Action,
    Actuator,
    Environment,
    Percept,
    Perception,
    Policy,
    RiskCoverageAdaptation,
    SensingToActionLoop,
    Sensor,
    SensorReading,
)
from repro.neuromorphic import ann_energy_pj, snn_energy_pj
from repro.runtime.bench import Claim, check

from bench_utils import assert_claims, print_table, save_result

# The adaptive loop's sensing energy stays below this share of static.
ENERGY_CEILING = 0.6
# Relative tolerance for "roughly the same factor" vs the baseline.
RATIO_TOL = 0.35


class PatrolEnv(Environment):
    """A world with rare hazard episodes; risk spikes during them."""

    def __init__(self, seed=0, hazard_prob=0.08, hazard_len=5):
        self.rng = np.random.default_rng(seed)
        self.hazard_prob = hazard_prob
        self.hazard_len = hazard_len
        self.hazard_remaining = 0
        self.missed_hazards = 0
        self.caught_hazards = 0
        self._observed_this_cycle = False

    @property
    def in_hazard(self):
        return self.hazard_remaining > 0

    def observe_state(self):
        return self.in_hazard

    def advance(self, dt):
        if self.hazard_remaining > 0:
            self.hazard_remaining -= 1
            if self.hazard_remaining == 0:
                if self._observed_this_cycle:
                    self.caught_hazards += 1
                else:
                    self.missed_hazards += 1
                self._observed_this_cycle = False
        elif self.rng.random() < self.hazard_prob:
            self.hazard_remaining = self.hazard_len


class CoverageSensor(Sensor):
    """Energy scales with coverage; detection needs coverage >= 0.5 during
    a hazard (low-coverage scanning can miss it)."""

    FULL_ENERGY_MJ = 10.0

    def sense(self, env, directive, t):
        coverage = float(directive.get("coverage", 1.0))
        detected = env.in_hazard and coverage >= 0.5
        if detected:
            env._observed_this_cycle = True
        return SensorReading(data=detected, timestamp=t, coverage=coverage,
                             energy_mj=self.FULL_ENERGY_MJ * coverage)


class HazardPerception(Perception):
    def perceive(self, reading):
        return Percept(features=np.array([float(reading.data)]),
                       estimate=bool(reading.data))


class AdaptivePolicy(Policy):
    """Duty-cycled sensing: cheap idle scans with periodic full-coverage
    probes; any detection pins coverage high until the hazard clears.

    This is the paper's "reduce sampling during stable periods, increase
    during sudden events" pattern made concrete.
    """

    PROBE_PERIOD = 4  # every 4th cycle is a full-fidelity probe

    def __init__(self):
        self.adapt = RiskCoverageAdaptation(min_coverage=0.1, hysteresis=0.0)
        self.cycle = 0
        self.alert = 0

    def act(self, percept, t):
        self.cycle += 1
        if percept.estimate:
            self.alert = 3  # stay attentive for a few cycles
        elif self.alert > 0:
            self.alert -= 1
        probing = (self.cycle % self.PROBE_PERIOD == 0) or self.alert > 0
        risk = 1.0 if probing else 0.0
        return Action(command=None,
                      sensing_directive=self.adapt.directive(risk))


class StaticPolicy(Policy):
    def act(self, percept, t):
        return Action(command=None, sensing_directive={"coverage": 1.0})


class NoopActuator(Actuator):
    def actuate(self, env, action, t):
        return 0.0


def run_loop(policy_cls, seed=0, cycles=300):
    # Hazards are rare (the common case for patrol/monitoring loops) —
    # exactly the regime where always-full-fidelity sensing wastes most.
    env = PatrolEnv(seed=seed, hazard_prob=0.03)
    loop = SensingToActionLoop(CoverageSensor(), HazardPerception(),
                               policy_cls(), NoopActuator())
    metrics = loop.run(env, cycles)
    total_hazards = env.caught_hazards + env.missed_hazards
    return {
        "energy_mj": metrics.energy.sensing_mj,
        "mean_coverage": metrics.mean_coverage,
        "hazard_recall": (env.caught_hazards / total_hazards
                          if total_hazards else 1.0),
    }


def run(smoke: bool = False) -> dict:
    """Single config: ``smoke`` is ignored."""
    static = run_loop(StaticPolicy, seed=0)
    adaptive = run_loop(AdaptivePolicy, seed=0)
    # Event-driven vs clock-driven compute at the loop's actual activity.
    macs = 1_000_000
    activity = 0.1
    clocked_pj = ann_energy_pj(macs)
    event_pj = snn_energy_pj(macs, timesteps=1, mean_spike_rate=activity)
    return {"static": static, "adaptive": adaptive,
            "clocked_pj": clocked_pj, "event_pj": event_pj}


def claims(payload: dict, baseline: dict) -> List[Claim]:
    s, a = payload["static"], payload["adaptive"]
    ratio = s["energy_mj"] / a["energy_mj"]
    ratio_base = (baseline["static"]["energy_mj"]
                  / baseline["adaptive"]["energy_mj"])
    return [
        Claim("adaptive-wins-energy",
              a["energy_mj"] < ENERGY_CEILING * s["energy_mj"], True,
              f"static {s['energy_mj']:.0f} mJ vs adaptive "
              f"{a['energy_mj']:.0f} mJ (ceiling {ENERGY_CEILING}x)"),
        # The factor itself is numeric drift.
        Claim("energy-ratio-stable",
              abs(ratio - ratio_base) <= RATIO_TOL * ratio_base, False,
              f"ratio {ratio:.2f}x vs baseline {ratio_base:.2f}x "
              f"(tol {RATIO_TOL:.0%})"),
        Claim("recall-held",
              a["hazard_recall"] > s["hazard_recall"] - 0.25, True,
              f"adaptive recall {a['hazard_recall']:.2f} vs static "
              f"{s['hazard_recall']:.2f}"),
        # Event-driven execution wins by ~ 1 / (rate * E_AC / E_MAC).
        Claim("event-driven-wins",
              payload["event_pj"] * 10 < payload["clocked_pj"], True,
              f"clocked {payload['clocked_pj']:.3g} pJ vs event "
              f"{payload['event_pj']:.3g} pJ"),
    ]


def test_fig1_loop_adaptation(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    verdict = check("fig1_loop_adaptation", result)
    s, a = result["static"], result["adaptive"]
    print_table(
        "Fig. 1 concept — static vs risk-adaptive sensing loop "
        "(300 cycles, rare hazards)",
        ["Loop", "Sensing energy (mJ)", "Mean coverage", "Hazard recall"],
        [["static full-fidelity", f"{s['energy_mj']:.0f}",
          f"{s['mean_coverage']:.2f}", f"{s['hazard_recall']:.2f}"],
         ["risk-adaptive", f"{a['energy_mj']:.0f}",
          f"{a['mean_coverage']:.2f}", f"{a['hazard_recall']:.2f}"],
         ["energy ratio", f"{s['energy_mj'] / a['energy_mj']:.2f}x", "-",
          "-"]])
    print_table(
        "Fig. 2 concept — clock-driven vs event-driven compute energy "
        "(1M synaptic ops, 10% activity)",
        ["Execution", "Energy (uJ)"],
        [["clock-driven (MAC)", f"{result['clocked_pj'] / 1e6:.2f}"],
         ["event-driven (AC x rate)", f"{result['event_pj'] / 1e6:.3f}"],
         ["ratio", f"{result['clocked_pj'] / result['event_pj']:.0f}x"]])
    save_result("fig1_loop_adaptation", result)
    assert_claims(verdict)
