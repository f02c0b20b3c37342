"""Property-based tests for the control plane's safety guarantees.

Hypothesis drives the :class:`repro.control.Controller` with adversarial
signal trajectories and rule declarations to pin the four contracts the
package docstring promises:

* actuated values never leave the declared bounds, whatever a rule asks
  for;
* a monotone signal trajectory can never oscillate an actuator — once a
  setting is abandoned it is never revisited (no A->B->A);
* consecutive firings of one rule are always at least ``cooldown_s``
  apart, under arbitrary step timing;
* a constant context reconfigures at most once per rule — after the
  initial alignment, the controller is quiescent.

All time is explicit snapshot time; nothing here (or in the package)
touches a wall clock, so every failing example shrinks and replays
exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import (
    ActuatorRegistry,
    ContextSnapshot,
    Controller,
    Rule,
    attr_actuator,
)


class Knob:
    def __init__(self, x):
        self.x = x


def build(low, high, low_value, high_value, cooldown_s=0.0,
          bounds=(0.0, 1.0), start=None):
    knob = Knob(start if start is not None else bounds[0])
    registry = ActuatorRegistry()
    attr_actuator(registry, "k", knob, "x", bounds=bounds)
    controller = Controller(
        [Rule("r", signal="s", actuator="k", low=low, high=high,
              low_value=low_value, high_value=high_value,
              cooldown_s=cooldown_s)],
        registry)
    return controller, knob


finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


@st.composite
def band(draw):
    low = draw(st.floats(min_value=-100, max_value=100,
                         allow_nan=False, allow_infinity=False))
    width = draw(st.floats(min_value=1e-3, max_value=100,
                           allow_nan=False, allow_infinity=False))
    return low, low + width


@settings(max_examples=200, deadline=None)
@given(b=band(),
       low_value=finite, high_value=finite,
       signals=st.lists(finite, min_size=1, max_size=40))
def test_actuated_value_always_within_bounds(b, low_value, high_value,
                                             signals):
    """Rules may request any setting; the knob never leaves its bounds."""
    if low_value == high_value:
        low_value, high_value = low_value, low_value + 1.0
    low, high = b
    controller, knob = build(low, high, low_value, high_value,
                             bounds=(0.0, 1.0), start=0.5)
    for i, s in enumerate(signals):
        controller.step(ContextSnapshot(t=float(i), signals={"s": s}))
        assert 0.0 <= knob.x <= 1.0


@settings(max_examples=200, deadline=None)
@given(b=band(),
       signals=st.lists(finite, min_size=1, max_size=40),
       increasing=st.booleans(),
       start=st.sampled_from([0.0, 0.25, 1.0]))
def test_monotone_trajectory_never_oscillates(b, signals, increasing,
                                              start):
    """Under a monotone signal, an abandoned setting never returns."""
    low, high = b
    controller, knob = build(low, high, low_value=0.0, high_value=1.0,
                             bounds=(0.0, 1.0), start=start)
    trajectory = sorted(signals, reverse=not increasing)
    for i, s in enumerate(trajectory):
        controller.step(ContextSnapshot(t=float(i), signals={"s": s}))
    fired = [d.new for d in controller.decisions]
    # Each threshold is crossed at most once, so at most two firings,
    # never the same setting twice (a repeat would mean the rule
    # re-applied an abandoned value — flapping).
    assert len(fired) <= 2, fired
    assert len(fired) == len(set(fired)), fired
    # And the firing order follows the sweep direction: an increasing
    # signal can only go low_value -> high_value, decreasing the
    # reverse — the controller never moves against the trajectory.
    expected_order = [0.0, 1.0] if increasing else [1.0, 0.0]
    assert fired == [v for v in expected_order if v in fired]


@settings(max_examples=200, deadline=None)
@given(cooldown_s=st.floats(min_value=0.0, max_value=10.0,
                            allow_nan=False),
       steps=st.lists(
           st.tuples(st.floats(min_value=0.0, max_value=5.0,
                               allow_nan=False),  # dt between snapshots
                     st.sampled_from([-10.0, 0.5, 10.0])),  # signal
           min_size=1, max_size=60))
def test_cooldown_spacing_under_arbitrary_timing(cooldown_s, steps):
    """Consecutive firings of one rule are >= cooldown_s apart."""
    controller, _ = build(low=0.0, high=1.0, low_value=0.0,
                          high_value=1.0, cooldown_s=cooldown_s,
                          bounds=(0.0, 1.0), start=0.5)
    t = 0.0
    for dt, s in steps:
        t += dt
        controller.step(ContextSnapshot(t=t, signals={"s": s}))
    times = [d.t for d in controller.decisions]
    for earlier, later in zip(times, times[1:]):
        assert later - earlier >= cooldown_s, times


@settings(max_examples=200, deadline=None)
@given(signal=finite,
       b=band(),
       n_steps=st.integers(min_value=1, max_value=50),
       start=st.sampled_from([0.0, 0.5, 1.0]))
def test_constant_context_reconfigures_at_most_once(signal, b, n_steps,
                                                    start):
    """A constant world yields at most one decision, on the first step."""
    low, high = b
    controller, _ = build(low, high, low_value=0.0, high_value=1.0,
                          bounds=(0.0, 1.0), start=start)
    for i in range(n_steps):
        controller.step(ContextSnapshot(t=float(i), signals={"s": signal}))
    assert len(controller.decisions) <= 1
    if controller.decisions:
        assert controller.decisions[0].t == 0.0
    assert controller.steps == n_steps


@settings(max_examples=100, deadline=None)
@given(signals=st.lists(finite, min_size=1, max_size=40),
       b=band())
def test_step_decisions_match_retained_trace(signals, b):
    """What step() returns is exactly what the trace retains, in order."""
    low, high = b
    controller, _ = build(low, high, low_value=0.0, high_value=1.0,
                          bounds=(0.0, 1.0), start=0.5)
    returned = []
    for i, s in enumerate(signals):
        returned.extend(
            controller.step(ContextSnapshot(t=float(i), signals={"s": s})))
    assert returned == controller.decisions
