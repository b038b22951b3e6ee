"""Hypothesis property: the radio's energy accounting, state by state.

:class:`~repro.hardware.radio.Radio` keeps per-state currents and ticks
in lists indexed by ``RadioState.index``.  The reference below replays the
per-settle formula those lists replaced -- ticks in a dict keyed by
``RadioState``, the current looked up with ``getattr(spec, ...)`` -- on its
own battery.  Energy feeds every golden digest, so the battery must see
the same ``draw(current, ticks)`` calls in the same order, and
``charge_drawn`` must match exactly (float ``==``), not approximately.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.hardware.battery import Battery, BatterySpec
from repro.hardware.radio import Radio, RadioSpec, RadioState
from repro.sim.clock import MS, SEC
from repro.sim.engine import Engine

_CURRENT_ATTR = {
    RadioState.OFF: "off_current_a",
    RadioState.IDLE: "idle_current_a",
    RadioState.RX: "rx_current_a",
    RadioState.TX: "tx_current_a",
}


class _ReferenceRadio:
    """The per-settle formula, replayed."""

    def __init__(self, engine: Engine, battery: Battery,
                 spec: RadioSpec) -> None:
        self.engine = engine
        self.battery = battery
        self.spec = spec
        self.state = RadioState.OFF
        self._state_since = engine.now
        self._state_time = {s: 0 for s in RadioState}

    def set_state(self, new_state: RadioState) -> None:
        if new_state is self.state:
            return
        self._settle()
        if self.state is RadioState.OFF and new_state is not RadioState.OFF:
            self.battery.draw(self.spec.idle_current_a,
                              self.spec.startup_ticks)
        self.state = new_state

    def _settle(self) -> None:
        elapsed = self.engine.now - self._state_since
        if elapsed > 0:
            current = getattr(self.spec, _CURRENT_ATTR[self.state])
            self.battery.draw(current, elapsed)
            self._state_time[self.state] += elapsed
        self._state_since = self.engine.now

    def state_time(self, state: RadioState) -> int:
        self._settle()
        return self._state_time[state]

    def duty_cycle(self) -> float:
        self._settle()
        total = sum(self._state_time.values())
        if total == 0:
            return 0.0
        on = (self._state_time[RadioState.RX]
              + self._state_time[RadioState.TX])
        return on / total


class _RecordingBattery(Battery):
    def __init__(self, engine: Engine, spec: BatterySpec) -> None:
        super().__init__(engine, spec)
        self.draws: list[tuple[float, int]] = []

    def draw(self, current_a: float, duration_ticks: int) -> None:
        self.draws.append((current_a, duration_ticks))
        super().draw(current_a, duration_ticks)


_amps = st.floats(min_value=0.0, max_value=0.05, allow_nan=False)
_specs = st.one_of(
    st.just(RadioSpec()),
    st.builds(RadioSpec, tx_current_a=_amps, rx_current_a=_amps,
              idle_current_a=_amps, off_current_a=_amps,
              startup_ticks=st.integers(min_value=0, max_value=5 * MS)))
_states = st.sampled_from(list(RadioState))
# (ticks to advance, state to set, state whose time to query or None)
_steps = st.lists(st.tuples(
    st.one_of(st.integers(min_value=0, max_value=20 * MS),
              st.integers(min_value=0, max_value=30 * SEC)),
    _states, st.none() | _states), max_size=80)


@settings(max_examples=200, deadline=None)
@given(spec=_specs, steps=_steps,
       start=st.integers(min_value=0, max_value=10 * SEC),
       solar=st.sampled_from([0.0, 0.5e-3, 1e-3]))
def test_accounting_matches_per_settle_reference(spec, steps, start, solar):
    engine = Engine(start)
    battery_spec = BatterySpec(solar_current_a=solar)
    radio = Radio(engine, _RecordingBattery(engine, battery_spec), spec)
    ref = _ReferenceRadio(engine, _RecordingBattery(engine, battery_spec),
                          spec)
    for ticks, state, probe in steps:
        engine.run_until(engine.now + ticks)
        radio.set_state(state)
        ref.set_state(state)
        assert radio.state is ref.state is state
        if probe is not None:  # a mid-run read settles both sides
            assert radio.state_time(probe) == ref.state_time(probe)
    engine.run_until(engine.now + SEC)
    for state in RadioState:
        assert radio.state_time(state) == ref.state_time(state)
    assert radio.duty_cycle() == ref.duty_cycle()
    assert radio.battery.draws == ref.battery.draws
    assert radio.battery.charge_drawn == ref.battery.charge_drawn
