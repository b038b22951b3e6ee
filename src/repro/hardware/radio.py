"""Chipcon CC2420 radio model.

An IEEE 802.15.4 transceiver at 250 kbps.  The MAC layer drives the radio
through explicit state transitions; the radio reports per-state current to
the battery and computes frame airtimes from byte counts.

Datasheet-derived constants: TX 17.4 mA at 0 dBm, RX/listen 18.8 mA,
idle 0.426 mA, power-down 20 uA (we also fold in oscillator startup).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.sim.clock import MS, SEC, US

PHY_HEADER_BYTES = 6
"""802.15.4 synchronization header + PHY header (4 preamble + 1 SFD + 1 len)."""


class RadioState(enum.Enum):
    OFF = "off"
    IDLE = "idle"
    RX = "rx"
    TX = "tx"


# Dense 0..3 index per state for the radio's energy lists.  An attribute
# read costs no hashing; Enum.__hash__ is a Python-level call.
for _index, _state in enumerate(RadioState):
    _state.index = _index
del _index, _state

# Hot paths compare against module-level aliases: a member read through
# the enum class goes through EnumType.__getattr__.
_OFF = RadioState.OFF


@dataclass(frozen=True)
class RadioSpec:
    """Datasheet constants for the transceiver (CC2420 defaults)."""

    name: str = "CC2420"
    bitrate_bps: int = 250_000
    tx_current_a: float = 17.4e-3
    rx_current_a: float = 18.8e-3
    idle_current_a: float = 0.426e-3
    off_current_a: float = 20.0e-6
    turnaround_ticks: int = 192 * US  # RX/TX turnaround (12 symbol periods)
    startup_ticks: int = 1 * MS      # oscillator + PLL startup from OFF
    max_payload_bytes: int = 116     # 127 MPDU - MAC overhead we reserve

    def airtime(self, payload_bytes: int) -> int:
        """Ticks on air for a frame with ``payload_bytes`` of MAC payload."""
        total_bytes = PHY_HEADER_BYTES + payload_bytes
        return (total_bytes * 8 * SEC) // self.bitrate_bps


class Radio:
    """State-machine radio front-end with energy accounting.

    The radio does not itself understand packets -- the medium
    (:mod:`repro.net.medium`) and MAC protocols coordinate transmissions.
    This class tracks the power state timeline so the battery sees a faithful
    current profile, and exposes timing helpers.
    """

    def __init__(self, engine, battery, spec: RadioSpec | None = None) -> None:
        self.engine = engine
        self.battery = battery
        self.spec = spec = spec or RadioSpec()
        self.state = RadioState.OFF
        self._index = RadioState.OFF.index
        self._clock = engine.clock
        self._state_since = self._clock._now
        # Per-state current and cumulative ticks, by RadioState.index.
        self._currents = (spec.off_current_a, spec.idle_current_a,
                          spec.rx_current_a, spec.tx_current_a)
        self._state_ticks = [0, 0, 0, 0]
        # Startup from OFF is charged as idle current (the spec is frozen).
        self._startup_current_a = spec.idle_current_a
        self._startup_ticks = spec.startup_ticks
        self.tx_count = 0
        self.rx_count = 0

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def set_state(self, new_state: RadioState) -> None:
        """Transition the radio, charging the battery for the elapsed state."""
        state = self.state
        if new_state is state:
            return
        # _settle, inline: this runs on every transition of every node.
        now = self._clock._now
        elapsed = now - self._state_since
        if elapsed > 0:
            index = self._index
            self.battery.draw(self._currents[index], elapsed)
            self._state_ticks[index] += elapsed
        self._state_since = now
        if state is _OFF:  # ...and new_state is not: account the startup
            self.battery.draw(self._startup_current_a, self._startup_ticks)
        self.state = new_state
        self._index = new_state.index

    def _settle(self) -> None:
        """Charge the battery for time spent in the current state so far."""
        now = self._clock._now
        elapsed = now - self._state_since
        if elapsed > 0:
            index = self._index
            self.battery.draw(self._currents[index], elapsed)
            self._state_ticks[index] += elapsed
        self._state_since = now

    # ------------------------------------------------------------------
    # Introspection used by benches
    # ------------------------------------------------------------------
    def state_time(self, state: RadioState) -> int:
        """Cumulative ticks spent in ``state`` (settled to now)."""
        self._settle()
        return self._state_ticks[state.index]

    def duty_cycle(self) -> float:
        """Fraction of elapsed time with the radio in RX or TX."""
        self._settle()
        ticks = self._state_ticks
        total = sum(ticks)
        if total == 0:
            return 0.0
        on = ticks[RadioState.RX.index] + ticks[RadioState.TX.index]
        return on / total

    def airtime(self, payload_bytes: int) -> int:
        return self.spec.airtime(payload_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Radio({self.spec.name}, {self.state.value})"
