"""Hardware time synchronization via an out-of-band AM broadcast.

FireFly's differentiator is a passive AM receiver: a region-wide carrier
pulse gives every node a common epoch at essentially zero radio-energy cost,
with sub-150 us reception jitter.  RT-Link's TDMA slots are aligned to these
pulses, which is what makes collision-free slots practical without idle
listening.

We model a global :class:`AmTimeSync` service that fires a carrier pulse at a
fixed period.  Each registered :class:`NodeClock` receives the pulse with a
per-node jitter draw (truncated Gaussian) and may miss pulses entirely with a
configurable probability (AM reception deep inside plants is imperfect).
Between pulses a node's local clock drifts at its crystal's ppm error.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.sim.clock import SEC, US
from repro.sim.engine import Engine


@dataclass(frozen=True)
class TimeSyncSpec:
    """Calibration of the AM synchronization channel."""

    period_ticks: int = 1 * SEC
    jitter_std_ticks: float = 35.0 * US
    jitter_clamp_ticks: int = 145 * US  # receiver hardware bounds the pulse edge
    miss_probability: float = 0.0


class NodeClock:
    """A node's local clock: global time + sync offset + crystal drift."""

    def __init__(self, engine: Engine, drift_ppm: float = 0.0) -> None:
        self.engine = engine
        self._clock = engine.clock
        self.drift_ppm = drift_ppm
        self._offset_at_sync = 0
        self._last_sync_global = engine.now
        self.sync_count = 0
        self.missed_count = 0

    def local_time(self) -> int:
        """The node's belief of the current global time, in ticks."""
        now = self._clock._now
        elapsed = now - self._last_sync_global
        drift = int(elapsed * self.drift_ppm / 1e6)
        return now + self._offset_at_sync + drift

    def offset_error(self) -> int:
        """Signed ticks between local belief and true global time."""
        return self.local_time() - self.engine.now

    def apply_sync(self, jitter_ticks: int) -> None:
        """Receive a carrier pulse: collapse accumulated drift to the jitter."""
        self._offset_at_sync = jitter_ticks
        self._last_sync_global = self.engine.now
        self.sync_count += 1

    def note_missed_sync(self) -> None:
        self.missed_count += 1


class AmTimeSync:
    """Region-wide AM pulse generator driving all registered node clocks."""

    def __init__(self, engine: Engine, rng: random.Random,
                 spec: TimeSyncSpec | None = None) -> None:
        self.engine = engine
        self.rng = rng
        self.spec = spec or TimeSyncSpec()
        self._clocks: dict[str, NodeClock] = {}
        self.jitter_samples: list[int] = []
        self.pulse_count = 0
        self._running = False

    def register(self, node_id: str, clock: NodeClock) -> None:
        if node_id in self._clocks:
            raise ValueError(f"node {node_id!r} already registered for sync")
        self._clocks[node_id] = clock

    def start(self) -> None:
        """Begin emitting pulses every ``period_ticks`` from now."""
        if self._running:
            return
        self._running = True
        self.engine.post(self.spec.period_ticks, self._pulse, priority=-10)

    def stop(self) -> None:
        self._running = False

    def _draw_jitter(self) -> int:
        raw = self.rng.gauss(0.0, self.spec.jitter_std_ticks)
        clamp = self.spec.jitter_clamp_ticks
        return int(min(clamp, max(-clamp, raw)))

    def _pulse(self) -> None:
        if not self._running:
            return
        self.pulse_count += 1
        for clock in self._clocks.values():
            if (self.spec.miss_probability > 0.0
                    and self.rng.random() < self.spec.miss_probability):
                clock.note_missed_sync()
                continue
            jitter = self._draw_jitter()
            clock.apply_sync(jitter)
            self.jitter_samples.append(jitter)
        self.engine.post(self.spec.period_ticks, self._pulse, priority=-10)

    def max_abs_jitter(self) -> int:
        """Largest absolute reception jitter observed (the <150 us claim)."""
        if not self.jitter_samples:
            return 0
        return max(abs(j) for j in self.jitter_samples)
