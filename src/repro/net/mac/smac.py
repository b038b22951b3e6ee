"""S-MAC: loosely-synchronized duty cycling (comparison baseline).

Nodes share a listen/sleep schedule: every frame opens with a listen window
in which senders contend by CSMA; the rest of the frame is spent asleep.  A
transmission won during the listen window may extend into the sleep period
(as in S-MAC's overhearing-avoidance variant, receivers that heard the start
stay awake for the payload).

Relative to RT-Link this buys synchronization cheaply but pays idle listening
in every frame and collides under contention; relative to B-MAC it trades
sender preamble cost for receiver listen cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.radio import RadioState
from repro.net.mac.base import MacProtocol
from repro.sim.clock import MS, US
from repro.sim.process import Delay, Process


@dataclass(frozen=True)
class SMacConfig:
    """Listen/sleep geometry.  duty cycle = listen / frame."""

    frame_ticks: int = 1000 * MS
    listen_ticks: int = 100 * MS
    contention_window_ticks: int = 15 * MS
    schedule_offset_jitter_ticks: int = 2 * MS  # loose synchronization error

    @property
    def duty_cycle(self) -> float:
        return self.listen_ticks / self.frame_ticks


class SMac(MacProtocol):
    """Per-node listen/sleep engine with CSMA contention in listen windows."""

    def __init__(self, engine, node, port, config: SMacConfig | None = None,
                 queue_capacity: int = 16) -> None:
        super().__init__(engine, node, port, queue_capacity)
        self.config = config or SMacConfig()
        self.rng = node.rng
        self._process: Process | None = None
        self.frames_listened = 0
        self.contention_losses = 0
        # Loose sync: every node offsets its schedule by a small fixed error.
        self._schedule_offset = self.rng.randrange(
            0, max(1, self.config.schedule_offset_jitter_ticks))

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.port.sleep()
        self._process = Process(self.engine, self._run(),
                                name=f"smac:{self.node_id}")

    def stop(self) -> None:
        super().stop()
        if self._process is not None:
            self._process.kill()
            self._process = None

    def _run(self):
        cfg = self.config
        # Align to the next frame boundary plus this node's offset.
        first = cfg.frame_ticks - (self.engine.now % cfg.frame_ticks)
        yield Delay(first + self._schedule_offset)
        while self.running:
            if self.node.failed:
                yield Delay(cfg.frame_ticks)
                continue
            frame_start = self.engine.now
            yield from self._listen_window(frame_start)
            # Sleep out the rest of the frame.
            remaining = frame_start + cfg.frame_ticks - self.engine.now
            self.port.sleep()
            if remaining > 0:
                yield Delay(remaining)

    def _listen_window(self, frame_start: int):
        cfg = self.config
        self.frames_listened += 1
        self.port.listen()
        listen_end = frame_start + cfg.listen_ticks
        if self.has_pending:
            # Contend: random slot in the contention window, then CCA.
            yield Delay(self.rng.randrange(1, cfg.contention_window_ticks))
            if self.node.failed or not self.running:
                return
            if self.port.channel_busy():
                self.contention_losses += 1
                # Lost contention: stay in RX for the remainder (we may be
                # the intended receiver of the winner's frame).
                remaining = listen_end - self.engine.now
                if remaining > 0:
                    yield Delay(remaining)
                return
            if self.has_pending:
                packet = self.dequeue()
                airtime = self.port.transmit(packet,
                                             after_state=RadioState.RX)
                self.stats.sent += 1
                yield Delay(airtime + 200 * US)
        # Idle-listen until the window closes (the S-MAC energy cost).
        remaining = listen_end - self.engine.now
        if remaining > 0:
            yield Delay(remaining)
