"""B-MAC: low-power-listening CSMA (comparison baseline).

Receivers wake every ``check_interval`` for a brief clear-channel sample; a
sender precedes its data frame with a preamble longer than the check
interval, guaranteeing every neighbor's sample window overlaps it.  Hearing
energy, receivers stay awake for the data frame.

Costs modeled exactly as the paper's comparison implies: senders pay the long
preamble on every frame, receivers pay the periodic samples, and contention
produces collisions under load -- all of which RT-Link's scheduled slots
avoid.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.radio import RadioState
from repro.net.mac.base import MacProtocol
from repro.net.packet import BROADCAST, Packet
from repro.sim.clock import MS, SEC, US
from repro.sim.process import Delay, Process


@dataclass(frozen=True)
class BMacConfig:
    """Low-power-listen parameters (B-MAC defaults ballpark)."""

    check_interval_ticks: int = 100 * MS
    sample_ticks: int = 2500 * US          # clear-channel assessment window
    preamble_slack_ticks: int = 5 * MS     # preamble beyond the check interval
    initial_backoff_ticks: int = 10 * MS
    congestion_backoff_ticks: int = 20 * MS
    max_backoffs: int = 8
    data_timeout_ticks: int = 250 * MS     # stay-awake bound after sensing energy

    @property
    def preamble_ticks(self) -> int:
        return self.check_interval_ticks + self.preamble_slack_ticks


class BMac(MacProtocol):
    """Per-node low-power-listen CSMA engine."""

    def __init__(self, engine, node, port, config: BMacConfig | None = None,
                 queue_capacity: int = 16) -> None:
        super().__init__(engine, node, port, queue_capacity)
        self.config = config or BMacConfig()
        self.rng = node.rng
        self._listen_process: Process | None = None
        self._send_process: Process | None = None
        self.preambles_sent = 0
        self.samples_taken = 0
        self.backoff_exhausted = 0
        self._receiving_until = 0

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.port.sleep()
        self._listen_process = Process(self.engine, self._listen_loop(),
                                       name=f"bmac-listen:{self.node_id}")
        self._send_process = Process(self.engine, self._send_loop(),
                                     name=f"bmac-send:{self.node_id}")

    def stop(self) -> None:
        super().stop()
        for proc in (self._listen_process, self._send_process):
            if proc is not None:
                proc.kill()
        self._listen_process = None
        self._send_process = None

    # ------------------------------------------------------------------
    # Receiver side: periodic channel sampling
    # ------------------------------------------------------------------
    def _listen_loop(self):
        cfg = self.config
        while self.running:
            yield Delay(cfg.check_interval_ticks)
            if not self.running or self.node.failed:
                continue
            if self.node.radio.state is RadioState.TX:
                continue  # busy sending; skip this sample
            self.samples_taken += 1
            self.port.listen()
            yield Delay(cfg.sample_ticks)
            if self.node.failed or self.node.radio.state is RadioState.TX:
                continue
            if self.port.channel_busy():
                # Energy on the channel: hold RX for the data frame.
                deadline = self.engine.now + cfg.data_timeout_ticks
                self._receiving_until = deadline
                while (self.running and self.engine.now < deadline
                       and self.port.channel_busy()):
                    yield Delay(1 * MS)
                # Linger briefly so the end-of-frame delivery lands in RX.
                yield Delay(500 * US)
            if self.node.radio.state is RadioState.RX:
                self.port.sleep()

    # ------------------------------------------------------------------
    # Sender side: CCA + long preamble + data
    # ------------------------------------------------------------------
    def _send_loop(self):
        cfg = self.config
        while self.running:
            if not self.has_pending or self.node.failed:
                yield Delay(1 * MS)
                continue
            yield Delay(self.rng.randrange(1, cfg.initial_backoff_ticks))
            backoffs = 0
            while self.running and backoffs < cfg.max_backoffs:
                if self.port.channel_busy():
                    backoffs += 1
                    yield Delay(self.rng.randrange(
                        1, cfg.congestion_backoff_ticks))
                    continue
                break
            if backoffs >= cfg.max_backoffs:
                self.backoff_exhausted += 1
                self.drop_head()  # drop after persistent congestion
                continue
            if not self.has_pending or self.node.failed:
                continue
            packet = self.dequeue()
            yield from self._transmit_with_preamble(packet)

    def _transmit_with_preamble(self, packet: Packet):
        cfg = self.config
        preamble_bytes = self._bytes_for_airtime(cfg.preamble_ticks)
        preamble = Packet(src=self.node_id, dst=BROADCAST,
                          kind="bmac.preamble", size_bytes=preamble_bytes,
                          created_at=self.engine.now)
        airtime = self.port.transmit(preamble, after_state=RadioState.IDLE)
        self.preambles_sent += 1
        yield Delay(airtime)
        if self.node.failed:
            return
        airtime = self.port.transmit(packet, after_state=RadioState.OFF)
        self.stats.sent += 1
        yield Delay(airtime)
        self.port.sleep()

    def _bytes_for_airtime(self, ticks: int) -> int:
        bitrate = self.node.radio.spec.bitrate_bps
        return max(1, (ticks * bitrate) // (8 * SEC))

    def _accept(self, packet: Packet) -> bool:
        if packet.kind == "bmac.preamble":
            return False  # wake-up energy only; never delivered upward
        return super()._accept(packet)
