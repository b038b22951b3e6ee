"""RT-Link: hardware-synchronized TDMA.

The protocol the EVM stack runs on.  Time is divided into frames of
``slots_per_frame`` fixed slots; a global schedule assigns each slot one
transmitter and a set of listeners.  Because all nodes share the AM-broadcast
time reference (sub-150 us error), a small guard interval suffices and slots
are collision-free by construction.  Nodes keep the radio off outside their
own slots, which is where the multi-year lifetime comes from.

Slot timing is computed from each node's *local* clock, so synchronization
error is exercised for real: if jitter exceeded the guard time, frames would
collide or be missed at slot edges.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.radio import RadioState
from repro.net.mac.base import MacProtocol
from repro.net.mac.slotwheel import SlotWheel
from repro.net.packet import Packet
from repro.obs import instrument
from repro.sim.clock import MS, US
from repro.sim.process import Delay, Process


@dataclass(frozen=True)
class RtLinkConfig:
    """Frame geometry.  Defaults: 32 slots x 5 ms = 160 ms frames."""

    slots_per_frame: int = 32
    slot_ticks: int = 5 * MS
    guard_ticks: int = 200 * US

    @property
    def frame_ticks(self) -> int:
        return self.slots_per_frame * self.slot_ticks

    def payload_fits(self, airtime_ticks: int) -> bool:
        return airtime_ticks + 2 * self.guard_ticks <= self.slot_ticks


class RtLinkSchedule:
    """Global slot assignment: one transmitter and N listeners per slot.

    Mutations (``assign``/``clear``) bump ``version``; the per-node slot
    indexes behind ``tx_slots_of``/``rx_slots_of``/``free_slots`` and
    every :class:`~repro.net.mac.slotwheel.SlotWheel` built from this
    schedule are keyed on that stamp, so lookups are O(1) dict reads
    instead of per-call frame scans and stale calendars are impossible.
    """

    def __init__(self, config: RtLinkConfig) -> None:
        self.config = config
        self._tx: dict[int, str] = {}
        self._rx: dict[int, set[str]] = {}
        self.version = 0
        self._index_version = -1
        self._tx_by_node: dict[str, list[int]] = {}
        self._rx_by_node: dict[str, list[int]] = {}
        self._free: list[int] = []

    def assign(self, slot: int, transmitter: str,
               listeners: set[str] | None = None) -> None:
        """Give ``slot`` to ``transmitter``; ``listeners`` wake to receive."""
        if not 0 <= slot < self.config.slots_per_frame:
            raise ValueError(
                f"slot {slot} out of range 0..{self.config.slots_per_frame - 1}")
        if slot in self._tx:
            raise ValueError(
                f"slot {slot} already assigned to {self._tx[slot]!r}")
        self._tx[slot] = transmitter
        self._rx[slot] = set(listeners or set()) - {transmitter}
        self.version += 1

    def clear(self, slot: int) -> None:
        had_tx = self._tx.pop(slot, None) is not None
        had_rx = self._rx.pop(slot, None) is not None
        if had_tx or had_rx:
            self.version += 1

    def transmitter(self, slot: int) -> str | None:
        return self._tx.get(slot)

    def listeners(self, slot: int) -> set[str]:
        return self._rx.get(slot, set())

    def _reindex(self) -> None:
        tx_by_node: dict[str, list[int]] = {}
        rx_by_node: dict[str, list[int]] = {}
        for slot in sorted(self._tx):
            tx_by_node.setdefault(self._tx[slot], []).append(slot)
        for slot in sorted(self._rx):
            for node_id in self._rx[slot]:
                rx_by_node.setdefault(node_id, []).append(slot)
        self._tx_by_node = tx_by_node
        self._rx_by_node = rx_by_node
        self._free = [s for s in range(self.config.slots_per_frame)
                      if s not in self._tx]
        self._index_version = self.version

    def tx_slots_of(self, node_id: str) -> list[int]:
        if self._index_version != self.version:
            self._reindex()
        return list(self._tx_by_node.get(node_id, ()))

    def rx_slots_of(self, node_id: str) -> list[int]:
        if self._index_version != self.version:
            self._reindex()
        return list(self._rx_by_node.get(node_id, ()))

    def free_slots(self) -> list[int]:
        if self._index_version != self.version:
            self._reindex()
        return list(self._free)

    @classmethod
    def round_robin(cls, config: RtLinkConfig, node_ids: list[str],
                    listeners_of: dict[str, set[str]] | None = None,
                    ) -> "RtLinkSchedule":
        """One TX slot per node, in order; listeners default to all others."""
        if len(node_ids) > config.slots_per_frame:
            raise ValueError(
                f"{len(node_ids)} nodes exceed {config.slots_per_frame} slots")
        schedule = cls(config)
        all_nodes = set(node_ids)
        for slot, node_id in enumerate(node_ids):
            if listeners_of is not None:
                listeners = set(listeners_of.get(node_id, set()))
            else:
                listeners = all_nodes - {node_id}
            schedule.assign(slot, node_id, listeners)
        return schedule


class RtLinkMac(MacProtocol):
    """Per-node RT-Link state machine."""

    def __init__(self, engine, node, port, schedule: RtLinkSchedule,
                 queue_capacity: int = 16) -> None:
        super().__init__(engine, node, port, queue_capacity)
        self.schedule = schedule
        self.config = schedule.config
        self._process: Process | None = None
        self._wheel: SlotWheel | None = None
        self.slots_woken = 0
        self.slots_transmitted = 0
        # Slot boundaries are a few hundred Hz of sim time: cool enough
        # to meter per occurrence.
        self._obs = instrument.rtlink_meters()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.port.sleep()
        self._process = Process(self.engine, self._run(),
                                name=f"rtlink:{self.node_id}")

    def stop(self) -> None:
        super().stop()
        if self._process is not None:
            self._process.kill()
            self._process = None

    # ------------------------------------------------------------------
    # Slot engine
    # ------------------------------------------------------------------
    def _calendar(self) -> SlotWheel:
        """The node's slot wheel, rebuilt iff the schedule version moved."""
        wheel = self._wheel
        if wheel is None or wheel.version != self.schedule.version:
            wheel = self._wheel = SlotWheel(self.node_id, self.schedule)
        return wheel

    def _run(self):
        cfg = self.config
        slot_ticks = cfg.slot_ticks
        guard_ticks = cfg.guard_ticks
        node = self.node
        clock = node.clock
        radio = node.radio
        port = self.port
        rx = RadioState.RX
        # Cursor over absolute slot numbers: servicing a slot never causes
        # the next one to be skipped, even when wake-up runs late
        # (back-to-back RX slots are common at gateways).
        cursor = clock.local_time() // slot_ticks + 1
        while self.running:
            if node.failed:
                yield Delay(cfg.frame_ticks)
                cursor = clock.local_time() // slot_ticks + 1
                continue
            upcoming = self._calendar().next_interesting(cursor)
            if upcoming is None:
                yield Delay(cfg.frame_ticks)
                cursor += cfg.slots_per_frame
                continue
            abs_slot, kind = upcoming
            cursor = abs_slot + 1
            slot_start_local = abs_slot * slot_ticks
            wake_local = slot_start_local - guard_ticks
            local_now = clock.local_time()
            if wake_local > local_now:
                yield Delay(wake_local - local_now)
            if not self.running or node.failed:
                continue
            self.slots_woken += 1
            if self._obs is not None:
                self._obs.slots_woken.inc()
            if kind == "tx":
                yield from self._tx_slot(slot_start_local)
                continue
            # RX slot, run inline: listen through the end of the slot plus
            # a guard, however late the wake-up was (never past the *next*
            # slot's guard window).
            port.listen()
            remaining = (slot_start_local + slot_ticks + guard_ticks
                         - clock.local_time())
            if remaining > 0:
                yield Delay(remaining)
            if radio.state is rx:
                port.sleep()

    def _tx_slot(self, slot_start_local: int):
        cfg = self.config
        self.port.idle()
        # Hold until the slot actually starts on the local clock.
        gap = slot_start_local - self.node.clock.local_time()
        if gap > 0:
            yield Delay(gap)
        # Pack frames into the slot while their airtime fits before the
        # trailing guard: control frames first, then bulk (migration,
        # capsule fragments) in the leftover airtime -- so bulk transfers
        # make progress without a second slot and without ever displacing
        # control traffic.
        slot_end_local = slot_start_local + cfg.slot_ticks - cfg.guard_ticks
        transmitted = 0
        while self.has_pending and not self.node.failed:
            packet = self.peek()
            airtime = self.node.radio.airtime(packet.on_air_bytes)
            if self.node.clock.local_time() + airtime > slot_end_local:
                break
            self.dequeue()
            self.port.transmit(packet, after_state=RadioState.IDLE)
            self.stats.sent += 1
            transmitted += 1
            yield Delay(airtime)
        if transmitted:
            self.slots_transmitted += 1
        if self._obs is not None:
            self._obs.slot_frames.observe(transmitted)
            if transmitted:
                self._obs.slots_transmitted.inc()
        self.port.sleep()

    def send(self, packet: Packet) -> bool:
        airtime = self.node.radio.airtime(packet.on_air_bytes)
        if not self.config.payload_fits(airtime):
            raise ValueError(
                f"packet airtime {airtime} ticks does not fit a "
                f"{self.config.slot_ticks}-tick slot; fragment at a higher "
                f"layer")
        return super().send(packet)
