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

The slot engine is a posted-callback state machine rather than a generator
:class:`~repro.sim.process.Process`.  Each wait -- to a slot's wake-up, to
the local slot start, through a frame's airtime, to the end of an RX slot,
or a whole frame while the node is failed or has no slots -- is one
``engine.post`` of a bound method that carries the MAC's *generation
token*.  ``start`` and ``stop`` bump the token, so a wait armed before them
pops as a no-op (the idiom of ``Process`` and the RTOS release chains; see
:mod:`repro.sim.engine`).  The next slot is the next entry of the node's
:class:`~repro.net.mac.slotwheel.SlotWheel`; the wheel's bisect runs only
to seek: at start, a frame after a failure or an empty wheel, and after a
schedule change.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.radio import RadioState
from repro.net.mac.base import MacProtocol
from repro.net.mac.slotwheel import SLOT_RX, SLOT_TX, SlotWheel
from repro.net.packet import Packet
from repro.obs import instrument
from repro.sim.clock import MS, US

# Module-level aliases: a member read through the enum class goes through
# EnumType.__getattr__.
_RX, _OFF, _IDLE = RadioState.RX, RadioState.OFF, RadioState.IDLE


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

    def listeners(self, slot: int) -> frozenset[str]:
        # A copy: adding to the schedule's own set would not bump
        # ``version``, so no index or SlotWheel would ever see the change.
        return frozenset(self._rx.get(slot, ()))

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
    """Per-node RT-Link state machine.

    Between callbacks the slot engine keeps: ``_cursor``, the absolute
    slot a seek starts from; ``_base`` and ``_index``, the wheel entry of
    the next slot (``_index`` is -1 while the next lookup must seek);
    ``_slot_start`` and ``_slot_kind``, the slot being serviced (local
    ticks); and ``_sent``, the frames sent in the current TX slot.
    """

    def __init__(self, engine, node, port, schedule: RtLinkSchedule,
                 queue_capacity: int = 16) -> None:
        super().__init__(engine, node, port, queue_capacity)
        self.schedule = schedule
        self.config = schedule.config
        self._wheel: SlotWheel | None = None
        self.slots_woken = 0
        self.slots_transmitted = 0
        # Slot boundaries are a few hundred Hz of sim time: cool enough
        # to meter per occurrence.
        self._obs = instrument.rtlink_meters()
        self._post = engine.post
        self._radio = node.radio
        self._clock = node.clock
        self._token = 0
        self._cursor = 0
        self._base = 0
        self._index = -1
        self._slot_start = 0
        self._slot_kind = SLOT_RX
        self._sent = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.port.sleep()
        self._token += 1
        self._post(0, self._begin, self._token, None)

    def stop(self) -> None:
        super().stop()
        self._token += 1  # the armed wait now pops as a no-op

    # ------------------------------------------------------------------
    # Slot engine
    # ------------------------------------------------------------------
    def _begin(self, token: int, cursor: int | None) -> None:
        """Seek from ``cursor``, or from the slot after the local clock's
        (at start, and a frame after the node was found failed)."""
        if token != self._token:
            return
        if cursor is None:
            cursor = self._clock.local_time() // self.config.slot_ticks + 1
        self._cursor = cursor
        self._index = -1
        self._next()

    def _next(self) -> None:
        """Find the next interesting slot and arm its wake-up; when the
        wake-up is already due (it ran late, or slots are back to back,
        as at gateways), service the slot here and look again."""
        cfg = self.config
        node = self.node
        schedule = self.schedule
        while True:
            if node.failed:
                self._post(cfg.frame_ticks, self._begin, self._token, None)
                return
            wheel = self._wheel
            if wheel is None or wheel.version != schedule.version:
                wheel = self._wheel = SlotWheel(self.node_id, schedule)
                self._index = -1
            index = self._index
            if index < 0:
                found = wheel.seek(self._cursor)
                if found is None:
                    self._post(cfg.frame_ticks, self._begin, self._token,
                               self._cursor + cfg.slots_per_frame)
                    return
                self._base, index = found
            offsets = wheel.offsets
            abs_slot = self._base + offsets[index]
            self._slot_kind = wheel.kinds[index]
            # The cursor over absolute slots: servicing a slot never
            # causes the next one to be skipped, even when the wake-up
            # runs late.  The next entry, wrapping into the next frame,
            # is what a seek from the cursor would find.
            self._cursor = abs_slot + 1
            index += 1
            if index == len(offsets):
                index = 0
                self._base += cfg.slots_per_frame
            self._index = index
            self._slot_start = slot_start = abs_slot * cfg.slot_ticks
            wait = slot_start - cfg.guard_ticks - self._clock.local_time()
            if wait > 0:
                self._post(wait, self._wake, self._token)
                return
            if not self._service():
                return

    def _wake(self, token: int) -> None:
        if token != self._token:
            return
        if self.node.failed or self._service():
            self._next()

    def _service(self) -> bool:
        """Run the slot just woken for; False when it armed a wait."""
        self.slots_woken += 1
        if self._obs is not None:
            self._obs.slots_woken.inc()
        radio = self._radio
        if self._slot_kind == SLOT_TX:
            radio.set_state(_IDLE)
            self._sent = 0
            # Hold until the slot actually starts on the local clock.
            gap = self._slot_start - self._clock.local_time()
            if gap > 0:
                self._post(gap, self._tx_resume, self._token)
                return False
            return self._tx_next()
        # RX: listen through the end of the slot plus a guard, however
        # late the wake-up was (never past the *next* slot's guard window).
        cfg = self.config
        radio.set_state(_RX)
        remaining = (self._slot_start + cfg.slot_ticks + cfg.guard_ticks
                     - self._clock.local_time())
        if remaining > 0:
            self._post(remaining, self._rx_end, self._token)
            return False
        if radio.state is _RX:
            radio.set_state(_OFF)
        return True

    def _rx_end(self, token: int) -> None:
        if token != self._token:
            return
        radio = self._radio
        if radio.state is _RX:
            radio.set_state(_OFF)
        self._next()

    def _tx_next(self) -> bool:
        """Send the next frame if its airtime fits before the trailing
        guard and arm the wait through it; True once the slot is over.

        Control frames leave first, then bulk (migration, capsule
        fragments) in the leftover airtime -- so bulk transfers make
        progress without a second slot and without ever displacing
        control traffic.
        """
        if self.has_pending and not self.node.failed:
            cfg = self.config
            packet = self.peek()
            airtime = self._radio.airtime(packet.on_air_bytes)
            slot_end = self._slot_start + cfg.slot_ticks - cfg.guard_ticks
            if self._clock.local_time() + airtime <= slot_end:
                self.dequeue()
                self.port.transmit(packet, after_state=_IDLE)
                self.stats.sent += 1
                self._sent += 1
                self._post(airtime, self._tx_resume, self._token)
                return False
        sent = self._sent
        if sent:
            self.slots_transmitted += 1
        if self._obs is not None:
            self._obs.slot_frames.observe(sent)
            if sent:
                self._obs.slots_transmitted.inc()
        self._radio.set_state(_OFF)
        return True

    def _tx_resume(self, token: int) -> None:
        if token == self._token and self._tx_next():
            self._next()

    def send(self, packet: Packet) -> bool:
        airtime = self.node.radio.airtime(packet.on_air_bytes)
        if not self.config.payload_fits(airtime):
            raise ValueError(
                f"packet airtime {airtime} ticks does not fit a "
                f"{self.config.slot_ticks}-tick slot; fragment at a higher "
                f"layer")
        return super().send(packet)
