"""Precomputed interesting-slot calendar for the RT-Link TDMA MAC.

The naive RT-Link loop asks "what is my next interesting slot?" by
scanning the whole frame (``O(slots_per_frame)`` dict probes) every time
a node wakes.  At 1000 slots per frame that scan dominates wide-grid
trials.  A :class:`SlotWheel` precomputes the node's interesting slots
(its TX slot plus every slot it must listen in) as a sorted offset table
once per schedule *version*, so each lookup is a single ``bisect`` --
O(log interesting) -- and idle frames are skipped in O(1).

The wheel is a pure read-model: it is built from
``RtLinkSchedule.tx_slots_of/rx_slots_of`` and stamped with the
schedule's ``version``.  ``RtLinkMac`` rebuilds it whenever the stamp no
longer matches (``assign``/``clear`` bump the version), so calendars
never go stale under live reconfiguration.

Between seeks the MAC does not bisect at all: it walks the entries in
order, wrapping into the next frame after the last.  That is exact
because the offsets are unique and sorted: the entry after the one at
``frame_base + offsets[i]`` is what :meth:`SlotWheel.seek` would find
from the slot after it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.mac.rtlink import RtLinkSchedule

SLOT_TX = "tx"
SLOT_RX = "rx"


class SlotWheel:
    """One node's interesting-slot calendar for a schedule version."""

    __slots__ = ("node_id", "version", "slots_per_frame", "offsets",
                 "kinds")

    def __init__(self, node_id: str, schedule: "RtLinkSchedule") -> None:
        self.node_id = node_id
        self.version = schedule.version
        self.slots_per_frame = schedule.config.slots_per_frame
        entries = sorted(
            [(slot, SLOT_TX) for slot in schedule.tx_slots_of(node_id)]
            + [(slot, SLOT_RX) for slot in schedule.rx_slots_of(node_id)])
        self.offsets = tuple(slot for slot, _ in entries)
        self.kinds = tuple(kind for _, kind in entries)

    def __len__(self) -> int:
        return len(self.offsets)

    def seek(self, from_abs_slot: int) -> tuple[int, int] | None:
        """``(frame_base, index)`` of the first interesting slot at or
        after ``from_abs_slot``: that slot is ``frame_base +
        offsets[index]`` and its kind ``kinds[index]``.

        ``None`` when the node has no interesting slots at all.
        """
        offsets = self.offsets
        if not offsets:
            return None
        frame, offset = divmod(from_abs_slot, self.slots_per_frame)
        index = bisect_left(offsets, offset)
        if index == len(offsets):
            # Nothing left this frame: wrap to the first entry of the next.
            frame += 1
            index = 0
        return frame * self.slots_per_frame, index

    def next_interesting(self, from_abs_slot: int) -> tuple[int, str] | None:
        """First ``(abs_slot, kind)`` at or after ``from_abs_slot``.

        ``None`` when the node has no interesting slots at all (it never
        transmits and is nobody's listener).  ``kind`` is ``"tx"`` or
        ``"rx"``; a slot is never both (listeners exclude the
        transmitter).
        """
        found = self.seek(from_abs_slot)
        if found is None:
            return None
        frame_base, index = found
        return frame_base + self.offsets[index], self.kinds[index]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SlotWheel({self.node_id!r}, v{self.version}, "
                f"{len(self.offsets)}/{self.slots_per_frame} slots)")
