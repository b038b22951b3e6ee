"""SlotWheel calendar and the versioned RtLinkSchedule indexes.

The wheel must be *provably* equivalent to the naive per-slot walker the
MAC used before the calendar existed: the hypothesis properties below
replay random schedules, frame geometries and live assign/clear
mutations through both and demand identical TX/RX slot transcripts, for
both ways the MAC reads the wheel -- a bisect per lookup
(``next_interesting``) and the index walk ``RtLinkMac`` makes between
seeks (:class:`WheelWalker`).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.mac.rtlink import RtLinkConfig, RtLinkSchedule
from repro.net.mac.slotwheel import SlotWheel


def naive_next_interesting(schedule: RtLinkSchedule, node_id: str,
                           from_slot: int):
    """The pre-calendar reference: scan one whole frame slot by slot."""
    spf = schedule.config.slots_per_frame
    for abs_slot in range(from_slot, from_slot + spf):
        slot = abs_slot % spf
        if schedule.transmitter(slot) == node_id:
            return abs_slot, "tx"
        if node_id in schedule.listeners(slot):
            return abs_slot, "rx"
    return None


def transcript(next_fn, from_slot: int, spf: int, length: int):
    """Walk ``length`` interesting slots with a lookup per slot: service
    the slot, advance the cursor past it; jump a frame when the node has
    nothing at all."""
    out, cursor = [], from_slot
    for _ in range(length):
        upcoming = next_fn(cursor)
        if upcoming is None:
            out.append(None)
            cursor += spf
            continue
        abs_slot, kind = upcoming
        out.append((abs_slot, kind))
        cursor = abs_slot + 1
    return out


class WheelWalker:
    """The lookup ``RtLinkMac._next`` makes: seek once, then step through
    the wheel's entries by index, wrapping into the next frame after the
    last; seek again only after an empty frame or on a rebuilt wheel."""

    def __init__(self, wheel: SlotWheel, cursor: int) -> None:
        self.wheel = wheel
        self.cursor = cursor
        self.base = 0
        self.index = -1

    def rebuild(self, wheel: SlotWheel) -> None:
        """A schedule version change: the next step seeks."""
        self.wheel = wheel
        self.index = -1

    def step(self):
        wheel = self.wheel
        if self.index < 0:
            found = wheel.seek(self.cursor)
            if found is None:
                self.cursor += wheel.slots_per_frame
                return None
            self.base, self.index = found
        abs_slot = self.base + wheel.offsets[self.index]
        kind = wheel.kinds[self.index]
        self.cursor = abs_slot + 1
        self.index += 1
        if self.index == len(wheel.offsets):
            self.index = 0
            self.base += wheel.slots_per_frame
        return abs_slot, kind


class TestScheduleIndexes:
    def _schedule(self) -> RtLinkSchedule:
        config = RtLinkConfig(slots_per_frame=8)
        schedule = RtLinkSchedule(config)
        schedule.assign(1, "a", {"b", "c"})
        schedule.assign(3, "b", {"a"})
        schedule.assign(6, "c", {"a", "b"})
        return schedule

    def test_indexes_match_definition(self):
        schedule = self._schedule()
        assert schedule.tx_slots_of("a") == [1]
        assert schedule.rx_slots_of("a") == [3, 6]
        assert schedule.tx_slots_of("nobody") == []
        assert schedule.rx_slots_of("nobody") == []
        assert schedule.free_slots() == [0, 2, 4, 5, 7]

    def test_assign_and_clear_bump_version(self):
        schedule = self._schedule()
        before = schedule.version
        schedule.clear(3)
        assert schedule.version > before
        before = schedule.version
        schedule.assign(3, "c", {"b"})
        assert schedule.version > before

    def test_clear_of_empty_slot_is_a_noop_version_wise(self):
        schedule = self._schedule()
        before = schedule.version
        schedule.clear(0)  # never assigned
        assert schedule.version == before

    def test_interleaved_assign_clear_keeps_indexes_fresh(self):
        schedule = self._schedule()
        schedule.clear(1)
        assert schedule.tx_slots_of("a") == []
        assert schedule.rx_slots_of("b") == [6]
        assert 1 in schedule.free_slots()
        schedule.assign(1, "b", {"a", "c"})
        assert schedule.tx_slots_of("b") == [1, 3]
        assert schedule.rx_slots_of("a") == [1, 3, 6]
        assert schedule.free_slots() == [0, 2, 4, 5, 7]
        schedule.clear(6)
        schedule.assign(0, "c", set())
        assert schedule.tx_slots_of("c") == [0]
        assert schedule.rx_slots_of("a") == [1, 3]
        assert schedule.free_slots() == [2, 4, 5, 6, 7]

    def test_returned_lists_are_copies(self):
        schedule = self._schedule()
        schedule.tx_slots_of("a").append(99)
        schedule.free_slots().append(99)
        assert schedule.tx_slots_of("a") == [1]
        assert schedule.free_slots() == [0, 2, 4, 5, 7]
        # Adding a listener by hand would not bump the version, so no
        # index or wheel would see it until an unrelated assign did.
        with pytest.raises(AttributeError):
            schedule.listeners(1).add("d")
        assert schedule.listeners(1) == {"b", "c"}
        assert schedule.rx_slots_of("d") == []

    def test_listeners_never_include_transmitter(self):
        schedule = RtLinkSchedule(RtLinkConfig(slots_per_frame=4))
        schedule.assign(2, "a", {"a", "b"})
        assert schedule.rx_slots_of("a") == []
        assert schedule.rx_slots_of("b") == [2]


class TestSlotWheel:
    def test_empty_wheel_has_no_interesting_slots(self):
        schedule = RtLinkSchedule(RtLinkConfig(slots_per_frame=8))
        schedule.assign(0, "a", {"b"})
        wheel = SlotWheel("ghost", schedule)
        assert len(wheel) == 0
        assert wheel.next_interesting(0) is None
        assert wheel.next_interesting(12345) is None

    def test_wraps_to_next_frame(self):
        schedule = RtLinkSchedule(RtLinkConfig(slots_per_frame=8))
        schedule.assign(2, "a", {"b"})
        wheel = SlotWheel("a", schedule)
        assert wheel.next_interesting(0) == (2, "tx")
        assert wheel.next_interesting(2) == (2, "tx")
        assert wheel.next_interesting(3) == (10, "tx")
        assert wheel.next_interesting(8 * 1000 + 7) == (8 * 1001 + 2, "tx")

    def test_stamped_with_schedule_version(self):
        schedule = RtLinkSchedule(RtLinkConfig(slots_per_frame=8))
        schedule.assign(0, "a", {"b"})
        wheel = SlotWheel("b", schedule)
        assert wheel.version == schedule.version
        schedule.assign(5, "c", {"b"})
        assert wheel.version != schedule.version
        rebuilt = SlotWheel("b", schedule)
        assert rebuilt.next_interesting(1) == (5, "rx")


# ----------------------------------------------------------------------
# Property: wheel transcript == naive walker transcript
# ----------------------------------------------------------------------
NODE_POOL = ["n0", "n1", "n2", "n3", "n4", "n5"]


@st.composite
def schedule_and_mutations(draw):
    spf = draw(st.integers(min_value=1, max_value=48))
    config = RtLinkConfig(slots_per_frame=spf)
    schedule = RtLinkSchedule(config)
    n_ops = draw(st.integers(min_value=0, max_value=24))
    for _ in range(n_ops):
        slot = draw(st.integers(min_value=0, max_value=spf - 1))
        if schedule.transmitter(slot) is None and draw(st.booleans()):
            transmitter = draw(st.sampled_from(NODE_POOL))
            listeners = set(draw(st.lists(st.sampled_from(NODE_POOL),
                                          max_size=len(NODE_POOL))))
            schedule.assign(slot, transmitter, listeners)
        else:
            schedule.clear(slot)
    return schedule


@settings(max_examples=120, deadline=None)
@given(data=st.data(), schedule=schedule_and_mutations())
def test_wheel_transcript_matches_naive_walker(data, schedule):
    spf = schedule.config.slots_per_frame
    node_id = data.draw(st.sampled_from(NODE_POOL), label="node")
    start = data.draw(st.integers(min_value=0, max_value=4 * spf),
                      label="start_slot")
    wheel = SlotWheel(node_id, schedule)
    got = transcript(wheel.next_interesting, start, spf, length=2 * spf + 3)
    want = transcript(
        lambda cursor: naive_next_interesting(schedule, node_id, cursor),
        start, spf, length=2 * spf + 3)
    assert got == want
    walker = WheelWalker(wheel, start)
    assert [walker.step() for _ in range(2 * spf + 3)] == want


@settings(max_examples=60, deadline=None)
@given(data=st.data(), schedule=schedule_and_mutations())
def test_wheel_agrees_after_live_mutation(data, schedule):
    """assign/clear mid-walk: a rebuilt wheel (version changed) must track
    the mutated schedule exactly, the way ``RtLinkMac`` rebuilds its
    calendar on a version mismatch -- and an index walk that was part of
    the way through the old wheel must seek on the new one from where it
    stood."""
    spf = schedule.config.slots_per_frame
    node_id = data.draw(st.sampled_from(NODE_POOL), label="node")
    wheel = SlotWheel(node_id, schedule)
    walk_from = data.draw(st.integers(min_value=0, max_value=2 * spf),
                          label="walk_from")
    walked = data.draw(st.integers(min_value=0, max_value=spf + 2),
                       label="walked")
    walker = WheelWalker(wheel, walk_from)
    naive = transcript(
        lambda cursor: naive_next_interesting(schedule, node_id, cursor),
        walk_from, spf, length=walked)
    assert [walker.step() for _ in range(walked)] == naive
    cursor = walker.cursor
    version_before = schedule.version
    slot = data.draw(st.integers(min_value=0, max_value=spf - 1),
                     label="mutated_slot")
    if schedule.transmitter(slot) is None:
        schedule.assign(slot, node_id, set(NODE_POOL))
    else:
        schedule.clear(slot)
    assert schedule.version != version_before
    if wheel.version != schedule.version:
        wheel = SlotWheel(node_id, schedule)
    start = data.draw(st.integers(min_value=0, max_value=2 * spf),
                      label="start_slot")
    got = transcript(wheel.next_interesting, start, spf, length=spf + 2)
    want = transcript(
        lambda cursor: naive_next_interesting(schedule, node_id, cursor),
        start, spf, length=spf + 2)
    assert got == want
    walker.rebuild(wheel)
    assert [walker.step() for _ in range(spf + 2)] == transcript(
        lambda cursor: naive_next_interesting(schedule, node_id, cursor),
        cursor, spf, length=spf + 2)
