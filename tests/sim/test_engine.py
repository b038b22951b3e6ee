"""Engine: ordering, cancellation, run windows, determinism."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import MS, SEC, SimClock, format_time
from repro.sim.engine import Engine, SimulationError


class TestClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0

    def test_advance(self):
        clock = SimClock()
        clock.advance_to(5)
        assert clock.now == 5

    def test_cannot_move_backwards(self):
        clock = SimClock(10)
        with pytest.raises(ValueError):
            clock.advance_to(5)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(-1)

    def test_now_seconds(self):
        clock = SimClock(1_500_000)
        assert clock.now_seconds == pytest.approx(1.5)

    def test_format_time(self):
        assert format_time(1_500_000) == "1.500000s"
        assert format_time(-250) == "-0.000250s"


class TestScheduling:
    def test_single_event(self, engine):
        fired = []
        engine.schedule(100, fired.append, 1)
        engine.run()
        assert fired == [1]
        assert engine.now == 100

    def test_time_order(self, engine):
        order = []
        engine.schedule(300, order.append, "c")
        engine.schedule(100, order.append, "a")
        engine.schedule(200, order.append, "b")
        engine.run()
        assert order == ["a", "b", "c"]

    def test_fifo_within_same_tick(self, engine):
        order = []
        for tag in "abcde":
            engine.schedule(50, order.append, tag)
        engine.run()
        assert order == list("abcde")

    def test_priority_breaks_ties(self, engine):
        order = []
        engine.schedule(50, order.append, "low", priority=5)
        engine.schedule(50, order.append, "high", priority=-5)
        engine.run()
        assert order == ["high", "low"]

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(-1, lambda: None)

    def test_events_can_schedule_events(self, engine):
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                engine.schedule(10, chain, n + 1)

        engine.schedule(10, chain, 0)
        engine.run()
        assert seen == [0, 1, 2, 3]
        assert engine.now == 40


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, engine):
        fired = []
        handle = engine.schedule(100, fired.append, 1)
        handle.cancel()
        engine.run()
        assert fired == []

    def test_cancel_is_idempotent(self, engine):
        handle = engine.schedule(100, lambda: None)
        handle.cancel()
        handle.cancel()
        assert not handle.pending

    def test_pending_lifecycle(self, engine):
        handle = engine.schedule(100, lambda: None)
        assert handle.pending
        engine.run()
        assert not handle.pending
        assert handle.dispatched


class TestRunWindows:
    def test_run_until_stops_at_boundary(self, engine):
        fired = []
        engine.schedule(100, fired.append, "early")
        engine.schedule(5000, fired.append, "late")
        engine.run_until(1000)
        assert fired == ["early"]
        assert engine.now == 1000

    def test_run_until_includes_boundary_events(self, engine):
        fired = []
        engine.schedule(1000, fired.append, "edge")
        engine.run_until(1000)
        assert fired == ["edge"]

    def test_run_for(self, engine):
        engine.schedule(100, lambda: None)
        engine.run_for(50)
        assert engine.now == 50
        engine.run_for(100)
        assert engine.now == 150

    def test_run_until_past_rejected(self, engine):
        engine.run_until(100)
        with pytest.raises(SimulationError):
            engine.run_until(50)

    def test_leftover_events_run_later(self, engine):
        fired = []
        engine.schedule(2000, fired.append, 1)
        engine.run_until(1000)
        assert fired == []
        engine.run_until(3000)
        assert fired == [1]

    def test_dispatched_count(self, engine):
        for _ in range(5):
            engine.schedule(1, lambda: None)
        engine.run()
        assert engine.dispatched_count == 5


class TestDeterminism:
    def test_identical_runs_identical_order(self):
        def run_once():
            engine = Engine()
            order = []
            for i in range(100):
                engine.schedule((i * 37) % 50, order.append, i)
            engine.run()
            return order

        assert run_once() == run_once()


# An initial event: (delay, priority, follow-ups it posts when it fires
# as (delay, priority) pairs, an initial event it cancels when it fires,
# cancelled before the run starts).
_events = st.lists(
    st.tuples(st.integers(0, 50), st.integers(-2, 2),
              st.lists(st.tuples(st.integers(0, 50), st.integers(-2, 2)),
                       max_size=3),
              st.none() | st.integers(0, 19),
              st.booleans()),
    max_size=20)


def _play(spec, drive):
    engine = Engine()
    log = []
    handles = []
    follow_up_ids = itertools.count(len(spec))

    def fire(event_id, follow_ups, victim):
        log.append((engine.now, event_id))
        if victim is not None:
            handles[victim].cancel()
        for delay, priority in follow_ups:
            engine.post(delay, fire, next(follow_up_ids), (), None,
                        priority=priority)

    for i, (delay, priority, follow_ups, victim, _) in enumerate(spec):
        victim = None if victim is None else victim % len(spec)
        handles.append(engine.schedule(delay, fire, i, follow_ups, victim,
                                       priority=priority))
    for handle, (*_, cancelled) in zip(handles, spec):
        if cancelled:
            handle.cancel()
    dispatched = drive(engine)
    return (log, dispatched, engine.pending_events,
            [handle.dispatched for handle in handles], engine.now)


class TestEntryPointsAgree:
    @settings(max_examples=60, deadline=None)
    @given(_events, st.integers(100, 10_000))
    def test_run_and_run_until_dispatch_alike(self, spec, horizon):
        """Every event lands at or before tick 100, so draining the queue
        and running to any later horizon dispatch the same events in the
        same order; only where the clock ends differs."""
        drained = _play(spec, Engine.run)
        bounded = _play(spec, lambda engine: engine.run_until(horizon))
        assert bounded[:4] == drained[:4]
        assert drained[1] == len(drained[0])
        assert drained[2] == 0
        assert drained[4] == (drained[0][-1][0] if drained[0] else 0)
        assert bounded[4] == horizon
