"""The discrete-event engine.

A single priority queue of ``(time, priority, sequence, handle, callback,
args)`` entries.  Entries at equal times dispatch in ``(priority, insertion
order)`` -- a deterministic tie-break that higher layers rely on (e.g. the
RTOS releases jobs *before* the scheduler decision event in the same tick by
scheduling the release with a lower priority number).

Two scheduling calls share the queue:

- :meth:`Engine.schedule` returns an :class:`EventHandle` for callers that
  may cancel the event;
- :meth:`Engine.post` is the allocation-free fast path for fire-and-forget
  events (no handle object at all) -- the overwhelmingly common case on the
  hot paths (frame completions, plant steps, periodic samplers).

Both dispatch identically; the sequence number keeps the total order
exactly as if every event had gone through ``schedule``.  Events run
through :meth:`Engine.run` (drain the queue) or :meth:`Engine.run_until`
(stop at a time horizon).

Callers that *rarely* cancel should not pay for ``schedule`` either: the
idiom used by :class:`~repro.sim.process.Process` and the RTOS periodic
release/replenish chains is a **generation token** -- post the event with a
monotonically increasing generation baked into its arguments and have the
callback drop stale generations, so "cancellation" is an integer bump and
the armed path allocates nothing.  The stale entry dispatches as a no-op
(and therefore counts in ``dispatched_count``), whereas a cancelled handle
is skipped; total order of live events is identical either way.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.obs import instrument
from repro.sim.clock import SimClock, format_time

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (scheduling in the past, etc.)."""


class EventHandle:
    """Cancellation token returned by :meth:`Engine.schedule`.

    Cancellation is lazy: the queue entry stays in the heap but is skipped at
    dispatch time.  ``cancel()`` is idempotent.
    """

    __slots__ = ("when", "callback", "args", "cancelled", "dispatched",
                 "_engine")

    def __init__(self, when: int, callback: Callable[..., Any], args: tuple,
                 engine: "Engine | None" = None) -> None:
        self.when = when
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.dispatched = False
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if self.cancelled or self.dispatched:
            return
        self.cancelled = True
        if self._engine is not None:
            self._engine._live -= 1

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and neither fired nor cancelled."""
        return not (self.cancelled or self.dispatched)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else (
            "dispatched" if self.dispatched else "pending")
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"EventHandle({format_time(self.when)}, {name}, {state})"


class Engine:
    """Deterministic discrete-event loop with an integer-microsecond clock."""

    def __init__(self, start: int = 0) -> None:
        self.clock = SimClock(start)
        # (when, priority, seq, handle_or_None, callback, args); seq is
        # unique, so comparisons never reach the non-orderable fields.
        self._queue: list[tuple] = []
        self._seq = 0
        self._live = 0
        self._running = False
        self._dispatched_count = 0
        # Telemetry rides the existing run()-boundary flush: the event
        # loop itself never touches the bundle, so per-event cost is
        # zero whether obs is on or off.
        self._obs = instrument.engine_meters()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: int,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` ticks from now.

        ``priority`` breaks same-tick ties: lower values dispatch first.
        Returns an :class:`EventHandle` that can cancel the event.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ticks in the past")
        when = self.clock._now + delay
        handle = EventHandle(when, callback, args, self)
        self._seq += 1
        self._live += 1
        _heappush(self._queue, (when, priority, self._seq, handle,
                                callback, args))
        return handle

    def post(
        self,
        delay: int,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`EventHandle`.

        Dispatch order is identical to ``schedule``; the only difference
        is that the event cannot be cancelled, so no token is allocated.
        Use this on hot paths that never keep the returned handle.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ticks in the past")
        self._seq += 1
        self._live += 1
        # delay >= 0 makes `when` >= now by construction; no re-check.
        _heappush(self._queue, (self.clock._now + delay, priority, self._seq,
                                None, callback, args))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in ticks."""
        return self.clock._now

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued.

        O(1): a counter incremented on insert and decremented on cancel
        and dispatch (cancelled entries stay in the heap until popped,
        but are already subtracted here).
        """
        return self._live

    @property
    def dispatched_count(self) -> int:
        """Total events dispatched since construction (for overhead benches)."""
        return self._dispatched_count

    def run(self) -> int:
        """Run until the queue drains.  Returns the number of events
        dispatched."""
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        dispatched = 0
        queue = self._queue
        clock = self.clock
        pop = _heappop
        # The live/dispatched counters flush once in `finally`: both are
        # only observable between runs (callbacks never read them mid-run).
        try:
            while queue:
                when, _prio, _seq, handle, callback, args = pop(queue)
                if handle is not None:
                    if handle.cancelled:
                        continue
                    handle.dispatched = True
                clock._now = when
                dispatched += 1
                callback(*args)
        finally:
            self._running = False
            self._live -= dispatched
            self._dispatched_count += dispatched
            if self._obs is not None:
                self._flush_obs(dispatched)
        return dispatched

    def _flush_obs(self, dispatched: int) -> None:
        """Publish run-boundary telemetry (only called when enabled)."""
        obs = self._obs
        obs.events.inc(dispatched)
        obs.runs.inc()
        obs.pending.set(self._live)
        obs.sim_time.set(self.clock._now / 1_000_000)

    def run_until(self, when: int) -> int:
        """Run events with timestamps ``<= when``; clock lands exactly on it.

        Returns the number of events dispatched.  Events scheduled beyond
        ``when`` remain queued for a later call.  The heap is walked once:
        each entry is peeked and popped at most one time (cancelled
        entries included), instead of the peek-then-step double walk.
        """
        if when < self.clock.now:
            raise SimulationError(
                f"run_until({format_time(when)}) is in the past "
                f"(now {format_time(self.clock.now)})"
            )
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        dispatched = 0
        queue = self._queue
        clock = self.clock
        pop = _heappop
        try:
            while queue:
                entry_when, _prio, _seq, handle, callback, args = queue[0]
                if entry_when > when:
                    break
                pop(queue)
                if handle is not None:
                    if handle.cancelled:
                        continue
                    handle.dispatched = True
                clock._now = entry_when
                dispatched += 1
                callback(*args)
            clock.advance_to(when)
        finally:
            self._running = False
            self._live -= dispatched
            self._dispatched_count += dispatched
            if self._obs is not None:
                self._flush_obs(dispatched)
        return dispatched

    def run_for(self, duration: int) -> int:
        """Run for ``duration`` ticks of simulated time from now."""
        return self.run_until(self.clock.now + duration)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Engine(now={format_time(self.clock.now)}, "
                f"pending={self.pending_events})")
