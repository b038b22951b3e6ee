"""Structured event tracing.

Experiments, benchmarks and tests assert on traces rather than poking at
internal state: each subsystem records ``TraceEvent`` rows (time, category,
source, payload) and analysis code filters/aggregates them afterwards.

``Trace.record`` sits on the hot path of every traced run (the medium and
the RTOS emit rows per frame/job), so the log is kept as raw tuples and
:class:`TraceEvent` objects are only materialized for rows a view
actually returns -- recording allocates nothing beyond the keyword dict
the call itself builds, ``count()`` allocates nothing at all, and
``events(category=...)`` pays only for its matches.  Materialized rows
are value-identical to the eager implementation this replaced (a
hypothesis property pins this).

Wide-grid runs that only ever inspect the recent past can bound memory
with ``Trace(capacity=...)``: the log becomes a ring that retains the most
recent ``capacity`` rows and counts what it dropped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.sim.clock import format_time


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded occurrence.

    ``category`` is a dotted namespace such as ``"medium.tx"`` or
    ``"evm.failover"``; ``source`` identifies the emitting entity
    (usually a node id); ``data`` is a small dict of primitives.
    """

    time: int
    category: str
    source: str
    data: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return (f"[{format_time(self.time)}] {self.category} "
                f"src={self.source} {self.data}")


class Trace:
    """Append-only event log with filtered views.

    A ``Trace`` may be shared by the whole simulation; categories keep
    subsystems separable.

    ``capacity=None`` (the default) retains everything; an integer turns
    the log into a ring holding the most recent ``capacity`` rows, with
    :attr:`dropped` counting evictions.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        # Raw rows: (time, category, source, data).  Bounded traces ride a
        # maxlen deque (O(1) eviction); unbounded ones a plain list.
        self._raw: Any = deque(maxlen=capacity) if capacity else []
        self._recorded = 0

    def record(self, time: int, category: str, source: str,
               **data: Any) -> None:
        """Append an event."""
        self._raw.append((time, category, source, data))
        self._recorded += 1

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Rows evicted by the ring (0 for unbounded traces)."""
        return self._recorded - len(self._raw)

    def _select(self, category: str | None, source: str | None):
        """Matching raw rows, cheapest filters first (no allocation)."""
        for row in self._raw:
            if category is not None and not row[1].startswith(category):
                continue
            if source is not None and row[2] != source:
                continue
            yield row

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._raw)

    def __iter__(self) -> Iterator[TraceEvent]:
        # Generator, not a prebuilt list: iterating a multi-million-row
        # trace must not materialize every event up front.
        return (TraceEvent(t, c, s, d) for (t, c, s, d) in self._raw)

    def events(self, category: str | None = None,
               source: str | None = None) -> list[TraceEvent]:
        """Events filtered by category prefix and source."""
        return [TraceEvent(t, c, s, d)
                for (t, c, s, d) in self._select(category, source)]

    def count(self, category: str | None = None, source: str | None = None) -> int:
        if category is None and source is None:
            return len(self._raw)
        return sum(1 for _ in self._select(category, source))

    def last(self, category: str, source: str | None = None) -> TraceEvent | None:
        # Newest-first scan: polls for the most recent event are common
        # and must not walk a multi-million-row log from the front.
        for (t, c, s, d) in reversed(self._raw):
            if not c.startswith(category):
                continue
            if source is not None and s != source:
                continue
            return TraceEvent(t, c, s, d)
        return None
