"""Hypothesis properties for the lazily-materialized trace.

The production ``Trace`` keeps raw tuples and materializes
``TraceEvent`` rows on demand; ``_EagerReference`` below is a verbatim
transcription of the pre-change eager implementation.  For arbitrary
event sequences and arbitrary view queries, every observable --
``events``/``count``/``last``/``len``/iteration -- must be
byte-identical between the two.  A second property pins the
ring-capacity mode to "exactly the most recent ``capacity`` rows".
"""

from __future__ import annotations

import dataclasses
import json

from hypothesis import given, settings, strategies as st

from repro.sim.trace import Trace, TraceEvent


class _EagerReference:
    """The seed Trace: one TraceEvent allocated per record, eagerly."""

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []

    def record(self, time, category, source, **data):
        self._events.append(TraceEvent(time=time, category=category,
                                       source=source, data=data))

    def __len__(self):
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def events(self, category=None, source=None):
        out = []
        for event in self._events:
            if category is not None and not event.category.startswith(category):
                continue
            if source is not None and event.source != source:
                continue
            out.append(event)
        return out

    def count(self, category=None, source=None):
        return len(self.events(category=category, source=source))

    def last(self, category, source=None):
        matches = self.events(category=category, source=source)
        return matches[-1] if matches else None


_categories = st.sampled_from(
    ["mac.tx", "mac.rx", "mac", "medium.rx", "rtos.crash",
     "evm.failover", "evm.fault_detected", ""])
_sources = st.sampled_from(["n1", "n2", "gw", "ctrl_a", ""])
_data = st.dictionaries(
    st.sampled_from(["seq", "v", "dst", "kind"]),
    st.one_of(st.integers(-5, 5), st.floats(allow_nan=False,
                                            allow_infinity=False,
                                            min_value=-10, max_value=10),
              st.text(max_size=3)),
    max_size=3)
_records = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1000), _categories,
              _sources, _data),
    max_size=40)
_queries = st.lists(
    st.tuples(st.one_of(st.none(), _categories),
              st.one_of(st.none(), _sources)),
    max_size=6)


def _canon(events) -> str:
    return json.dumps([dataclasses.asdict(e) for e in events],
                      sort_keys=True, default=str)


@settings(max_examples=200, deadline=None)
@given(records=_records, queries=_queries)
def test_lazy_trace_matches_eager_reference(records, queries):
    lazy, eager = Trace(), _EagerReference()
    for time, category, source, data in records:
        lazy.record(time, category, source, **data)
        eager.record(time, category, source, **data)
        # Interleave reads with writes: laziness must not skew views
        # taken mid-run.
        assert len(lazy) == len(eager)
    assert _canon(lazy) == _canon(eager)
    for category, source in queries:
        assert _canon(lazy.events(category, source)) == \
            _canon(eager.events(category, source))
        assert lazy.count(category, source) == eager.count(category, source)
        if category is not None:
            assert lazy.last(category, source) == eager.last(category, source)


@settings(max_examples=150, deadline=None)
@given(records=_records, capacity=st.integers(min_value=1, max_value=30))
def test_ring_retains_exactly_the_most_recent(records, capacity):
    ring, eager = Trace(capacity=capacity), _EagerReference()
    for time, category, source, data in records:
        ring.record(time, category, source, **data)
        eager.record(time, category, source, **data)
    tail = eager.events()[-capacity:]
    assert _canon(ring) == _canon(tail)
    assert len(ring) == len(tail)
    assert ring.dropped == max(0, len(records) - capacity)

