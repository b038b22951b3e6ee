"""Span tracer for the benchmark's traced runs.

Wrappers are installed from this directory around calls into each
layer's public functions and removed again when the traced pass ends;
nothing under ``src/`` knows about them.  Each name is patched where
its caller looks it up (``widegrid`` imports ``random_geometric_connected``
into its own namespace, so that is the attribute replaced).

Two wrapper kinds:

- ``SPAN`` wrappers record one span per call: id, parent span, name,
  start, end and self time.  They sit on calls that happen a few
  hundred times per pass (rig builds, ``Engine.run_until``, store and
  warehouse operations).
- ``HOT`` wrappers sit on calls made up to millions of times per pass
  (radio transitions, medium transmits, VM executes, plant steps).
  Storing each call would cost more memory than the trial itself, so
  they are aggregated per (parent span, name): calls, total and self
  seconds.  They still take part in self-time accounting: a span's
  self time is its duration minus the time its wrapped children cover.

``THREADED`` wrappers are leaf spans that may be entered from several
client threads at once (the dist wire calls); they keep no call stack
and update their aggregate under a lock.  A ``MARK`` wrapper stamps the
clock, per thread, when its call returns; a ``THREADED`` span with
``since_mark`` set starts at the last mark made during it, so a receive
can be timed from the moment its frame's first bytes arrived.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

SPAN = "span"
HOT = "hot"
THREADED = "threaded"
MARK = "mark"


@dataclass(frozen=True)
class Patch:
    """One wrapped call site: ``module`` + dotted ``attr`` -> span ``name``.

    ``count_if(args)`` bumps the counter ``<name>.counted`` before the
    call when it returns true; ``after(tracer, result)`` runs after a
    successful call (counters read from return values).
    """

    module: str
    attr: str
    name: str
    kind: str = SPAN
    count_if: Callable[[tuple], bool] | None = None
    after: Callable[["Tracer", Any], None] | None = None
    since_mark: bool = False


@dataclass(frozen=True)
class Track:
    """Keep ``keep(instance)`` for every ``module.cls`` constructed while
    the tracer is installed; when the pass ends, ``read(kept)`` gives
    counters the program already exposes, summed into the tracer's."""

    module: str
    cls: str
    read: Callable[[Any], dict[str, int]]
    keep: Callable[[Any], Any] = lambda obj: obj


def _resolve(module: str, attr: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Spans and counters of one traced pass (context manager: patches
    are installed on enter and restored on exit)."""

    def __init__(self, run_id: str, patches: list[Patch],
                 tracks: list[Track] = ()) -> None:
        self.run_id = run_id
        self.patches = patches
        self.tracks = tracks
        # name -> [calls, total_s, self_s]
        self.calls: dict[str, list] = {}
        # (id, parent, name, start, end, self_s) per SPAN call
        self.spans: list[tuple] = []
        # (parent, name) -> [calls, total_s, self_s] for HOT calls
        self.hot_rows: dict[tuple[int, str], list] = {}
        self.counters: dict[str, int] = {}
        self._kept: list[tuple[Track, list]] = []
        self.wall_s = 0.0
        self._stack: list[list] = []
        self._next_id = 1
        self._lock = threading.Lock()
        self._marks = threading.local()
        self._restore: list[tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        self._started = time.perf_counter()
        try:
            for patch in self.patches:
                self._install(patch)
            for track in self.tracks:
                self._install_track(track)
        except BaseException:
            self.__exit__()
            raise
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall_s = time.perf_counter() - self._started
        for owner, leaf, original, own in reversed(self._restore):
            if own:
                setattr(owner, leaf, original)
            else:
                delattr(owner, leaf)
        self._restore.clear()
        for track, kept in self._kept:
            for obj in kept:
                for name, n in track.read(obj).items():
                    self.count(name, n)
        self._kept.clear()

    def _swap(self, owner: Any, leaf: str, make: Callable[[Any], Any]) -> None:
        raw = owner.__dict__.get(leaf) if isinstance(owner, type) else None
        own = not isinstance(owner, type) or leaf in owner.__dict__
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(make(raw.__func__))
        else:
            original = getattr(owner, leaf)
            replacement = make(original)
            raw = original
        self._restore.append((owner, leaf, raw, own))
        setattr(owner, leaf, replacement)

    def _install(self, patch: Patch) -> None:
        owner, leaf = _resolve(patch.module, patch.attr)
        factory = {SPAN: self._span_wrapper, HOT: self._hot_wrapper,
                   THREADED: self._threaded_wrapper,
                   MARK: self._mark_wrapper}[patch.kind]
        self._swap(owner, leaf, lambda fn: factory(fn, patch))

    def _install_track(self, track: Track) -> None:
        owner, leaf = _resolve(track.module, track.cls + ".__init__")
        kept: list = []
        self._kept.append((track, kept))

        def make(init):
            def tracked_init(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                kept.append(track.keep(obj))
            return tracked_init

        self._swap(owner, leaf, make)

    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _span_wrapper(self, fn: Callable, patch: Patch) -> Callable:
        tracer, stack, clock = self, self._stack, time.perf_counter
        name, after = patch.name, patch.after
        rec = self.calls.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                if parent is not None:
                    parent[0] += took
                own = took - frame[0]
                rec[0] += 1
                rec[1] += took
                rec[2] += own
                tracer.spans.append((span_id, parent[1] if parent else 0,
                                     name, start, end, own))
            if after is not None:
                after(tracer, result)
            return result

        return traced

    def _hot_wrapper(self, fn: Callable, patch: Patch) -> Callable:
        tracer, stack, clock = self, self._stack, time.perf_counter
        name, count_if, after = patch.name, patch.count_if, patch.after
        rec = self.calls.setdefault(name, [0, 0.0, 0.0])
        rows = self.hot_rows
        counted = name + ".counted"

        def traced(*args, **kwargs):
            if count_if is not None and count_if(args):
                tracer.counters[counted] = tracer.counters.get(counted, 0) + 1
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent else 0
            frame = [0.0, parent_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, result)
                return result
            finally:
                took = clock() - start
                stack.pop()
                if parent is not None:
                    parent[0] += took
                own = took - frame[0]
                rec[0] += 1
                rec[1] += took
                rec[2] += own
                row = rows.get((parent_id, name))
                if row is None:
                    rows[(parent_id, name)] = [1, took, own]
                else:
                    row[0] += 1
                    row[1] += took
                    row[2] += own

        return traced

    def _mark_wrapper(self, fn: Callable, patch: Patch) -> Callable:
        marks, clock = self._marks, time.perf_counter

        def traced(*args, **kwargs):
            result = fn(*args, **kwargs)
            marks.at = clock()
            return result

        return traced

    def _threaded_wrapper(self, fn: Callable, patch: Patch) -> Callable:
        tracer, clock, lock = self, time.perf_counter, self._lock
        marks, since_mark = self._marks, patch.since_mark
        name = patch.name
        rec = self.calls.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            start = marks.at = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                if since_mark:
                    start = marks.at
                with lock:
                    span_id = tracer._next_id
                    tracer._next_id += 1
                    rec[0] += 1
                    rec[1] += end - start
                    rec[2] += end - start
                    tracer.spans.append((span_id, 0, name, start, end,
                                         end - start))

        return traced

    # ------------------------------------------------------------------
    def self_s(self, *names: str) -> float:
        return sum(self.calls[n][2] for n in names if n in self.calls)

    def total_s(self, *names: str) -> float:
        return sum(self.calls[n][1] for n in names if n in self.calls)

    def n_calls(self, *names: str) -> int:
        return sum(self.calls[n][0] for n in names if n in self.calls)

    def durations(self, name: str) -> list[float]:
        return [end - start for _i, _p, n, start, end, _s in self.spans
                if n == name]

    def span_rows(self) -> list[dict[str, Any]]:
        """JSON-ready rows for the span file."""
        rows = [{"run": self.run_id, "id": i, "parent": p, "name": n,
                 "start": s, "end": e, "self": own}
                for i, p, n, s, e, own in self.spans]
        rows += [{"run": self.run_id, "parent": p, "name": n,
                  "calls": c, "total": t, "self": own, "aggregated": True}
                 for (p, n), (c, t, own) in sorted(self.hot_rows.items())]
        return rows


def self_time_table(tracer: Tracer) -> list[str]:
    """Per-span and per-layer self-time lines for a traced pass; the
    layer is the span name's package (``net.medium.transmit`` -> net)
    and ``(unwrapped)`` is pass time outside every wrapped call."""
    wall = tracer.wall_s or 1e-12
    lines = [f"  {'span':<44} {'calls':>9} {'total_s':>9} "
             f"{'self_s':>9} {'self%':>6}"]
    layers: dict[str, float] = {}
    for name, (calls, total, own) in sorted(
            tracer.calls.items(), key=lambda kv: -kv[1][2]):
        if not calls:
            continue
        lines.append(f"  {name:<44} {calls:>9} {total:>9.4f} "
                     f"{own:>9.4f} {100 * own / wall:>5.1f}%")
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + own
    layers["(unwrapped)"] = wall - sum(layers.values())
    lines.append(f"  {'layer':<44} {'':>9} {'':>9} {'self_s':>9} "
                 f"{'self%':>6}")
    for layer, own in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<44} {'':>9} {'':>9} {own:>9.4f} "
                     f"{100 * own / wall:>5.1f}%")
    return lines


def write_span_file(path: Path, tracers: list[Tracer]) -> int:
    """Write every pass's spans as JSON lines; returns the row count."""
    path.parent.mkdir(parents=True, exist_ok=True)
    n = 0
    with path.open("w") as fh:
        for tracer in tracers:
            for row in tracer.span_rows():
                fh.write(json.dumps(row, sort_keys=True) + "\n")
                n += 1
    return n
