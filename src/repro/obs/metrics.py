"""The metrics registry: counters, gauges and histograms with labels.

Everything here is stdlib-only and allocation-conscious: metric objects
carry ``__slots__`` and mutation is a bare attribute update, so an
``inc()`` on a hot path costs an attribute load and an add.  The
*existence* check is the caller's job -- instrumented subsystems bind a
meter bundle at construction (``None`` when telemetry is disabled, see
:mod:`repro.obs`) and hot sites pay exactly one ``is not None`` test
when the layer is off, the same discipline as ``Medium.trace_enabled``.

Thread-safety: registration (get-or-create of a series) takes a lock,
because the distributed coordinator's connection threads and the HTTP
exporter register concurrently.  Mutation of an existing series is a
single ``+=`` / ``=`` on a float under the GIL -- racing increments can
in principle interleave, which is acceptable for telemetry and keeps
the hot path free of locking.

Two export faces:

- :meth:`MetricsRegistry.render_prometheus` -- the text exposition
  format (``text/plain; version=0.0.4``) the ``python -m repro.obs
  serve`` endpoint returns;
- :meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.values` --
  JSON-able dumps, the latter a flat ``series-key -> value`` map built
  for :func:`delta_values` (per-run JSONL snapshots diff a worker's
  cumulative registry around one campaign run).

Both faces read only the registered series; nothing is computed or
called at export time.
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "delta_values",
    "DEFAULT_BUCKETS",
]

DEFAULT_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
                   0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)
"""Default histogram buckets: latencies from 100 us to 10 s."""

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: _LabelKey, extra: str = "") -> str:
    parts = [f'{name}="{_escape(value)}"' for name, value in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace(
        "\n", "\\n")


class Counter:
    """Monotonically increasing count.  ``inc`` is the only mutator."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: _LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A value that goes up and down (queue depth, sim time, ...)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: _LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus shape).

    ``observe`` walks the (short) bucket list linearly -- with the
    default 16 buckets that is cheaper than bisect's call overhead for
    the latency ranges the stack records.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    kind = "histogram"

    def __init__(self, name: str, labels: _LabelKey = (),
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)  # +inf tail
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1


class MetricsRegistry:
    """Owns every metric series.

    ``counter``/``gauge``/``histogram`` are get-or-create: the same
    ``(name, labels)`` always returns the same object, so instrumented
    constructors can re-bind freely.  A name is pinned to one kind; a
    kind mismatch raises (it would render an invalid exposition).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._series: dict[tuple[str, _LabelKey], Any] = {}
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}
        self._buckets: dict[str, tuple[float, ...]] = {}
        # Per-registry cache of instrument bundles (repro.obs.instrument):
        # one bundle object per instrumented layer per registry.
        self.bundles: dict[type, Any] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _get_or_create(self, factory, kind: str, name: str, help: str,
                       labels: dict[str, str]) -> Any:
        key = (name, _label_key(labels))
        series = self._series.get(key)
        if series is not None and series.kind == kind:
            return series
        with self._lock:
            series = self._series.get(key)
            if series is not None:
                if series.kind != kind:
                    raise ValueError(f"metric {name!r} already registered "
                                     f"as {series.kind}")
                return series
            pinned = self._kinds.setdefault(name, kind)
            if pinned != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {pinned}")
            if help and name not in self._help:
                self._help[name] = help
            series = factory(key[1])
            self._series[key] = series
            return series

    def counter(self, name: str, help: str = "",
                **labels: str) -> Counter:
        return self._get_or_create(lambda k: Counter(name, k), "counter",
                                   name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get_or_create(lambda k: Gauge(name, k), "gauge",
                                   name, help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] | None = None,
                  **labels: str) -> Histogram:
        chosen = tuple(buckets) if buckets is not None else \
            self._buckets.get(name, DEFAULT_BUCKETS)
        self._buckets.setdefault(name, chosen)
        return self._get_or_create(
            lambda k: Histogram(name, k, self._buckets[name]),
            "histogram", name, help, labels)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def _sorted_series(self) -> list[Any]:
        with self._lock:
            return [self._series[key] for key in sorted(self._series)]

    def render_prometheus(self) -> str:
        """The text exposition (``text/plain; version=0.0.4``)."""
        lines: list[str] = []
        seen_header: set[str] = set()

        def header(name: str, kind: str) -> None:
            if name in seen_header:
                return
            seen_header.add(name)
            help_text = self._help.get(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")

        for series in self._sorted_series():
            header(series.name, series.kind)
            labels = _render_labels(series.labels)
            if isinstance(series, Histogram):
                cumulative = 0
                for bound, count in zip(series.buckets, series.counts):
                    cumulative += count
                    le = _render_labels(series.labels,
                                        extra=f'le="{bound:g}"')
                    lines.append(f"{series.name}_bucket{le} {cumulative}")
                cumulative += series.counts[-1]
                le = _render_labels(series.labels, extra='le="+Inf"')
                lines.append(f"{series.name}_bucket{le} {cumulative}")
                lines.append(f"{series.name}_sum{labels} {series.sum:g}")
                lines.append(f"{series.name}_count{labels} {series.count}")
            else:
                lines.append(f"{series.name}{labels} {series.value:g}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict[str, Any]:
        """JSON-able structured dump (the ``/snapshot`` endpoint)."""
        out: dict[str, Any] = {}
        for series in self._sorted_series():
            entry = out.setdefault(series.name, {
                "kind": series.kind,
                "help": self._help.get(series.name, ""),
                "samples": [],
            })
            sample: dict[str, Any] = {"labels": dict(series.labels)}
            if isinstance(series, Histogram):
                sample["sum"] = series.sum
                sample["count"] = series.count
                sample["buckets"] = {
                    f"{bound:g}": count
                    for bound, count in zip(series.buckets, series.counts)}
                sample["buckets"]["+Inf"] = series.counts[-1]
            else:
                sample["value"] = series.value
            entry["samples"].append(sample)
        return out

    def values(self) -> dict[str, float]:
        """Flat ``series-key -> value`` map for :func:`delta_values`.

        Histograms contribute ``<key>:sum`` and ``<key>:count`` rows;
        gauges are prefixed ``=`` so the differ can tell "report the
        current value" apart from "subtract the before value".
        """
        out: dict[str, float] = {}
        for series in self._sorted_series():
            key = series.name + _render_labels(series.labels)
            if isinstance(series, Histogram):
                out[key + ":sum"] = series.sum
                out[key + ":count"] = float(series.count)
            elif isinstance(series, Gauge):
                out["=" + key] = series.value
            else:
                out[key] = series.value
        return out


def delta_values(before: dict[str, float],
                 after: dict[str, float]) -> dict[str, float]:
    """What moved between two :meth:`MetricsRegistry.values` snapshots.

    Counter/histogram rows subtract (zero deltas are dropped); gauge
    rows (``=``-prefixed) report their ``after`` value as-is.  The
    result is the per-run JSONL record the campaign store persists.
    """
    out: dict[str, float] = {}
    for key, value in after.items():
        if key.startswith("="):
            out[key[1:]] = value
            continue
        delta = value - before.get(key, 0.0)
        if delta:
            out[key] = delta
    return out
