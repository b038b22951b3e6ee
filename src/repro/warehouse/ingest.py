"""Ingestion: committed campaign stores and BENCH perf snapshots.

:func:`ingest_store` walks a committed
:class:`~repro.scenarios.store.ResultsStore` -- run records, the
``campaign.json`` summary and the ``metrics.jsonl`` telemetry side
channel -- and appends everything to the warehouse under the
``(campaign, tenant, commit)`` coordinates.  Content-digest keys make
re-ingest idempotent: a second pass over the same store inserts
nothing and reports the rows as duplicates, and two processes
ingesting different stores into one warehouse serialize on the writer
lock without losing rows.

:func:`ingest_bench` loads ``BENCH_<n>.json`` snapshot files (the
cross-PR perf trajectory), which ``python -m repro.warehouse trend
--gate`` then checks for regressions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.scenarios.store import ResultsStore
from repro.warehouse import schema
from repro.warehouse.core import Warehouse, open_warehouse

_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")


@dataclass
class IngestReport:
    """What one ingest pass did (per campaign store or bench batch)."""

    source: str
    campaign: str = ""
    tenant: str = ""
    runs: int = 0
    summaries: int = 0
    telemetry: int = 0
    bench: int = 0
    duplicates: int = 0
    #: metrics.jsonl lines skipped as malformed (torn trailing write).
    telemetry_skipped: int = 0
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def inserted(self) -> int:
        return self.runs + self.summaries + self.telemetry + self.bench

    def describe(self) -> str:
        parts = [f"{self.source}:"]
        if self.runs or self.campaign:
            parts.append(f"{self.runs} run(s)")
        if self.summaries:
            parts.append(f"{self.summaries} summary")
        if self.telemetry:
            parts.append(f"{self.telemetry} telemetry row(s)")
        if self.bench:
            parts.append(f"{self.bench} bench snapshot(s)")
        if self.duplicates:
            parts.append(f"{self.duplicates} duplicate(s) skipped")
        if self.telemetry_skipped:
            parts.append(f"{self.telemetry_skipped} malformed "
                         f"telemetry line(s) skipped")
        return " ".join(parts)


def ingest_store(target: "str | Path | Warehouse", store_root: str | Path,
                 campaign: str | None = None, tenant: str = "default",
                 commit: str = "") -> IngestReport:
    """Ingest one committed campaign store into the warehouse.

    ``campaign`` defaults to the store directory's name.  ``target``
    may be a warehouse path (opened -- and closed -- here) or an
    already-open :class:`Warehouse`.
    """
    store_root = Path(store_root)
    store = ResultsStore(store_root)
    campaign = campaign or store_root.name
    wh = open_warehouse(target)
    report = IngestReport(source=str(store_root), campaign=campaign,
                          tenant=tenant)
    try:
        coords = {"campaign": campaign, "tenant": tenant, "commit": commit}
        run_rows = [schema.run_row(record, **coords)
                    for record in store.load_runs()]
        report.runs, dup = wh.append_rows(schema.TABLE_RUNS, run_rows)
        report.duplicates += dup

        if (store_root / "campaign.json").exists():
            row = schema.summary_row(store.load_summary(), **coords)
            report.summaries, dup = wh.append_rows(
                schema.TABLE_SUMMARIES, [row])
            report.duplicates += dup

        obs_rows, report.telemetry_skipped = \
            store.load_metrics_jsonl_counted()
        telemetry_rows = [schema.telemetry_row(obs_row, **coords)
                          for obs_row in obs_rows]
        report.telemetry, dup = wh.append_rows(
            schema.TABLE_TELEMETRY, telemetry_rows)
        report.duplicates += dup
    finally:
        if not isinstance(target, Warehouse):
            wh.close()
    return report


def ingest_bench(target: "str | Path | Warehouse",
                 paths: "list[str | Path]") -> IngestReport:
    """Ingest ``BENCH_<n>.json`` snapshot files (the number ``<n>``
    comes from the filename)."""
    import json

    wh = open_warehouse(target)
    report = IngestReport(source="bench")
    try:
        rows = []
        for path in paths:
            path = Path(path)
            match = _BENCH_RE.match(path.name)
            if not match:
                raise ValueError(
                    f"{path.name}: not a BENCH_<n>.json snapshot")
            rows.append(schema.bench_row(int(match.group(1)),
                                         json.loads(path.read_text())))
        report.bench, report.duplicates = wh.append_rows(
            schema.TABLE_BENCH, rows)
    finally:
        if not isinstance(target, Warehouse):
            wh.close()
    return report
