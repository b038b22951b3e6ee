"""``repro.warehouse`` -- the durable half of observability.

PR 6's ``repro.obs`` made campaigns *watchable* live; this package
makes their results *queryable* after the fact, at cross-campaign and
cross-PR scale: an append-only warehouse (one stdlib sqlite3 database
in WAL mode) that ingests committed
:class:`~repro.scenarios.store.ResultsStore` campaigns -- run records,
summaries and the per-run ``metrics.jsonl`` telemetry side channel --
plus ``BENCH_*.json`` perf snapshots, keyed by (campaign, scenario,
seed, grid size, tenant, commit).

Content-digest keys make re-ingest idempotent and a shared writer
``flock`` makes concurrent multi-tenant ingest safe; all query logic
runs over key-sorted row streams, so no answer depends on ingest
order.  The campaign runners grow an opt-in ``warehouse=`` target that
ingests each campaign as it commits, the ``repro.obs`` HTTP exporter
can mount a read-only query edge (``/campaigns``, ``/query``,
``/trend``), and ``python -m repro.warehouse`` covers ingest / query /
summary / trend / vacuum -- the CI perf-regression gate is just the
``trend --gate`` query.
"""

from repro.warehouse.core import Warehouse, open_warehouse
from repro.warehouse.ingest import (
    IngestReport,
    ingest_bench,
    ingest_store,
)
from repro.warehouse.query import (
    bench_snapshots,
    campaign_summary,
    campaigns,
    obs_overhead_failures,
    query_runs,
    telemetry_totals,
    trend_failures,
    trend_series,
)

__all__ = [
    "Warehouse",
    "open_warehouse",
    "IngestReport",
    "ingest_store",
    "ingest_bench",
    "campaigns",
    "campaign_summary",
    "query_runs",
    "telemetry_totals",
    "bench_snapshots",
    "trend_failures",
    "trend_series",
    "obs_overhead_failures",
]
