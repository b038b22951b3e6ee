"""Row shapes and keys of the results warehouse.

The warehouse is a small set of append-only logical tables, each a
stream of JSON-object rows addressed by a **content key**:

- ``runs``       -- one row per campaign run record (the exact record a
  :class:`~repro.scenarios.store.ResultsStore` committed), flattened
  with the dimensions queries filter and group on;
- ``summaries``  -- one row per committed ``campaign.json`` summary;
- ``telemetry``  -- one row per ``metrics.jsonl`` line (the per-run
  ``repro.obs`` delta side channel);
- ``bench``      -- one row per ``BENCH_<n>.json`` perf snapshot.

Every row is keyed by its dimensions *plus a digest of its content*, so
re-ingesting the same store (or snapshot) is a no-op: the warehouse's
unique-key insert turns byte-identical rows into counted duplicates
instead of copies.  Ingesting genuinely new content for the same run id
appends a new row -- the warehouse is append-only; ``vacuum`` drops
superseded duplicates.

The dimension columns every run row carries (the issue's key tuple):
``campaign``, ``scenario``, ``seed``, ``grid_size``, ``tenant``,
``commit``.  ``grid_size`` is derived from the run's HIL config --
``n_nodes`` when the config records one (wide-grid experiments),
otherwise ``slots_per_frame`` (the TDMA frame width, which scales with
the deployment size in the stock rigs).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

TABLE_RUNS = "runs"
TABLE_SUMMARIES = "summaries"
TABLE_TELEMETRY = "telemetry"
TABLE_BENCH = "bench"

TABLES = (TABLE_RUNS, TABLE_SUMMARIES, TABLE_TELEMETRY, TABLE_BENCH)

#: The run-row dimensions queries may filter and group on.
RUN_DIMENSIONS = ("campaign", "tenant", "scenario", "seed", "grid_size",
                  "commit", "ok")


def digest(obj: Any) -> str:
    """A stable content digest: sha256 over canonical (sorted, compact)
    JSON, truncated to 20 hex chars -- collision-safe at warehouse scale
    and short enough to embed in row keys."""
    blob = json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:20]


def grid_size_of(scenario: dict[str, Any]) -> int | None:
    """The grid-size dimension of a run's scenario dict (see module
    docs); ``None`` when the record carries no HIL config at all."""
    hil = scenario.get("hil") or {}
    for field in ("n_nodes", "slots_per_frame"):
        value = hil.get(field)
        if value is not None:
            return int(value)
    return None


def run_row(record: dict[str, Any], *, campaign: str, tenant: str,
            commit: str) -> tuple[str, dict[str, Any]]:
    """``(key, row)`` for one committed run record.

    The full record rides along under ``"record"`` (any stored run stays
    reproducible from the warehouse alone); the dimensions are lifted to
    the top level so queries never re-parse it.  Failed-run
    records (the distributed runner's bounded-retry commits, ``error``
    instead of ``metrics``) ingest with ``ok=False``.
    """
    scenario = record.get("scenario") or {}
    run_id = str(record.get("run_id", ""))
    row = {
        "campaign": campaign,
        "tenant": tenant,
        "run_id": run_id,
        "scenario": str(scenario.get("name", "")),
        "seed": int(scenario.get("seed", 0)),
        "grid_size": grid_size_of(scenario),
        "commit": commit,
        "ok": "error" not in record,
        "record": record,
    }
    key = f"{tenant}|{campaign}|{run_id}|{digest(record)}"
    return key, row


def summary_row(summary: dict[str, Any], *, campaign: str, tenant: str,
                commit: str) -> tuple[str, dict[str, Any]]:
    row = {"campaign": campaign, "tenant": tenant, "commit": commit,
           "summary": summary}
    return f"{tenant}|{campaign}|{digest(summary)}", row


def telemetry_row(obs_row: dict[str, Any], *, campaign: str, tenant: str,
                  commit: str) -> tuple[str, dict[str, Any]]:
    """One ``metrics.jsonl`` line: ``{"run_id": ..., "metrics": {...}}``."""
    run_id = str(obs_row.get("run_id", ""))
    row = {"campaign": campaign, "tenant": tenant, "run_id": run_id,
           "commit": commit, "metrics": obs_row.get("metrics", {})}
    return f"{tenant}|{campaign}|{run_id}|{digest(obs_row)}", row


def bench_row(number: int,
              snapshot: dict[str, Any]) -> tuple[str, dict[str, Any]]:
    """One ``BENCH_<n>.json`` snapshot, whole -- the trend query wants
    the ``optimized`` and ``obs_overhead`` tables exactly as recorded."""
    row = {"bench": int(number), "snapshot": snapshot}
    return f"bench|{int(number):06d}|{digest(snapshot)}", row
