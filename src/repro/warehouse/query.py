"""Cross-campaign queries over an ingested warehouse.

Pure functions over the warehouse's key-sorted row streams -- no SQL
in the query layer, so every answer is independent of the order rows
were ingested in.

Three families:

- **campaign queries** -- :func:`campaigns` (the catalog),
  :func:`query_runs` (filter / group-by / aggregate any run-metrics
  meter with nearest-rank percentiles), and :func:`campaign_summary`,
  which reconstructs a campaign's committed records and feeds them to
  :func:`repro.scenarios.runner.summarize` so the warehouse answer is
  byte-identical to the store's own ``campaign.json``;
- **telemetry queries** -- :func:`telemetry_totals`, summing the
  per-run ``repro.obs`` deltas a campaign's ``metrics.jsonl`` carried;
- **the perf trend** -- :func:`bench_snapshots` /
  :func:`trend_failures` / :func:`obs_overhead_failures`, the rules
  CI's ``python -m repro.warehouse trend --gate`` step applies to the
  committed ``BENCH_*.json`` snapshots, plus :func:`trend_series` for
  the CLI's per-meter trajectory listing.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence

from repro.warehouse import schema
from repro.warehouse.core import Warehouse

DEFAULT_TOLERANCE = 0.20
OBS_OVERHEAD_BUDGET_PCT = 10.0


def is_duration_meter(name: str) -> bool:
    """``*_sec`` meters are durations that improve downward (such as
    ``widegrid_trial_sec``); ``*_per_sec`` meters are rates that
    improve upward.  The snapshot driver ``benchmarks/hotpath.py`` and
    the trend gate share this one predicate."""
    return name.endswith("_sec") and not name.endswith("_per_sec")


# ----------------------------------------------------------------------
# Campaign queries
# ----------------------------------------------------------------------
def _match(row: dict[str, Any], where: dict[str, Any]) -> bool:
    for field, wanted in where.items():
        value = row.get(field)
        if isinstance(wanted, (list, tuple, set)):
            if value not in wanted:
                return False
        elif value != wanted:
            return False
    return True


def run_rows(wh: Warehouse,
             where: dict[str, Any] | None = None) -> list[dict[str, Any]]:
    """Run rows matching ``where`` (fields from
    :data:`repro.warehouse.schema.RUN_DIMENSIONS`; scalar = equality,
    list = membership), in key order."""
    where = where or {}
    unknown = set(where) - set(schema.RUN_DIMENSIONS)
    if unknown:
        raise ValueError(f"unknown filter field(s) {sorted(unknown)}; "
                         f"expected {schema.RUN_DIMENSIONS}")
    return [row for _seq, _key, row in wh.rows(schema.TABLE_RUNS)
            if _match(row, where)]


def campaigns(wh: Warehouse) -> list[dict[str, Any]]:
    """The catalog: one entry per (tenant, campaign) with run counts
    and the scenario/seed spread."""
    by_campaign: dict[tuple[str, str], dict[str, Any]] = {}
    for _seq, _key, row in wh.rows(schema.TABLE_RUNS):
        entry = by_campaign.setdefault(
            (row["tenant"], row["campaign"]),
            {"tenant": row["tenant"], "campaign": row["campaign"],
             "runs": 0, "failed": 0, "scenarios": set(), "seeds": set(),
             "grid_sizes": set(), "commits": set()})
        entry["runs"] += 1
        if not row["ok"]:
            entry["failed"] += 1
        entry["scenarios"].add(row["scenario"])
        entry["seeds"].add(row["seed"])
        if row["grid_size"] is not None:
            entry["grid_sizes"].add(row["grid_size"])
        if row["commit"]:
            entry["commits"].add(row["commit"])
    for _seq, _key, row in wh.rows(schema.TABLE_SUMMARIES):
        entry = by_campaign.get((row["tenant"], row["campaign"]))
        if entry is not None:
            entry["has_summary"] = True
    out = []
    for key in sorted(by_campaign):
        entry = by_campaign[key]
        for field in ("scenarios", "seeds", "grid_sizes", "commits"):
            entry[field] = sorted(entry[field])
        entry.setdefault("has_summary", False)
        out.append(entry)
    return out


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an ascending-sorted sequence."""
    if not ordered:
        raise ValueError("percentile of an empty series")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def _meter_stats(values: list[float],
                 percentiles: Iterable[float]) -> dict[str, float] | None:
    if not values:
        return None
    ordered = sorted(values)
    n = len(ordered)
    mean = sum(ordered) / n
    stats: dict[str, float] = {
        "n": n, "mean": mean, "min": ordered[0], "max": ordered[-1],
        "std": math.sqrt(sum((v - mean) ** 2 for v in ordered) / n),
    }
    for q in percentiles:
        label = f"p{q:g}"
        stats[label] = _percentile(ordered, float(q))
    return stats


def query_runs(wh: Warehouse, where: dict[str, Any] | None = None,
               group_by: Sequence[str] = ("campaign",),
               meter: str | None = None,
               percentiles: Sequence[float] = (50.0, 90.0, 99.0),
               ) -> dict[str, Any]:
    """Filter, group, aggregate.

    ``meter`` names any numeric field of the run records' ``metrics``
    dict (``failover_latency_sec``, ``control_cost``, ...); runs where
    the meter is null are excluded from the stats but still counted in
    ``runs``.  Percentiles are nearest-rank.  Groups come back sorted
    by their group-key values, so the output is deterministic.
    """
    for field in group_by:
        if field not in schema.RUN_DIMENSIONS:
            raise ValueError(f"cannot group by {field!r}; expected one "
                             f"of {schema.RUN_DIMENSIONS}")
    groups: dict[tuple, dict[str, Any]] = {}
    for row in run_rows(wh, where):
        group_key = tuple(row.get(field) for field in group_by)
        entry = groups.setdefault(group_key, {
            "by": dict(zip(group_by, group_key)),
            "runs": 0, "failed": 0, "values": []})
        entry["runs"] += 1
        if not row["ok"]:
            entry["failed"] += 1
        elif meter is not None:
            value = (row["record"].get("metrics") or {}).get(meter)
            if value is not None:
                entry["values"].append(float(value))
    ordered = sorted(groups.items(),
                     key=lambda item: tuple(str(v) for v in item[0]))
    out_groups = []
    for _group_key, entry in ordered:
        values = entry.pop("values")
        if meter is not None:
            entry["stats"] = _meter_stats(values, percentiles)
        out_groups.append(entry)
    return {"meter": meter, "group_by": list(group_by),
            "groups": out_groups}


def campaign_records(wh: Warehouse, campaign: str,
                     tenant: str | None = None) -> list[dict[str, Any]]:
    """A campaign's committed records, in run-id order -- the order
    ``ResultsStore.load_runs`` yields them."""
    where: dict[str, Any] = {"campaign": campaign}
    if tenant is not None:
        where["tenant"] = tenant
    rows = run_rows(wh, where)
    return [row["record"]
            for row in sorted(rows, key=lambda r: r["run_id"])]


def campaign_summary(wh: Warehouse, campaign: str,
                     tenant: str | None = None) -> dict[str, Any]:
    """Re-aggregate a campaign from its ingested records with the
    canonical :func:`repro.scenarios.runner.summarize` -- byte-identical
    to the summary the store itself committed."""
    from repro.scenarios.runner import summarize

    return summarize(campaign_records(wh, campaign, tenant))


def telemetry_totals(wh: Warehouse,
                     where: dict[str, Any] | None = None,
                     ) -> dict[str, float]:
    """Sum the per-run ``repro.obs`` deltas across the matching
    telemetry rows (filters: campaign / tenant / run_id / commit)."""
    where = where or {}
    totals: dict[str, float] = {}
    for _seq, _key, row in wh.rows(schema.TABLE_TELEMETRY):
        if not _match(row, where):
            continue
        for name, value in row.get("metrics", {}).items():
            if isinstance(value, (int, float)):
                totals[name] = totals.get(name, 0) + value
    return dict(sorted(totals.items()))


# ----------------------------------------------------------------------
# Perf trend (the CI regression gate, as a query)
# ----------------------------------------------------------------------
def bench_snapshots(wh: Warehouse) -> list[tuple[int, dict]]:
    """``(number, snapshot)`` pairs in number order.  If a number was
    re-ingested with changed content (pre-vacuum), the most recently
    inserted version wins."""
    latest: dict[int, tuple[int, dict]] = {}
    for seq, _key, row in wh.rows(schema.TABLE_BENCH):
        number = int(row["bench"])
        prior = latest.get(number)
        if prior is None or seq > prior[0]:
            latest[number] = (seq, row["snapshot"])
    return [(number, latest[number][1]) for number in sorted(latest)]


def trend_failures(snapshots: list[tuple[int, dict]],
                   tolerance: float = DEFAULT_TOLERANCE,
                   meters: Sequence[str] | None = None) -> list[str]:
    """Regression messages (empty = the trend holds).

    The gate rule: each snapshot's ``optimized`` meters are compared
    against the latest prior snapshot that recorded the same meter;
    ``*_per_sec`` rates regress by dropping below
    ``prior * (1 - tolerance)``, bare ``*_sec`` durations by rising
    above ``prior * (1 + tolerance)``.
    ``meters`` restricts the check to named meters (default: all).
    """
    failures: list[str] = []
    latest_by_meter: dict[str, tuple[int, float]] = {}
    for number, snapshot in snapshots:
        optimized = snapshot.get("optimized", {})
        for meter, rate in sorted(optimized.items()):
            if meters is not None and meter not in meters:
                continue
            prior = latest_by_meter.get(meter)
            if prior is not None:
                prior_number, prior_rate = prior
                if prior_rate > 0 and is_duration_meter(meter) \
                        and rate > prior_rate * (1.0 + tolerance):
                    failures.append(
                        f"{meter}: BENCH_{number} optimized "
                        f"{rate:,.3f} s is "
                        f"{(rate / prior_rate - 1.0) * 100.0:.0f}% above "
                        f"BENCH_{prior_number} ({prior_rate:,.3f} s); "
                        f"tolerance is {tolerance * 100.0:.0f}%")
                elif prior_rate > 0 and not is_duration_meter(meter) \
                        and rate < prior_rate * (1.0 - tolerance):
                    failures.append(
                        f"{meter}: BENCH_{number} optimized "
                        f"{rate:,.1f}/s is "
                        f"{(1.0 - rate / prior_rate) * 100.0:.0f}% below "
                        f"BENCH_{prior_number} ({prior_rate:,.1f}/s); "
                        f"tolerance is {tolerance * 100.0:.0f}%")
            latest_by_meter[meter] = (number, rate)
    return failures


def obs_overhead_failures(snapshots: list[tuple[int, dict]],
                          budget_pct: float = OBS_OVERHEAD_BUDGET_PCT,
                          ) -> list[str]:
    """Telemetry-budget violations in the latest ``obs_overhead``
    table (the budget constrains current instrumentation, not
    history)."""
    carrying = [(n, s) for n, s in snapshots if s.get("obs_overhead")]
    if not carrying:
        return []
    number, snapshot = carrying[-1]
    failures = []
    for meter, row in sorted(snapshot["obs_overhead"].items()):
        overhead = float(row.get("overhead_pct", 0.0))
        if overhead > budget_pct:
            failures.append(
                f"{meter}: BENCH_{number} telemetry-on overhead "
                f"{overhead:.2f}% exceeds the {budget_pct:.0f}% budget "
                f"(off {row.get('off', 0):,.0f}/s, "
                f"on {row.get('on', 0):,.0f}/s)")
    return failures


def trend_series(snapshots: list[tuple[int, dict]], meter: str,
                 window: int | None = None) -> list[tuple[int, float]]:
    """The ``(bench_number, optimized_value)`` trajectory of one meter,
    oldest first; ``window`` keeps only the trailing N transitions
    (N + 1 points)."""
    series = [(number, float(snapshot["optimized"][meter]))
              for number, snapshot in snapshots
              if meter in snapshot.get("optimized", {})]
    if window is not None and window > 0:
        series = series[-(window + 1):]
    return series


def trend_meters(snapshots: list[tuple[int, dict]]) -> list[str]:
    """Every meter any snapshot's ``optimized`` table recorded."""
    names: set[str] = set()
    for _number, snapshot in snapshots:
        names.update(snapshot.get("optimized", {}))
    return sorted(names)
