"""``python -m repro.warehouse`` -- the warehouse CLI.

Subcommands::

    ingest   ingest committed campaign stores and/or BENCH_*.json
             snapshots into a warehouse
    query    cross-campaign filters / group-by / percentile aggregates
    summary  a campaign's canonical summarize() re-aggregated from the
             warehouse (byte-identical to its campaign.json)
    trend    per-meter perf trajectory over the ingested BENCH
             snapshots; --gate applies the CI regression rule
    vacuum   drop superseded duplicate rows and compact the storage

Examples::

    python -m repro.warehouse ingest --db /tmp/wh results/campaign_a \\
        --tenant alice --commit $(git rev-parse --short HEAD)
    python -m repro.warehouse ingest --db /tmp/wh --bench BENCH_*.json
    python -m repro.warehouse query --db /tmp/wh --group-by scenario \\
        --meter failover_latency_sec --percentiles 50,90,99
    python -m repro.warehouse trend --db /tmp/wh --meter events_per_sec
    python -m repro.warehouse trend --db /tmp/wh --gate   # CI exit code
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.warehouse import ingest as ingest_mod
from repro.warehouse import query as query_mod
from repro.warehouse.core import open_warehouse


def _parse_where(args: argparse.Namespace) -> dict:
    where: dict = {}
    if args.campaign:
        where["campaign"] = (args.campaign[0] if len(args.campaign) == 1
                             else args.campaign)
    if args.tenant:
        where["tenant"] = (args.tenant[0] if len(args.tenant) == 1
                           else args.tenant)
    if args.scenario:
        where["scenario"] = (args.scenario[0] if len(args.scenario) == 1
                             else args.scenario)
    if args.seed is not None:
        where["seed"] = args.seed
    if args.grid_size is not None:
        where["grid_size"] = args.grid_size
    if args.commit:
        where["commit"] = args.commit
    return where


def _cmd_ingest(args: argparse.Namespace) -> int:
    with open_warehouse(args.db) as wh:
        reports = []
        for store_root in args.stores:
            reports.append(ingest_mod.ingest_store(
                wh, store_root, campaign=args.campaign_name,
                tenant=args.tenant, commit=args.commit))
        if args.bench:
            reports.append(ingest_mod.ingest_bench(wh, args.bench))
        for report in reports:
            print(report.describe())
        if not reports:
            print("nothing to ingest (pass store directories and/or "
                  "--bench snapshots)", file=sys.stderr)
            return 2
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    with open_warehouse(args.db) as wh:
        if args.campaigns:
            result: dict = {"campaigns": query_mod.campaigns(wh)}
        else:
            group_by = [f.strip() for f in args.group_by.split(",")
                        if f.strip()]
            percentiles = [float(q) for q in args.percentiles.split(",")
                           if q.strip()]
            result = query_mod.query_runs(
                wh, where=_parse_where(args), group_by=group_by,
                meter=args.meter, percentiles=percentiles)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    if "campaigns" in result:
        for entry in result["campaigns"]:
            print(f"{entry['tenant']}/{entry['campaign']}: "
                  f"{entry['runs']} run(s), {entry['failed']} failed, "
                  f"{len(entry['scenarios'])} scenario(s), "
                  f"seeds {entry['seeds']}")
        return 0
    for group in result["groups"]:
        by = " ".join(f"{k}={v}" for k, v in group["by"].items()) or "(all)"
        line = f"{by}: runs={group['runs']} failed={group['failed']}"
        stats = group.get("stats")
        if stats:
            extras = " ".join(
                f"{k}={stats[k]:.4g}" for k in sorted(stats) if k != "n")
            line += f" {result['meter']}[n={stats['n']}] {extras}"
        elif result.get("meter"):
            line += f" {result['meter']}: no values"
        print(line)
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    with open_warehouse(args.db) as wh:
        summary = query_mod.campaign_summary(wh, args.campaign,
                                             tenant=args.tenant)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_trend(args: argparse.Namespace) -> int:
    with open_warehouse(args.db) as wh:
        snapshots = query_mod.bench_snapshots(wh)
    if not snapshots:
        print("trend: no BENCH snapshots ingested", file=sys.stderr)
        return 1
    names = ", ".join(f"BENCH_{n}" for n, _ in snapshots)
    print(f"trend: {len(snapshots)} snapshot(s): {names}")
    meters = ([args.meter] if args.meter
              else query_mod.trend_meters(snapshots))
    for meter in meters:
        series = query_mod.trend_series(snapshots, meter,
                                        window=args.window)
        unit = " s " if query_mod.is_duration_meter(meter) else "/s"
        points = "  ".join(f"B{n}:{v:,.6g}" for n, v in series)
        print(f"  {meter:<30} {points}{unit}")
    if not args.gate:
        return 0
    failures = query_mod.trend_failures(
        snapshots, tolerance=args.tolerance,
        meters=[args.meter] if args.meter else None)
    if args.meter is None:
        failures += query_mod.obs_overhead_failures(snapshots)
    if failures:
        print("trend: REGRESSION")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"trend: ok (tolerance {args.tolerance * 100.0:.0f}%)")
    return 0


def _cmd_vacuum(args: argparse.Namespace) -> int:
    with open_warehouse(args.db) as wh:
        removed = wh.vacuum()
        counts = wh.counts()
    dropped = sum(removed.values())
    print(f"vacuum: dropped {dropped} superseded row(s)"
          + (f" {removed}" if removed else ""))
    print(f"vacuum: tables now {counts or '(empty)'}")
    return 0


def _add_filter_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--campaign", action="append", default=[],
                        help="filter to campaign(s) (repeatable)")
    parser.add_argument("--tenant", action="append", default=[],
                        help="filter to tenant(s) (repeatable)")
    parser.add_argument("--scenario", action="append", default=[],
                        help="filter to scenario name(s) (repeatable)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--grid-size", type=int, default=None,
                        dest="grid_size")
    parser.add_argument("--commit", default=None)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.warehouse",
        description="Durable results warehouse: ingest campaign stores "
                    "and perf snapshots, run cross-campaign queries")
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="ingest stores / snapshots")
    ingest.add_argument("--db", required=True,
                        help="warehouse directory (created if missing)")
    ingest.add_argument("stores", nargs="*",
                        help="committed campaign store directories")
    ingest.add_argument("--campaign-name", default=None,
                        help="campaign name override (default: the "
                             "store directory's name)")
    ingest.add_argument("--tenant", default="default")
    ingest.add_argument("--commit", default="",
                        help="commit id to key the ingested rows with")
    ingest.add_argument("--bench", nargs="*", default=[],
                        metavar="BENCH_N.json",
                        help="perf snapshot files to ingest")
    ingest.set_defaults(fn=_cmd_ingest)

    query = sub.add_parser("query", help="cross-campaign queries")
    query.add_argument("--db", required=True)
    query.add_argument("--campaigns", action="store_true",
                       help="list the campaign catalog instead of "
                            "aggregating runs")
    _add_filter_args(query)
    query.add_argument("--group-by", default="campaign",
                       help="comma-separated run dimensions "
                            "(default: campaign)")
    query.add_argument("--meter", default=None,
                       help="run-metrics field to aggregate "
                            "(e.g. failover_latency_sec)")
    query.add_argument("--percentiles", default="50,90,99",
                       help="comma-separated percentile ranks "
                            "(nearest-rank; default 50,90,99)")
    query.add_argument("--json", action="store_true",
                       help="emit the structured result as JSON")
    query.set_defaults(fn=_cmd_query)

    summary = sub.add_parser(
        "summary", help="a campaign's canonical summarize() from the "
                        "warehouse (byte-identical to campaign.json)")
    summary.add_argument("--db", required=True)
    summary.add_argument("--campaign", required=True)
    summary.add_argument("--tenant", default=None)
    summary.set_defaults(fn=_cmd_summary)

    trend = sub.add_parser(
        "trend", help="perf trajectory over ingested BENCH snapshots")
    trend.add_argument("--db", required=True)
    trend.add_argument("--meter", default=None,
                       help="one meter (default: every recorded meter)")
    trend.add_argument("--window", type=int, default=None,
                       help="show only the trailing N transitions")
    trend.add_argument("--gate", action="store_true",
                       help="apply the CI regression rule (exit 1 on "
                            "a >tolerance regression)")
    trend.add_argument("--tolerance", type=float,
                       default=query_mod.DEFAULT_TOLERANCE)
    trend.set_defaults(fn=_cmd_trend)

    vacuum = sub.add_parser("vacuum", help="drop superseded duplicates "
                                           "and compact")
    vacuum.add_argument("--db", required=True)
    vacuum.set_defaults(fn=_cmd_vacuum)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
