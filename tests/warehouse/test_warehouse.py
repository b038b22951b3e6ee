"""Results warehouse: ingest, idempotency, queries, vacuum, the CLI.

The synthetic stores here are committed through the real
:class:`ResultsStore` staging protocol, so what the warehouse ingests
is exactly what campaigns persist; the heavier end-to-end paths (a real
local campaign, a real distributed campaign) are covered in
``test_runner_integration.py``.
"""

import json

import pytest

from repro.scenarios.store import ResultsStore
from repro.warehouse import (
    bench_snapshots,
    campaigns,
    ingest_bench,
    ingest_store,
    open_warehouse,
    query_runs,
    telemetry_totals,
    trend_failures,
)
from repro.warehouse.cli import main as cli_main


def make_store(root, campaign_runs, scenario_names=("alpha", "beta"),
               grid_sizes=(50,), with_summary=True,
               with_telemetry=True) -> ResultsStore:
    """A committed store with deterministic synthetic records."""
    store = ResultsStore(root)
    store.begin_staging()
    obs_rows = []
    for i in range(campaign_runs):
        name = scenario_names[i % len(scenario_names)]
        grid = grid_sizes[i % len(grid_sizes)]
        run_id = f"{i:03d}_{name}_s{i}"
        record = {
            "run_id": run_id,
            "scenario": {"name": name, "seed": i, "duration_sec": 30.0,
                         "hil": {"slots_per_frame": grid, "seed": i}},
            "metrics": {"scenario": name, "seed": i,
                        "failover_latency_sec": 1.0 + i,
                        "detection_latency_sec": 0.5 + i,
                        "control_cost": 10.0 * (i + 1),
                        "packet_loss_ratio": 0.0,
                        "max_excursion_pct": 1.5,
                        "mean_io_latency_ms": None,
                        "crashes": 0, "failovers_executed": 1},
        }
        store.stage_run(run_id, record)
        obs_rows.append({"run_id": run_id,
                         "metrics": {"repro_campaign_runs_total": 1,
                                     "repro_engine_events_total": 100 + i}})
    store.commit_staged()
    if with_summary:
        store.save_summary({"total_runs": campaign_runs})
    if with_telemetry:
        store.save_metrics_jsonl(obs_rows)
    return store


def write_bench(root, number, snapshot):
    """Write ``BENCH_<number>.json`` under ``root``; returns its path."""
    path = root / f"BENCH_{number}.json"
    path.write_text(json.dumps(snapshot))
    return path


def test_ingest_catalog_and_counts(tmp_path):
    make_store(tmp_path / "camp_a", 4)
    report = ingest_store(tmp_path / "wh", tmp_path / "camp_a",
                          tenant="alice", commit="abc123")
    assert (report.runs, report.summaries, report.telemetry) == (4, 1, 4)
    assert report.duplicates == 0 and report.telemetry_skipped == 0
    with open_warehouse(tmp_path / "wh") as wh:
        assert wh.counts() == {"runs": 4, "summaries": 1, "telemetry": 4}
        catalog = campaigns(wh)
        assert len(catalog) == 1
        entry = catalog[0]
        assert entry["campaign"] == "camp_a"
        assert entry["tenant"] == "alice"
        assert entry["runs"] == 4 and entry["failed"] == 0
        assert entry["scenarios"] == ["alpha", "beta"]
        assert entry["commits"] == ["abc123"]
        assert entry["has_summary"]


def test_reingest_is_idempotent(tmp_path):
    make_store(tmp_path / "camp_a", 3)
    first = ingest_store(tmp_path / "wh", tmp_path / "camp_a")
    assert first.inserted == 3 + 1 + 3
    second = ingest_store(tmp_path / "wh", tmp_path / "camp_a")
    assert second.inserted == 0
    assert second.duplicates == 7
    with open_warehouse(tmp_path / "wh") as wh:
        assert wh.counts() == {"runs": 3, "summaries": 1, "telemetry": 3}


def test_failed_runs_ingest_with_ok_false(tmp_path):
    store = make_store(tmp_path / "camp_a", 2)
    store.begin_staging()
    # Re-commit with an extra distributed-runner-style failure record.
    for record in store.load_runs():
        store.stage_run(record["run_id"], record)
    store.stage_run("002_lost_s9", {
        "run_id": "002_lost_s9",
        "scenario": {"name": "alpha", "seed": 9,
                     "hil": {"slots_per_frame": 50}},
        "error": "worker died 3 times", "attempts": 3})
    store.commit_staged()
    ingest_store(tmp_path / "wh", tmp_path / "camp_a")
    with open_warehouse(tmp_path / "wh") as wh:
        entry = campaigns(wh)[0]
        assert entry["runs"] == 3 and entry["failed"] == 1
        result = query_runs(wh, meter="failover_latency_sec")
        group = result["groups"][0]
        assert group["runs"] == 3 and group["failed"] == 1
        assert group["stats"]["n"] == 2  # failed run has no metrics


def test_query_filters_group_by_and_percentiles(tmp_path):
    make_store(tmp_path / "camp_a", 8, grid_sizes=(50, 100))
    make_store(tmp_path / "camp_b", 4)
    with open_warehouse(tmp_path / "wh") as wh:
        ingest_store(wh, tmp_path / "camp_a", tenant="alice")
        ingest_store(wh, tmp_path / "camp_b", tenant="bob")

        by_tenant = query_runs(wh, group_by=("tenant",))
        assert [(g["by"]["tenant"], g["runs"])
                for g in by_tenant["groups"]] == [("alice", 8), ("bob", 4)]

        # failover_latency_sec of camp_a = 1..8; grid 50 runs are the
        # even indices (values 1,3,5,7), grid 100 the odd (2,4,6,8).
        by_grid = query_runs(wh, where={"campaign": "camp_a"},
                             group_by=("grid_size",),
                             meter="failover_latency_sec",
                             percentiles=(50.0,))
        stats = {g["by"]["grid_size"]: g["stats"]
                 for g in by_grid["groups"]}
        assert stats[50]["mean"] == 4.0 and stats[100]["mean"] == 5.0
        assert stats[50]["p50"] == 3.0  # nearest rank of [1,3,5,7]
        assert stats[100]["min"] == 2.0 and stats[100]["max"] == 8.0

        seeds = query_runs(wh, where={"seed": [0, 1], "tenant": "alice"})
        assert seeds["groups"][0]["runs"] == 2

        with pytest.raises(ValueError):
            query_runs(wh, where={"bogus": 1})
        with pytest.raises(ValueError):
            query_runs(wh, group_by=("bogus",))


def test_telemetry_totals(tmp_path):
    make_store(tmp_path / "camp_a", 3)
    with open_warehouse(tmp_path / "wh") as wh:
        ingest_store(wh, tmp_path / "camp_a")
        totals = telemetry_totals(wh)
        assert totals["repro_campaign_runs_total"] == 3
        assert totals["repro_engine_events_total"] == 100 + 101 + 102


def test_old_jsonl_warehouse_is_refused(tmp_path):
    """A directory the retired JSONL backend wrote (``tables/`` and no
    database) must not be shadowed by a fresh, empty sqlite warehouse
    whose every query answers nothing."""
    old = tmp_path / "wh"
    (old / "tables").mkdir(parents=True)
    (old / "tables" / "runs.jsonl").write_text(
        '{"key": "k", "row": {}, "seq": 1}\n')
    with pytest.raises(ValueError, match="re-ingest"):
        open_warehouse(old)
    with pytest.raises(ValueError, match="re-ingest"):
        ingest_store(old, make_store(tmp_path / "camp_a", 1).root)
    assert not (old / "warehouse.sqlite").exists()


def test_vacuum_keeps_latest_version(tmp_path):
    store = make_store(tmp_path / "camp_a", 2, with_telemetry=False)
    with open_warehouse(tmp_path / "wh") as wh:
        ingest_store(wh, tmp_path / "camp_a")
        # The campaign is re-run: same run ids, changed content.
        records = store.load_runs()
        store.begin_staging()
        for record in records:
            record["metrics"]["control_cost"] += 1000.0
            store.stage_run(record["run_id"], record)
        store.commit_staged()
        store.save_summary({"total_runs": 2, "rerun": True})
        ingest_store(wh, tmp_path / "camp_a")
        assert wh.counts() == {"runs": 4, "summaries": 2}
        removed = wh.vacuum()
        assert removed == {"runs": 2, "summaries": 1}
        assert wh.counts() == {"runs": 2, "summaries": 1}
        result = query_runs(wh, meter="control_cost")
        assert result["groups"][0]["stats"]["min"] >= 1000.0


def test_trend_snapshots_and_gate(tmp_path):
    snapshots = [(1, {"optimized": {"m_per_sec": 100.0, "t_sec": 1.0}}),
                 (2, {"optimized": {"m_per_sec": 90.0, "t_sec": 1.1}}),
                 (3, {"optimized": {"m_per_sec": 60.0, "t_sec": 1.0}})]
    with open_warehouse(tmp_path / "wh") as wh:
        ingest_bench(wh, [write_bench(tmp_path, number, snapshot)
                          for number, snapshot in snapshots])
        loaded = bench_snapshots(wh)
        assert loaded == snapshots
        failures = trend_failures(loaded, tolerance=0.2)
        assert len(failures) == 1 and "m_per_sec" in failures[0]
        assert trend_failures(loaded, tolerance=0.2,
                              meters=["t_sec"]) == []


def test_cli_round_trip(tmp_path, capsys):
    make_store(tmp_path / "camp_a", 4)
    (tmp_path / "BENCH_1.json").write_text(
        json.dumps({"optimized": {"m_per_sec": 100.0}}))
    (tmp_path / "BENCH_2.json").write_text(
        json.dumps({"optimized": {"m_per_sec": 95.0}}))
    db = str(tmp_path / "wh")
    assert cli_main(["ingest", "--db", db, str(tmp_path / "camp_a"),
                     "--tenant", "alice",
                     "--bench", str(tmp_path / "BENCH_1.json"),
                     str(tmp_path / "BENCH_2.json")]) == 0
    assert cli_main(["query", "--db", db, "--campaigns"]) == 0
    assert cli_main(["query", "--db", db, "--group-by", "scenario",
                     "--meter", "failover_latency_sec", "--json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert {g["by"]["scenario"] for g in payload["groups"]} \
        == {"alpha", "beta"}
    assert cli_main(["summary", "--db", db, "--campaign", "camp_a"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["total_runs"] == 4
    assert cli_main(["trend", "--db", db, "--gate"]) == 0
    # A >20% regression flips the gate's exit code.
    (tmp_path / "BENCH_3.json").write_text(
        json.dumps({"optimized": {"m_per_sec": 10.0}}))
    assert cli_main(["ingest", "--db", db, "--bench",
                     str(tmp_path / "BENCH_3.json")]) == 0
    assert cli_main(["trend", "--db", db, "--gate"]) == 1
    assert cli_main(["vacuum", "--db", db]) == 0


def test_cli_ingest_nothing_is_an_error(tmp_path):
    assert cli_main(["ingest", "--db", str(tmp_path / "wh")]) == 2
