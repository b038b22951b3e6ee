"""Concurrent multi-tenant ingest into one warehouse.

Two *processes* ingest two different campaign stores into the same
warehouse at the same time: the ``.warehouse.lock`` flock serializes
the writers, so no rows are lost, and a follow-up
re-ingest of either store is a pure no-op (every row a duplicate).
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.scenarios.store import ResultsStore
from repro.warehouse import campaigns, ingest_store, open_warehouse

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _make_store(root, campaign_runs, tag):
    store = ResultsStore(root)
    store.begin_staging()
    for i in range(campaign_runs):
        run_id = f"{i:03d}_{tag}_s{i}"
        store.stage_run(run_id, {
            "run_id": run_id,
            "scenario": {"name": tag, "seed": i,
                         "hil": {"slots_per_frame": 50}},
            "metrics": {"scenario": tag, "seed": i, "value": float(i)},
        })
    store.commit_staged()
    store.save_summary({"total_runs": campaign_runs})


def _ingest_cli(db, store_root, tenant):
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.warehouse", "ingest",
         "--db", str(db), str(store_root), "--tenant", tenant],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)


def test_two_processes_ingest_simultaneously(tmp_path):
    n = 60
    _make_store(tmp_path / "camp_a", n, "alpha")
    _make_store(tmp_path / "camp_b", n, "beta")
    db = tmp_path / "wh"
    # Seed the warehouse first so neither child races the initial
    # directory layout.
    with open_warehouse(db):
        pass
    procs = [_ingest_cli(db, tmp_path / "camp_a", "alice"),
             _ingest_cli(db, tmp_path / "camp_b", "bob")]
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, (out, err)
    with open_warehouse(db) as wh:
        assert wh.counts()["runs"] == 2 * n
        assert wh.counts()["summaries"] == 2
        catalog = {(e["tenant"], e["campaign"]): e["runs"]
                   for e in campaigns(wh)}
        assert catalog == {("alice", "camp_a"): n, ("bob", "camp_b"): n}


def test_reingest_after_concurrent_load_is_noop(tmp_path):
    _make_store(tmp_path / "camp_a", 10, "alpha")
    with open_warehouse(tmp_path / "wh") as wh:
        report = ingest_store(wh, tmp_path / "camp_a", tenant="alice")
        assert report.inserted == 11
    again = ingest_store(tmp_path / "wh", tmp_path / "camp_a",
                         tenant="alice")
    assert again.inserted == 0 and again.duplicates == 11


def test_same_store_raced_by_two_processes_stays_exactly_once(tmp_path):
    """Both children ingest the *same* store under the same tenant:
    content digests make the second writer's rows duplicates, never
    double-counted rows."""
    n = 40
    _make_store(tmp_path / "camp_a", n, "alpha")
    db = tmp_path / "wh"
    with open_warehouse(db):
        pass
    procs = [_ingest_cli(db, tmp_path / "camp_a", "alice")
             for _ in range(2)]
    outputs = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, (out, err)
        outputs.append(out)
    with open_warehouse(db) as wh:
        assert wh.counts() == {"runs": n, "summaries": 1}
    # Between the two children every row was written exactly once:
    # inserted totals across both processes equal one store's rows.
    assert sum(_inserted_from_describe(out) for out in outputs) == n + 1


def _inserted_from_describe(out: str) -> int:
    # IngestReport.describe() lines look like
    # "<source>: 40 run(s) 1 summary 41 duplicate(s) skipped".
    import re

    runs = re.search(r"(\d+) run\(s\)", out)
    summary = re.search(r"(\d+) summary", out)
    return (int(runs.group(1)) if runs else 0) \
        + (int(summary.group(1)) if summary else 0)
