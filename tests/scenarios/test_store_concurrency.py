"""ResultsStore under concurrency and mid-write crashes.

The commit swap is two directory renames; unguarded, two committers
racing it could interleave the renames and corrupt or half-lose
``runs/``.  These tests pin the :class:`CommitLock` behaviour (one
winner, loser no-ops or waits, stale locks broken) and the torn-write
guarantees of the ``*.json.tmp`` staging protocol.
"""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.scenarios import CampaignRunner, ResultsStore, Scenario
from repro.scenarios.store import CommitLock
from repro.scenarios.stock import fast_hil


def _store_with_staged(tmp_path, n=3) -> ResultsStore:
    store = ResultsStore(tmp_path)
    store.begin_staging()
    for i in range(n):
        store.stage_run(f"{i:03d}_run", {"run_id": f"{i:03d}_run",
                                         "metrics": {"value": i}})
    return store


def test_concurrent_committers_one_wins_one_noops(tmp_path):
    """Two threads race commit_staged on the same staged set: exactly
    one promotes all records, the other finds nothing staged, and the
    store ends whole -- no runs.old/, no staging, no lock debris."""
    store_a = _store_with_staged(tmp_path, n=3)
    store_b = ResultsStore(tmp_path)
    barrier = threading.Barrier(2)
    counts = {}

    def committer(tag, store):
        barrier.wait()
        counts[tag] = store.commit_staged()

    threads = [threading.Thread(target=committer, args=("a", store_a)),
               threading.Thread(target=committer, args=("b", store_b))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert sorted(counts.values()) == [0, 3]
    assert len(ResultsStore(tmp_path).load_runs()) == 3
    assert not (tmp_path / "runs.old").exists()
    assert not (tmp_path / "runs.staging").exists()


def test_commit_waits_for_live_lock_holder_then_times_out(tmp_path):
    store = _store_with_staged(tmp_path)
    store._lock_timeout = 0.3
    # A live holder (this process, on its own fd) pins the lock.
    with ResultsStore(tmp_path).commit_lock():
        with pytest.raises(TimeoutError):
            store.commit_staged()
        # Nothing moved while the lock was held.
        assert (tmp_path / "runs.staging").exists()
        assert ResultsStore(tmp_path).load_runs() == []
    assert store.commit_staged() == 3


def test_lock_from_dead_process_cannot_wedge_commits(tmp_path):
    """flock dies with its holder: a lock file left by a dead process
    (even one naming its pid) never blocks the next committer."""
    store = _store_with_staged(tmp_path)
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    (tmp_path / ".commit.lock").write_text(str(proc.pid))
    assert store.commit_staged() == 3


def test_torn_lock_file_never_blocks(tmp_path):
    store = _store_with_staged(tmp_path)
    (tmp_path / ".commit.lock").write_text("")  # crashed mid-write
    assert store.commit_staged() == 3


def test_commit_lock_reentry_after_release(tmp_path):
    lock = CommitLock(tmp_path / ".commit.lock", timeout=1.0)
    with lock:
        assert (tmp_path / ".commit.lock").exists()
    with lock:  # reacquirable; the lock file itself persists
        pass
    # And a second CommitLock on the same path serializes correctly.
    other = CommitLock(tmp_path / ".commit.lock", timeout=0.2)
    with lock:
        with pytest.raises(TimeoutError):
            other.__enter__()


def test_torn_staged_write_never_promoted(tmp_path):
    """A ``.json.tmp`` left by a process killed mid-``stage_run`` is
    dropped at commit, not promoted as a half-record."""
    store = _store_with_staged(tmp_path, n=2)
    torn = tmp_path / "runs.staging" / "002_run.json.tmp"
    torn.write_text('{"run_id": "002_run", "metr')  # killed mid-write
    assert store.commit_staged() == 2
    runs = ResultsStore(tmp_path).load_runs()
    assert [r["run_id"] for r in runs] == ["000_run", "001_run"]
    assert not list(tmp_path.rglob("*.json.tmp"))


def test_discard_staged_cleans_torn_writes(tmp_path):
    store = _store_with_staged(tmp_path, n=2)
    (tmp_path / "runs.staging" / "junk.json.tmp").write_text("{")
    assert store.discard_staged() == 2
    assert not (tmp_path / "runs.staging").exists()


def test_interrupted_save_summary_keeps_previous_summary(tmp_path,
                                                        monkeypatch):
    """A process killed while writing ``campaign.json`` leaves the
    previous summary readable, not a torn file."""
    from pathlib import Path

    store = ResultsStore(tmp_path)
    store.save_summary({"total_runs": 1})
    real_write = Path.write_text

    def dying_write(self, text, *args, **kwargs):
        real_write(self, text[:len(text) // 2], *args, **kwargs)
        raise KeyboardInterrupt  # stand-in for SIGKILL mid-write

    monkeypatch.setattr(Path, "write_text", dying_write)
    with pytest.raises(KeyboardInterrupt):
        store.save_summary({"total_runs": 2, "failed_runs": 0})
    monkeypatch.undo()
    assert ResultsStore(tmp_path).load_summary() == {"total_runs": 1}


def test_crash_during_staged_write_mid_campaign(tmp_path, monkeypatch):
    """Kill a campaign *inside* a staged record write: the previously
    committed campaign survives untouched, and the next campaign into
    the same directory starts clean and commits correctly."""
    grid = [Scenario(f"crashy-{i}", hil=fast_hil(), seed=i,
                     duration_sec=3.0) for i in range(3)]
    first = CampaignRunner(parallel=False,
                           results_dir=str(tmp_path)).run(grid[:2])
    before = json.dumps(ResultsStore(tmp_path).load_runs(),
                        sort_keys=True)

    real_stage = ResultsStore.stage_run
    calls = {"n": 0}

    def dying_stage(self, run_id, record):
        calls["n"] += 1
        if calls["n"] == 2:
            # The process dies mid-write: the tmp file exists, the
            # rename never happened.
            (self._staging_dir / f"{run_id}.json.tmp").write_text(
                '{"run_id": "torn')
            raise KeyboardInterrupt  # stand-in for SIGKILL
        return real_stage(self, run_id, record)

    monkeypatch.setattr(ResultsStore, "stage_run", dying_stage)
    with pytest.raises(KeyboardInterrupt):
        CampaignRunner(parallel=False, results_dir=str(tmp_path)) \
            .run(grid)
    monkeypatch.undo()
    # Previous campaign untouched by the crash.
    store = ResultsStore(tmp_path)
    assert json.dumps(store.load_runs(), sort_keys=True) == before
    # A fresh campaign into the same directory commits cleanly.
    result = CampaignRunner(parallel=False,
                            results_dir=str(tmp_path)).run(grid)
    assert len(ResultsStore(tmp_path).load_runs()) == 3
    assert ResultsStore(tmp_path).load_summary() == result.summary
    assert not list(tmp_path.rglob("*.json.tmp"))


def test_empty_grid_commits_empty_campaign(tmp_path):
    """begin_staging keeps the empty-campaign semantics: running an
    empty grid over a populated store leaves an (intentionally) empty
    committed campaign, not the stale previous records."""
    grid = [Scenario("one", hil=fast_hil(), seed=1, duration_sec=3.0)]
    CampaignRunner(parallel=False, results_dir=str(tmp_path)).run(grid)
    assert len(ResultsStore(tmp_path).load_runs()) == 1
    result = CampaignRunner(parallel=False,
                            results_dir=str(tmp_path)).run([])
    assert result.records == []
    assert ResultsStore(tmp_path).load_runs() == []
    assert ResultsStore(tmp_path).load_summary()["total_runs"] == 0
