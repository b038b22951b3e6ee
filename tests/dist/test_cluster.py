"""End-to-end conformance: LocalCluster campaigns match local runs.

The acceptance bar for the subsystem: a ``DistributedCampaignRunner``
over a 2+-worker cluster produces **byte-identical** ``summarize()``
output to the local ``CampaignRunner`` on the same seeded scenario
grid, honours the staged-commit store contract, and keeps the
``map_jobs`` ordering/streaming contracts.
"""

import json
import time

import pytest

from repro.dist import DistributedCampaignRunner, LocalCluster
from repro.dist.cluster import sleepy_echo
from repro.scenarios import CampaignRunner, ResultsStore, Scenario
from repro.scenarios.stock import fast_hil


def _double(x):
    return 2 * x


def _grid(n=4, duration_sec=3.0):
    return [Scenario(f"dist-{i % 2}", hil=fast_hil(), seed=i,
                     duration_sec=duration_sec) for i in range(n)]


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(n_workers=2, slots=2) as cluster:
        cluster.wait_for_workers()
        yield cluster


def test_map_jobs_preserves_job_order(cluster):
    runner = cluster.runner()
    # Staggered sleeps force out-of-order completion; results must come
    # back in job order regardless.
    jobs = [{"sleep_sec": 0.3 - 0.05 * i, "value": i} for i in range(6)]
    assert runner.map_jobs(sleepy_echo, jobs) == list(range(6))


def test_map_jobs_on_result_streams_with_index_identity(cluster):
    runner = cluster.runner()
    seen = []
    results = runner.map_jobs(_double, list(range(8)),
                              on_result=lambda i, r: seen.append((i, r)))
    assert results == [2 * i for i in range(8)]
    # Completion order is scheduling-dependent, but every (index,
    # result) pair is delivered exactly once and self-consistent.
    assert sorted(seen) == [(i, 2 * i) for i in range(8)]


def test_map_jobs_empty_grid(cluster):
    assert cluster.runner().map_jobs(_double, []) == []


def test_sequential_campaigns_reuse_one_connection(cluster):
    runner = cluster.runner()
    assert runner.map_jobs(_double, [1, 2]) == [2, 4]
    assert runner.map_jobs(_double, [3]) == [6]
    status = runner.status()
    assert status["pending"] == 0 and status["leased"] == 0


def test_run_summary_byte_identical_to_local(cluster, tmp_path):
    """The headline acceptance criterion."""
    grid = _grid(4)
    local = CampaignRunner(parallel=False,
                           results_dir=str(tmp_path / "local")).run(grid)
    dist = cluster.runner(results_dir=str(tmp_path / "dist")).run(grid)
    assert not dist.failed
    assert json.dumps(dist.summary, sort_keys=True) == \
        json.dumps(local.summary, sort_keys=True)
    assert json.dumps([r["metrics"] for r in dist.records],
                      sort_keys=True) == \
        json.dumps([r["metrics"] for r in local.records], sort_keys=True)
    # And the persisted stores agree record-for-record.
    assert ResultsStore(tmp_path / "dist").load_runs() == \
        ResultsStore(tmp_path / "local").load_runs()
    assert ResultsStore(tmp_path / "dist").load_summary() == local.summary


def test_run_on_result_streams_records(cluster):
    grid = _grid(3)
    seen = []
    result = cluster.runner().run(grid, on_result=seen.append)
    assert sorted(r["run_id"] for r in seen) == \
        sorted(r["run_id"] for r in result.records)
    assert len(result.records) == 3


def test_local_runner_on_result_in_submission_order(tmp_path):
    """The local twin fires the callback in job order (satellite)."""
    grid = _grid(3)
    seen = []
    with CampaignRunner(parallel=False) as runner:
        result = runner.run(grid, on_result=seen.append)
    assert [r["run_id"] for r in seen] == \
        [r["run_id"] for r in result.records]
    indexed = []
    with CampaignRunner(max_workers=2) as runner:
        doubled = runner.map_jobs(_double, [5, 6, 7],
                                  on_result=lambda i, r:
                                  indexed.append((i, r)))
    assert doubled == [10, 12, 14]
    assert indexed == [(0, 10), (1, 12), (2, 14)]


def test_widegrid_campaign_routes_through_dist_runner(cluster):
    """The wide-grid specs ship over the wire unchanged and digest
    identically to a serial local run."""
    from repro.experiments.widegrid import (
        WideGridConfig,
        WideGridTrialSpec,
        run_widegrid_campaign,
    )

    specs = [
        WideGridTrialSpec(kind="placement",
                          config=WideGridConfig(n_nodes=16, seed=3,
                                                duration_sec=5.0)),
        WideGridTrialSpec(kind="placement",
                          config=WideGridConfig(n_nodes=16, seed=4,
                                                duration_sec=5.0)),
    ]
    local = run_widegrid_campaign(specs)
    dist = run_widegrid_campaign(specs, runner=cluster.runner())
    assert json.dumps(dist, sort_keys=True) == \
        json.dumps(local, sort_keys=True)


def test_concurrent_clients_do_not_cross_wires(cluster):
    """Two clients submit batches with colliding job ids at the same
    time: the broker namespaces jobs per client, so each client gets
    exactly its own results."""
    import threading

    runner_a = cluster.runner()
    runner_b = cluster.runner()
    out = {}

    def go(tag, runner, offset):
        jobs = [{"sleep_sec": 0.1, "value": offset + i} for i in range(6)]
        out[tag] = runner.map_jobs(sleepy_echo, jobs)

    threads = [threading.Thread(target=go, args=("a", runner_a, 0)),
               threading.Thread(target=go, args=("b", runner_b, 100))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert out["a"] == list(range(6))
    assert out["b"] == [100 + i for i in range(6)]


def test_job_exception_raises_distributed_job_error(cluster):
    from repro.dist import DistributedJobError

    runner = cluster.runner()
    with pytest.raises(DistributedJobError) as excinfo:
        runner.map_jobs(_raise_on_odd, [2, 3, 4])
    assert len(excinfo.value.failures) == 1
    assert "odd" in excinfo.value.failures[0][1]
    # The connection survives a failed batch.
    assert runner.map_jobs(_double, [1]) == [2]


def _raise_on_odd(x):
    if x % 2:
        raise ValueError(f"odd value {x}")
    return x


def _unpicklable_result(_x):
    return lambda: None  # lambdas don't pickle


def test_unpicklable_result_fails_fast_not_by_timeout(cluster):
    """A result pickle rejects is a deterministic job defect: it must
    come back as an immediate failed result (with the serialization
    traceback), not hang until the lease deadline."""
    from repro.dist import DistributedJobError

    runner = cluster.runner()
    with pytest.raises(DistributedJobError) as excinfo:
        runner.map_jobs(_unpicklable_result, [1])
    (_, error), = excinfo.value.failures
    assert "pickle" in error.lower() or "Error" in error
    assert "lease" not in error  # not a timeout masquerade


def test_shutdown_coordinator_stops_cluster():
    with LocalCluster(n_workers=1) as cluster:
        cluster.wait_for_workers()
        runner = DistributedCampaignRunner(cluster.address)
        assert runner.map_jobs(_double, [21]) == [42]
        runner.shutdown_coordinator()
        assert cluster.coordinator._stopped.is_set()


def test_wait_for_workers_fails_fast_when_a_worker_exits():
    """A subprocess worker that exits before it registers makes the
    wait raise at once, naming the worker and its exit code, instead of
    sleeping out the timeout."""
    with LocalCluster(n_workers=2, mode="subprocess") as cluster:
        cluster.kill_worker(0)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="-9"):
            cluster.wait_for_workers(timeout=30)
        assert time.monotonic() - start < 5.0
