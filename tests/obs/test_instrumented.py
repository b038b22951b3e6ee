"""Telemetry-on behaviour: meters move, exports serve, stores persist.

Counterpart to ``test_fastpath.py``: with a registry enabled, the
instrumented layers publish real series, the campaign runner routes
per-run deltas into ``metrics.jsonl`` while keeping the run records
byte-identical to obs-off runs, and the HTTP edge serves all three
endpoints.
"""

import json
import urllib.error
import urllib.request

import pytest

import repro.obs as obs
from repro.obs.http import PROMETHEUS_CONTENT_TYPE, MetricsServer
from repro.scenarios import CampaignRunner, ResultsStore, Scenario
from repro.scenarios.stock import fast_hil


@pytest.fixture
def registry():
    reg = obs.enable(obs.MetricsRegistry())
    try:
        yield reg
    finally:
        obs.disable()


def _grid(n=2, duration_sec=3.0):
    return [Scenario(f"obs-{i}", hil=fast_hil(), seed=i,
                     duration_sec=duration_sec) for i in range(n)]


def test_engine_meters_flush_per_run(registry):
    from repro.sim.engine import Engine

    engine = Engine()
    hits = []
    for i in range(50):
        engine.schedule(i * 1000, hits.append, i)
    engine.run()
    values = registry.values()
    assert values["repro_engine_events_dispatched_total"] == 50
    assert values["repro_engine_runs_total"] == 1
    assert values["=repro_engine_pending_events"] == 0


def test_vm_meters_count_retired_instructions(registry):
    from repro.evm import Assembler, Interpreter

    program = Assembler().assemble("""
        .name sum
        push 2.0
        push 3.0
        add
        store 0
        halt
    """)
    state = Interpreter().execute(program, [0.0] * 8)
    assert state.halted
    values = registry.values()
    assert values["repro_vm_instructions_total"] == state.steps
    assert values["repro_vm_faults_total"] == 0


def test_campaign_meters_and_metrics_jsonl(registry, tmp_path):
    grid = _grid(2)
    with CampaignRunner(parallel=False,
                        results_dir=str(tmp_path)) as runner:
        result = runner.run(grid)
    # Records are byte-identical to obs-off runs: no transient "obs"
    # key survives into the result or the committed store.
    assert all("obs" not in record for record in result.records)
    store = ResultsStore(tmp_path)
    assert all("obs" not in record for record in store.load_runs())
    assert result.summary["total_runs"] == 2
    assert result.summary["failed_runs"] == 0
    assert "trace_dropped" in result.summary
    # The deltas land in the side channel instead, one row per run.
    rows = store.load_metrics_jsonl()
    assert [row["run_id"] for row in rows] == \
        [record["run_id"] for record in result.records]
    for row in rows:
        assert row["metrics"]["repro_campaign_runs_total"] == 1
        assert row["metrics"]["repro_campaign_run_seconds:count"] == 1
        assert row["metrics"]["repro_engine_events_dispatched_total"] > 0
    # And the process-wide registry agrees with the per-run sum.
    assert registry.values()["repro_campaign_runs_total"] == 2


def test_stale_metrics_jsonl_removed_on_obs_off_rerun(tmp_path):
    grid = _grid(1)
    reg = obs.enable(obs.MetricsRegistry())
    try:
        with CampaignRunner(parallel=False,
                            results_dir=str(tmp_path)) as runner:
            runner.run(grid)
    finally:
        obs.disable()
    store = ResultsStore(tmp_path)
    assert store.load_metrics_jsonl()
    with CampaignRunner(parallel=False,
                        results_dir=str(tmp_path)) as runner:
        runner.run(grid)
    # Wholesale replacement: an obs-off campaign must not leave the
    # previous campaign's telemetry paired with its records.
    assert store.load_metrics_jsonl() == []


def test_metrics_server_endpoints():
    reg = obs.MetricsRegistry()
    reg.counter("repro_http_total", "served").inc(3)
    with MetricsServer(reg, port=0) as server:
        with urllib.request.urlopen(server.url + "/metrics") as resp:
            assert resp.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
            body = resp.read().decode()
        assert "repro_http_total 3" in body
        with urllib.request.urlopen(server.url + "/snapshot") as resp:
            snap = json.loads(resp.read().decode())
        assert snap["repro_http_total"]["samples"][0]["value"] == 3
        with urllib.request.urlopen(server.url + "/healthz") as resp:
            assert resp.read() == b"ok\n"
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/nope")
        assert err.value.code == 404
