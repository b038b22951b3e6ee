"""The read-only warehouse query edge on the obs MetricsServer."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.http import MetricsServer
from repro.obs.metrics import MetricsRegistry
from repro.warehouse import ingest_bench, ingest_store, open_warehouse

from test_warehouse import make_store, write_bench


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


@pytest.fixture()
def edge(tmp_path):
    make_store(tmp_path / "camp_a", 4)
    with open_warehouse(tmp_path / "wh") as wh:
        ingest_store(wh, tmp_path / "camp_a", tenant="alice")
        ingest_bench(wh, [
            write_bench(tmp_path, 1, {"optimized": {"m_per_sec": 100.0}}),
            write_bench(tmp_path, 2, {"optimized": {"m_per_sec": 90.0}})])
    with MetricsServer(MetricsRegistry(), port=0,
                       warehouse=str(tmp_path / "wh")) as server:
        yield server


def test_campaigns_endpoint(edge):
    status, payload = _get(f"{edge.url}/campaigns")
    assert status == 200
    assert len(payload["campaigns"]) == 1
    entry = payload["campaigns"][0]
    assert entry["campaign"] == "camp_a" and entry["tenant"] == "alice"
    assert entry["runs"] == 4


def test_query_endpoint_filters_and_aggregates(edge):
    status, payload = _get(
        f"{edge.url}/query?group_by=scenario&meter=failover_latency_sec"
        f"&percentiles=50&tenant=alice")
    assert status == 200
    groups = {g["by"]["scenario"]: g for g in payload["groups"]}
    assert set(groups) == {"alpha", "beta"}
    assert all(g["runs"] == 2 for g in groups.values())
    assert groups["alpha"]["stats"]["p50"] == 1.0

    # Unknown filter fields are a client error, not a 500.
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(f"{edge.url}/query?group_by=bogus")
    assert err.value.code == 400


def test_trend_endpoint(edge):
    status, payload = _get(f"{edge.url}/trend?meter=m_per_sec")
    assert status == 200
    assert payload["meters"]["m_per_sec"] == [
        {"bench": 1, "value": 100.0}, {"bench": 2, "value": 90.0}]


def test_metrics_endpoints_still_served(edge):
    with urllib.request.urlopen(f"{edge.url}/healthz", timeout=10) as r:
        assert r.status == 200
    with urllib.request.urlopen(f"{edge.url}/metrics", timeout=10) as r:
        assert r.status == 200


def test_unmounted_edge_is_404(tmp_path):
    with MetricsServer(MetricsRegistry(), port=0) as server:
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(f"{server.url}/campaigns")
        assert err.value.code == 404


def test_in_memory_warehouse_rejected():
    wh = open_warehouse(":memory:")
    with pytest.raises(ValueError, match="on-disk"):
        MetricsServer(MetricsRegistry(), port=0, warehouse=wh)
    wh.close()
