"""The coordinator's live status stream (subscribe / status_update).

Covers the wire protocol (subscribe ack, pushed snapshots), the
enriched ``status()`` snapshot (worker health + lease latency,
per-campaign progress/rate/ETA), the ``status --follow`` CLI line
formatter, and the obs bridge that mirrors the stream into gauges.
"""

import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.dist import LocalCluster
from repro.dist.cli import format_status_line
from repro.dist.cluster import sleepy_echo
from repro.dist.protocol import connect, recv_message, send_message


REPO_ROOT = Path(__file__).resolve().parents[2]


def _double(x):
    return 2 * x


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(n_workers=2, slots=2) as cluster:
        cluster.wait_for_workers()
        yield cluster


def _subscribe(address, period=0.1, timeout=5.0):
    sock = connect(address, role="client", name="stream-test",
                   timeout=10.0)
    sock.settimeout(timeout)
    send_message(sock, {"type": "subscribe", "period": period})
    header, _ = recv_message(sock)
    assert header["type"] == "subscribed"
    return sock, header


def _next_update(sock):
    while True:
        header, _ = recv_message(sock)
        if header["type"] == "status_update":
            return header["status"]


class TestStatusStream:
    def test_subscribe_ack_clamps_period(self, cluster):
        sock, ack = _subscribe(cluster.address, period=0.0001)
        try:
            assert ack["period"] == pytest.approx(0.1)  # floor, not 0
        finally:
            sock.close()

    def test_updates_are_pushed_without_polling(self, cluster):
        sock, _ = _subscribe(cluster.address, period=0.1)
        try:
            first = _next_update(sock)
            second = _next_update(sock)  # keeps coming, unprompted
        finally:
            sock.close()
        for status in (first, second):
            assert status["pending"] == 0
            assert status["subscribers"] >= 1
            assert len(status["workers"]) == 2
            for worker in status["workers"]:
                assert worker["last_seen_age_sec"] >= 0.0
                assert worker["leases_granted"] >= 0
                assert worker["lease_wait_avg_sec"] >= 0.0

    def test_campaign_progress_and_lease_latency(self, cluster):
        runner = cluster.runner()
        jobs = [{"sleep_sec": 0.05, "value": i} for i in range(6)]
        assert runner.map_jobs(sleepy_echo, jobs) == list(range(6))
        status = runner.status()
        campaigns = {c["name"]: c for c in status["campaigns"]}
        mine = campaigns["campaign-client"]
        assert mine["outstanding"] == 0
        assert mine["completed"] == 6
        assert mine["failed"] == 0
        assert mine["batches"] >= 1
        assert mine["rate_per_sec"] > 0.0
        assert mine["eta_sec"] is None  # nothing outstanding
        assert sum(w["leases_granted"] for w in status["workers"]) >= 6
        assert all(w["lease_wait_avg_sec"] >= 0.0
                   for w in status["workers"])


class TestFormatStatusLine:
    def test_plain_counters(self):
        line = format_status_line(
            {"pending": 3, "leased": 2, "workers": [{}, {}],
             "stats": {"jobs_completed": 7, "jobs_failed": 1}})
        assert line == "pending=3 leased=2 workers=2 done=7 failed=1"

    def test_campaign_section_with_eta(self):
        line = format_status_line(
            {"pending": 0, "leased": 4, "workers": [{}],
             "stats": {"jobs_completed": 16, "jobs_failed": 0},
             "campaigns": [{"name": "grid", "outstanding": 4,
                            "completed": 16, "failed": 0,
                            "rate_per_sec": 2.0, "eta_sec": 2.0}]})
        assert "[grid: 16/20 @2.0/s eta=2s]" in line

    def test_campaign_section_without_eta(self):
        line = format_status_line(
            {"campaigns": [{"name": "grid", "outstanding": 0,
                            "completed": 5, "failed": 1,
                            "rate_per_sec": 0.5, "eta_sec": None}]})
        assert "[grid: 6/6 @0.5/s]" in line


class TestFollowCli:
    def test_follow_prints_bounded_updates(self, cluster):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.dist", "status",
             "--connect", cluster.address, "--follow",
             "--interval", "0.1", "--max-updates", "2"],
            env={"PYTHONPATH": "src"}, cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("pending=") for line in lines)

    def test_follow_json_mode(self, cluster):
        import json

        proc = subprocess.run(
            [sys.executable, "-m", "repro.dist", "status",
             "--connect", cluster.address, "--follow", "--json",
             "--interval", "0.1", "--max-updates", "1"],
            env={"PYTHONPATH": "src"}, cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        status = json.loads(proc.stdout.strip())
        assert "workers" in status and "stats" in status


class TestCoordinatorBridge:
    def test_bridge_mirrors_stream_into_gauges(self, cluster):
        from repro.obs import MetricsRegistry
        from repro.obs.bridge import CoordinatorBridge

        registry = MetricsRegistry()
        runner = cluster.runner()
        assert runner.map_jobs(_double, [1, 2, 3]) == [2, 4, 6]
        with CoordinatorBridge(registry, cluster.address, period=0.1):
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                values = registry.values()
                if values.get("=repro_dist_up") == 1.0:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("bridge never connected")
        values = registry.values()
        assert values["=repro_dist_workers"] == 2
        assert values["=repro_dist_pending_jobs"] == 0
        assert values["=repro_dist_jobs_completed"] >= 3
        text = registry.render_prometheus()
        assert "repro_dist_up" in text
        assert 'repro_dist_worker_inflight{worker="' in text

    def test_bridge_marks_down_without_coordinator(self):
        from repro.obs import MetricsRegistry
        from repro.obs.bridge import CoordinatorBridge

        registry = MetricsRegistry()
        bridge = CoordinatorBridge(registry, "127.0.0.1:1",
                                   period=0.1, redial_max=0.2)
        with bridge:
            time.sleep(0.3)
        assert registry.values()["=repro_dist_up"] == 0.0
        assert bridge.updates_received == 0

    def test_bridge_counts_failed_dials_and_still_stops(self):
        from repro.obs import MetricsRegistry
        from repro.obs.bridge import CoordinatorBridge

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        listener.close()  # nothing listens on the port any more
        registry = MetricsRegistry()
        bridge = CoordinatorBridge(registry, f"127.0.0.1:{port}",
                                   period=0.1, redial_max=0.05).start()
        deadline = time.monotonic() + 10.0
        # Each dial retries for 2 s before it fails.
        while (registry.values()["repro_dist_bridge_errors_total"] < 1
               and time.monotonic() < deadline):
            time.sleep(0.02)
        thread = bridge._thread
        bridge.stop()
        assert not thread.is_alive()
        assert registry.values()["repro_dist_bridge_errors_total"] >= 1
        assert registry.values()["=repro_dist_up"] == 0.0


class TestSettledCampaignPinsItsClock:
    def test_rate_frozen_and_no_phantom_eta_after_settle(self, cluster):
        """Regression: a campaign that settles between snapshot ticks
        used to keep aging its rate denominator (``now - started``),
        so later snapshots reported a decaying rate -- and a stale-rate
        ETA could revive.  Settling pins the clock: every snapshot
        after the last result reports the rate the batch actually
        achieved, and no ETA."""
        with cluster.runner(name="pin-test") as runner:
            assert runner.map_jobs(sleepy_echo,
                                   [{"sleep_sec": 0.05, "value": i}
                                    for i in range(4)]) == [0, 1, 2, 3]
            first = {c["name"]: c for c in
                     runner.status()["campaigns"]}["pin-test"]
            time.sleep(0.35)  # several broadcast periods of idle age
            second = {c["name"]: c for c in
                      runner.status()["campaigns"]}["pin-test"]
        assert first["outstanding"] == 0
        assert first["rate_per_sec"] > 0.0
        assert first["rate_per_sec"] == second["rate_per_sec"]
        assert first["eta_sec"] is None and second["eta_sec"] is None
        # An idle tenant holds no share of the grant bandwidth.
        assert second["share"] == 0.0


class TestFormatStatusLineFairShare:
    def test_share_appended_only_when_backlogged(self):
        line = format_status_line(
            {"pending": 2, "leased": 1, "workers": [{}],
             "stats": {"jobs_completed": 1},
             "campaigns": [{"name": "grid", "outstanding": 2,
                            "completed": 1, "failed": 0,
                            "rate_per_sec": 1.0, "eta_sec": 2.0,
                            "share": 0.25}]})
        assert "[grid: 1/3 @1.0/s eta=2s share=25%]" in line

    def test_fleet_shown_only_for_autoscaled_brokers(self):
        base = {"pending": 0, "leased": 0, "workers": [{}, {}],
                "stats": {}}
        assert "fleet=" not in format_status_line(base)
        line = format_status_line(
            dict(base, fleet_size=2,
                 autoscale={"min": 1, "max": 6,
                            "scaled_up": 3, "scaled_down": 1}))
        assert "fleet=2[1:6]" in line
