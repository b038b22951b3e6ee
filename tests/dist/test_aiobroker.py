"""Asyncio-broker-specific coverage.

The synchronous :class:`Coordinator` facade routes *everything* through
:class:`repro.dist.aiobroker.AsyncCoordinator`, so the whole existing
``tests/dist`` suite already exercises the event-loop core.  This file
adds what that suite cannot see:

- the worker-failure core cases driven at the **wire level** with bare
  sockets (a no-goodbye disconnect mid-lease, a hung lease expiring,
  and the late result from the original holder being dropped), so the
  lease state machine is pinned independently of ``WorkerAgent``;
- the status broadcaster's **shared-snapshot** bound: snapshot
  construction scales with ticks, not ticks x subscribers;
- a concurrent-connection ramp smoke (hundreds of idle clients on one
  loop -- the scale the threaded broker could not hold; the full
  1000-client ramp is benchmarked in ``benchmarks/hotpath.py``).
"""

import socket
import threading
import time

import pytest

from repro.dist import LocalCluster
from repro.dist.cluster import sleepy_echo
from repro.dist.coordinator import Coordinator
from repro.dist.protocol import (
    connect,
    dumps_payload,
    loads_payload,
    pack_blob_list,
    recv_message,
    send_message,
    unpack_blob_list,
)


def _wait_until(predicate, timeout=15.0, period=0.02, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise TimeoutError(f"timed out waiting for {what}")
        time.sleep(period)


def _echo(x):
    return x


# ----------------------------------------------------------------------
# Wire-level fakes: a worker and a client as bare sockets
# ----------------------------------------------------------------------
def _fake_worker(address, slots=1, name="fake-worker"):
    sock = connect(address, role="worker", name=name, slots=slots)
    sock.settimeout(10.0)
    return sock


def _fake_client(address, name="fake-client"):
    sock = connect(address, role="client", name=name)
    sock.settimeout(10.0)
    return sock


def _submit(client, values, max_attempts=None):
    header = {"type": "submit",
              "job_ids": [f"j{i}" for i in range(len(values))]}
    if max_attempts is not None:
        header["max_attempts"] = max_attempts
    blobs = [dumps_payload((_echo, v)) for v in values]
    send_message(client, header, pack_blob_list(blobs))


def _recv_job(worker):
    while True:
        header, payload = recv_message(worker)
        if header["type"] == "job":
            return header, payload
        assert header["type"] != "shutdown"


def _heartbeat_forever(worker, stop, period=0.1):
    while not stop.wait(period):
        try:
            send_message(worker, {"type": "heartbeat"})
        except OSError:
            return


# ----------------------------------------------------------------------
# Failure-core ports (no-goodbye kill, hung lease, late result)
# ----------------------------------------------------------------------
def test_mid_lease_disconnect_requeues_to_survivor():
    """A worker that vanishes without goodbye (the SIGKILL signature on
    the wire) loses its lease to the surviving worker."""
    with Coordinator(worker_timeout=5.0) as coordinator:
        victim = _fake_worker(coordinator.address, name="victim")
        client = _fake_client(coordinator.address)
        _submit(client, [41])
        job, payload = _recv_job(victim)  # lease lands on the only worker
        # Die mid-lease: no goodbye, no result.
        victim.close()
        survivor = _fake_worker(coordinator.address, name="survivor")
        job2, payload2 = _recv_job(survivor)
        assert job2["job_id"] == job["job_id"]
        assert job2["attempt"] == job["attempt"] + 1
        send_message(survivor, {"type": "result", "job_id": job2["job_id"],
                                "attempt": job2["attempt"], "ok": True},
                     dumps_payload(_echo(loads_payload(payload2)[1])))
        header, result = recv_message(client)
        assert header["type"] == "result" and header["ok"]
        assert loads_payload(result) == 41
        assert recv_message(client)[0]["type"] == "done"
        assert coordinator.stats.workers_dropped == 1
        assert coordinator.stats.jobs_requeued == 1
        survivor.close(), client.close()


def test_hung_lease_expires_and_late_result_is_dropped():
    """A worker that sits on a lease past the deadline loses the job to
    a peer; its eventual (late) result is counted ignored, not
    delivered twice."""
    with Coordinator(lease_timeout=0.5, worker_timeout=30.0) as coordinator:
        hung = _fake_worker(coordinator.address, name="hung")
        stop = threading.Event()
        beat = threading.Thread(target=_heartbeat_forever,
                                args=(hung, stop), daemon=True)
        beat.start()  # chatty heartbeats: only the *lease* is hung
        client = _fake_client(coordinator.address)
        _submit(client, ["slowpoke"])
        job, payload = _recv_job(hung)
        # Do nothing: the reaper must take the lease back on deadline.
        rescuer = _fake_worker(coordinator.address, name="rescuer")
        job2, payload2 = _recv_job(rescuer)
        assert job2["job_id"] == job["job_id"]
        assert job2["attempt"] == job["attempt"] + 1
        send_message(rescuer, {"type": "result", "job_id": job2["job_id"],
                               "attempt": job2["attempt"], "ok": True},
                     dumps_payload("rescued"))
        header, result = recv_message(client)
        assert header["ok"] and loads_payload(result) == "rescued"
        assert recv_message(client)[0]["type"] == "done"
        # The hung worker finally answers: a late result for a settled
        # job is dropped, and the client sees exactly one result.
        ignored_before = coordinator.stats.results_ignored
        send_message(hung, {"type": "result", "job_id": job["job_id"],
                            "attempt": job["attempt"], "ok": True},
                     dumps_payload("too late"))
        _wait_until(lambda: coordinator.stats.results_ignored
                    > ignored_before, what="the late result to be dropped")
        client.settimeout(0.3)
        with pytest.raises((TimeoutError, socket.timeout, OSError)):
            recv_message(client)  # nothing else arrives
        stop.set()
        hung.close(), rescuer.close(), client.close()


def test_attempt_budget_exhaustion_fails_the_job():
    """Every worker that touches the job dies: after max_attempts
    grants the client gets a failed result, not an infinite retry."""
    with Coordinator(worker_timeout=5.0) as coordinator:
        client = _fake_client(coordinator.address)
        _submit(client, ["doomed"], max_attempts=2)
        for _ in range(2):
            worker = _fake_worker(coordinator.address)
            _recv_job(worker)
            worker.close()  # mid-lease death, attempt burned
        header, _ = recv_message(client)
        assert header["type"] == "result" and not header["ok"]
        assert "2 attempt(s)" in header["error"]
        assert recv_message(client)[0]["type"] == "done"
        assert coordinator.stats.jobs_failed == 1
        client.close()


# ----------------------------------------------------------------------
# Broadcaster: one snapshot per tick, shared across subscribers
# ----------------------------------------------------------------------
def test_broadcaster_builds_one_snapshot_per_tick_not_per_subscriber():
    """5 subscribers at the same period: updates fan out per
    subscriber, snapshots are built once per broadcast round."""
    n_subs = 5
    with Coordinator() as coordinator:
        subs = []
        for i in range(n_subs):
            sock = _fake_client(coordinator.address, name=f"sub-{i}")
            send_message(sock, {"type": "subscribe", "period": 0.1})
            header, _ = recv_message(sock)
            assert header["type"] == "subscribed"
            subs.append(sock)
        core = coordinator.core
        built_before = core.snapshots_built
        sent_before = core.status_updates_sent
        # Let every subscriber receive a handful of pushes.
        for sock in subs:
            for _ in range(3):
                header, _ = recv_message(sock)
                assert header["type"] == "status_update"
        built = core.snapshots_built - built_before
        sent = core.status_updates_sent - sent_before
        assert built >= 3
        assert sent >= 3 * n_subs
        # The regression bound: construction tracks broadcast rounds
        # (every round served all 5 due subscribers from one snapshot),
        # NOT rounds x subscribers.
        assert built * (n_subs - 1) < sent
        for sock in subs:
            sock.close()


# ----------------------------------------------------------------------
# Concurrency smoke: hundreds of idle clients on one loop
# ----------------------------------------------------------------------
def test_hundred_concurrent_idle_clients_echo_status():
    """100 simultaneously-open client connections, all answered; a
    status round-trip stays live underneath them.  (The 1000-client
    ramp with latency bounds runs in benchmarks/hotpath.py.)"""
    from concurrent.futures import ThreadPoolExecutor

    with Coordinator() as coordinator:
        socks = []
        try:
            def dial(i):
                return _fake_client(coordinator.address, name=f"idle-{i}")

            with ThreadPoolExecutor(max_workers=16) as pool:
                socks = list(pool.map(dial, range(100)))
            status = coordinator.status()
            assert status["clients"] == 100
            # Echo round-trip under the idle herd.
            probe = socks[0]
            send_message(probe, {"type": "status"})
            header, _ = recv_message(probe)
            assert header["type"] == "status"
            assert header["status"]["clients"] == 100
        finally:
            for sock in socks:
                sock.close()
        _wait_until(lambda: coordinator.status()["clients"] == 0,
                    what="idle clients to drain")


def test_batched_job_frames_preserve_result_order():
    """A worker fed job_batch frames returns results that map_jobs
    still orders correctly."""
    with LocalCluster(n_workers=1, slots=16) as cluster:
        cluster.wait_for_workers()
        values = cluster.runner().map_jobs(
            sleepy_echo, [{"value": i} for i in range(64)])
        assert values == list(range(64))


def test_request_stop_before_run_exits_promptly():
    """A stop requested before the loop ever runs must still be
    honoured: run() has to observe the pre-set _stopping flag instead
    of waiting forever on a fresh event."""
    import asyncio

    from repro.dist.aiobroker import AsyncCoordinator

    listener = socket.create_server(("127.0.0.1", 0), backlog=8)
    listener.setblocking(False)
    core = AsyncCoordinator(listener)
    core.request_stop()

    async def main():
        await asyncio.wait_for(core.run(), timeout=5.0)

    asyncio.run(main())


def test_job_batch_grants_split_at_the_byte_budget(monkeypatch):
    """A grant round whose payloads sum past BATCH_BYTES_BUDGET ships
    as several job_batch frames, each within the budget -- one giant
    frame would trip the pack_message cap and kill the dispatch."""
    from repro.dist import protocol as protocol_mod

    monkeypatch.setattr(protocol_mod, "BATCH_BYTES_BUDGET", 4096)
    with Coordinator() as coordinator:
        worker = _fake_worker(coordinator.address, slots=8)
        client = _fake_client(coordinator.address)
        _submit(client, ["x" * 1500 for _ in range(8)])
        got, frames = 0, 0
        while got < 8:
            header, payload = recv_message(worker)
            if header["type"] == "job_batch":
                blobs = unpack_blob_list(payload)
                assert len(blobs) == len(header["jobs"])
                assert sum(len(b) for b in blobs) <= 4096
                got += len(blobs)
            else:
                assert header["type"] == "job"
                got += 1
            frames += 1
        assert frames > 1  # the round really split, all jobs arrived
        client.close(), worker.close()


def test_client_driven_shutdown_sets_stopped_event():
    """The facade's _stopped event fires on a client shutdown frame
    (the CLI's serve_forever unblocks on it)."""
    coordinator = Coordinator().start()
    client = _fake_client(coordinator.address)
    send_message(client, {"type": "shutdown"})
    header, _ = recv_message(client)
    assert header["type"] == "stopping"
    _wait_until(coordinator._stopped.is_set, what="stop event")
    client.close()
    coordinator.stop()


# ----------------------------------------------------------------------
# Multi-tenant parity: fair-share scheduling must not touch results
# ----------------------------------------------------------------------
def test_three_tenant_mixed_weights_byte_identical_to_solo():
    """Three tenants at weights 1/2/4 share one fleet concurrently;
    each tenant's summary and records are byte-identical to its own
    solo serial run.  The arbiter may reorder *grants* freely --
    determinism lives in (scenario, seed), never in scheduling."""
    import json

    from repro.scenarios import CampaignRunner, Scenario, sweep
    from repro.scenarios.stock import fast_hil

    def grid(tag, seeds):
        base = Scenario(f"tenant-{tag}", hil=fast_hil(),
                        duration_sec=2.0)
        return sweep([base], seeds=seeds)

    tenants = [("w1", 1.0, [11, 12]), ("w2", 2.0, [21, 22]),
               ("w4", 4.0, [41, 42])]
    solo = {tag: CampaignRunner(parallel=False).run(grid(tag, seeds))
            for tag, _w, seeds in tenants}
    shared = {}
    with LocalCluster(n_workers=2, slots=2) as cluster:
        cluster.wait_for_workers()

        def run_tenant(tag, weight, seeds):
            shared[tag] = cluster.runner(
                weight=weight, name=tag).run(grid(tag, seeds))

        threads = [threading.Thread(target=run_tenant, args=t)
                   for t in tenants]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
            assert not t.is_alive()
    for tag, _w, _seeds in tenants:
        assert not shared[tag].failed
        assert json.dumps(shared[tag].summary, sort_keys=True) == \
            json.dumps(solo[tag].summary, sort_keys=True)
        assert json.dumps([r["metrics"] for r in shared[tag].records],
                          sort_keys=True) == \
            json.dumps([r["metrics"] for r in solo[tag].records],
                       sort_keys=True)
