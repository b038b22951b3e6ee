"""Batched frames: the entry framing, write serialization and
byte-budget chunking.

``protocol.entries_frame``/``frame_entries`` are the one place a
job/result entry list becomes a plain or a batch frame and back; they
round-trip here directly.  Two failure modes the batch fast path must
not reintroduce:

- **interleaved writes**: the worker's heartbeat thread and its result
  flusher share one socket; two threads inside ``sendall()`` at once
  can interleave a heartbeat into the middle of a multi-part result
  frame and corrupt the stream (the coordinator then drops the worker
  and requeues its leases).  Every write must go through one wire lock.
- **unbounded coalescing**: the outbox batches without limit, but N
  individually-sendable results concatenated can exceed the frame cap
  ``pack_message`` enforces -- batches must flush in budget-bounded
  chunks (``protocol.split_batch``), with a per-frame fallback if a
  chunk still packs past the cap.
"""

import socket
import threading
import time

import pytest

from repro.dist import LocalCluster
from repro.dist import protocol as protocol_mod
from repro.dist import worker as worker_mod
from repro.dist.cluster import sleepy_echo
from repro.dist.protocol import (
    ProtocolError,
    entries_frame,
    frame_entries,
    pack_blob_list,
    recv_message,
    send_message,
    split_batch,
    unpack_blob_list,
)
from repro.dist.worker import WorkerAgent


# ----------------------------------------------------------------------
# entries_frame / frame_entries over a real socket pair
# ----------------------------------------------------------------------
def _over_the_wire(header, payload):
    a, b = socket.socketpair()
    b.settimeout(10.0)
    try:
        send_message(a, header, payload)
        return recv_message(b)
    finally:
        a.close(), b.close()


def test_lone_entry_ships_as_the_plain_frame():
    meta = {"job_id": "c1b1:j0", "attempt": 2}
    header, payload = entries_frame("job", [(meta, b"blob")])
    assert header == {"type": "job", "job_id": "c1b1:j0", "attempt": 2}
    assert payload == b"blob"
    assert meta == {"job_id": "c1b1:j0", "attempt": 2}  # not mutated
    received = frame_entries(*_over_the_wire(header, payload))
    assert [(m["job_id"], m["attempt"], bytes(blob))
            for m, blob in received] == [("c1b1:j0", 2, b"blob")]


def test_three_entries_ship_as_one_batch_frame():
    entries = [({"job_id": "j0", "attempt": 1, "ok": True}, b"zero"),
               ({"job_id": "j1", "attempt": 1, "ok": False,
                 "retryable": False, "error": "boom"}, None),
               ({"job_id": "j2", "attempt": 3, "ok": True}, b"two")]
    header, payload = entries_frame("result", entries)
    assert header == {"type": "result_batch",
                      "results": [meta for meta, _ in entries]}
    received = frame_entries(*_over_the_wire(header, payload))
    assert [meta for meta, _ in received] == [meta for meta, _ in entries]
    # The None payload travels as an empty blob.
    assert [bytes(blob) for _, blob in received] == [b"zero", b"", b"two"]


@pytest.mark.parametrize("kind,field", [("job_batch", "jobs"),
                                        ("result_batch", "results")])
def test_batch_blob_count_must_match_meta_count(kind, field):
    header = {"type": kind, field: [{"job_id": "j0"}, {"job_id": "j1"}]}
    with pytest.raises(ProtocolError):
        frame_entries(header, memoryview(pack_blob_list([b"only one"])))


# ----------------------------------------------------------------------
# split_batch unit behavior
# ----------------------------------------------------------------------
def test_split_batch_preserves_order_and_respects_budget():
    items = list(range(10))
    chunks = split_batch(items, lambda _i: 100, budget=250)
    assert [i for chunk in chunks for i in chunk] == items
    assert all(len(chunk) == 2 for chunk in chunks)


def test_split_batch_oversized_item_ships_alone():
    sizes = [10, 999, 10, 10]
    chunks = split_batch(sizes, lambda s: s, budget=100)
    assert chunks == [[10], [999], [10, 10]]


def test_split_batch_single_chunk_under_budget():
    assert split_batch([1, 2, 3], lambda s: s, budget=100) == [[1, 2, 3]]
    assert split_batch([], lambda s: s, budget=100) == []


def test_split_batch_default_budget_resolves_at_call_time(monkeypatch):
    monkeypatch.setattr(protocol_mod, "BATCH_BYTES_BUDGET", 5)
    assert split_batch([4, 4], lambda s: s) == [[4], [4]]


# ----------------------------------------------------------------------
# Worker wire lock: heartbeat vs. flusher on one socket
# ----------------------------------------------------------------------
class _OverlapDetectingSock:
    """A fake socket whose ``sendall`` records concurrent entries --
    any overlap means two threads were writing the wire at once."""

    def __init__(self):
        self._guard = threading.Lock()
        self._in_flight = 0
        self.max_in_flight = 0
        self.frames = 0

    def sendall(self, data):
        with self._guard:
            self._in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self._in_flight)
        time.sleep(0.001)  # widen the race window a real sendall has
        with self._guard:
            self._in_flight -= 1
            self.frames += 1


def test_heartbeat_and_result_flush_never_interleave_on_the_wire():
    agent = WorkerAgent("127.0.0.1:0", processes=0)
    sock = _OverlapDetectingSock()
    agent._sock = sock
    stop = threading.Event()

    def beat():
        while not stop.is_set():
            agent._send({"type": "heartbeat"})

    heartbeat = threading.Thread(target=beat, daemon=True)
    heartbeat.start()
    try:
        for i in range(100):
            agent._send_result_batched(
                {"job_id": f"j{i}", "attempt": 1, "ok": True}, b"x" * 700)
    finally:
        stop.set()
        heartbeat.join(timeout=10)
    assert sock.frames >= 100
    assert sock.max_in_flight == 1


# ----------------------------------------------------------------------
# Worker flush chunking + per-frame fallback
# ----------------------------------------------------------------------
def _batch_entries(n, payload_bytes=1000):
    return [({"job_id": f"j{i}", "attempt": 1, "ok": True},
             b"r" * payload_bytes) for i in range(n)]


def test_flush_splits_outbox_past_the_byte_budget(monkeypatch):
    monkeypatch.setattr(protocol_mod, "BATCH_BYTES_BUDGET", 2048)
    a, b = socket.socketpair()
    b.settimeout(10.0)
    agent = WorkerAgent("127.0.0.1:0", processes=0)
    agent._sock = a
    agent._flush_results(_batch_entries(10))
    seen, frames = [], 0
    while len(seen) < 10:
        header, payload = recv_message(b)
        assert header["type"] == "result_batch"
        blobs = unpack_blob_list(payload)
        assert sum(len(blob) for blob in blobs) <= 2048
        seen.extend(meta["job_id"] for meta in header["results"])
        frames += 1
    assert frames == 5  # 2 x 1000B per chunk under the 2048B budget
    assert seen == [f"j{i}" for i in range(10)]
    a.close(), b.close()


def test_flush_falls_back_to_single_frames_on_protocol_error(monkeypatch):
    real_send = protocol_mod.send_message

    def batch_rejecting_send(sock, header, payload=None):
        if header.get("type") == "result_batch":
            raise ProtocolError("synthetic oversized frame")
        real_send(sock, header, payload)

    monkeypatch.setattr(worker_mod, "send_message", batch_rejecting_send)
    a, b = socket.socketpair()
    b.settimeout(10.0)
    agent = WorkerAgent("127.0.0.1:0", processes=0)
    agent._sock = a
    agent._flush_results(_batch_entries(3))
    for i in range(3):
        header, payload = recv_message(b)
        assert header["type"] == "result"
        assert header["job_id"] == f"j{i}"
        assert bytes(payload) == b"r" * 1000
    a.close(), b.close()


def test_failed_results_without_payload_batch_cleanly():
    a, b = socket.socketpair()
    b.settimeout(10.0)
    agent = WorkerAgent("127.0.0.1:0", processes=0)
    agent._sock = a
    agent._flush_results([
        ({"job_id": "j0", "attempt": 1, "ok": True}, b"value"),
        ({"job_id": "j1", "attempt": 1, "ok": False,
          "retryable": False, "error": "boom"}, None),
    ])
    header, payload = recv_message(b)
    assert header["type"] == "result_batch"
    assert [m["job_id"] for m in header["results"]] == ["j0", "j1"]
    assert unpack_blob_list(payload) == [b"value", b""]
    a.close(), b.close()


# ----------------------------------------------------------------------
# End to end: a whole campaign under a tiny budget still round-trips
# ----------------------------------------------------------------------
def test_campaign_round_trips_with_tiny_batch_budget(monkeypatch):
    """Thread-mode cluster with the budget shrunk below single-digit
    job payloads: every batched frame (submit relay, job_batch grants,
    worker result flushes, broker result_batch delivery) must chunk --
    and the campaign must still return every value in order."""
    monkeypatch.setattr(protocol_mod, "BATCH_BYTES_BUDGET", 4096)
    with LocalCluster(n_workers=2, slots=4) as cluster:
        cluster.wait_for_workers()
        jobs = [{"value": "v" * 1500 + f"-{i:02d}"} for i in range(32)]
        values = cluster.runner().map_jobs(sleepy_echo, jobs)
        assert values == [j["value"] for j in jobs]
