"""Compressed-frame protocol tests: the zlib flag bit and the
raw/compressed interop on one connection.

The load-bearing invariant is that *receivers always accept both
forms*: the compression flag is carried per-frame in the length
prefix (small and incompressible bodies ship raw), so any mix of raw
and compressed frames on one connection round-trips -- hypothesis
drives random headers/payloads through every mix.  The guard tests pin
the failure taxonomy: truncated zlib streams, zlib bombs and oversized
frames are :class:`ProtocolError` (a broken peer), never a hang or an
allocation.
"""

import json
import socket
import struct
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dist.protocol import (
    COMPRESS_FLAG,
    COMPRESS_MIN_BYTES,
    MAX_FRAME_BYTES,
    ProtocolError,
    pack_message,
    recv_message,
)


def _pipe() -> tuple[socket.socket, socket.socket]:
    return socket.socketpair()


def _raw_frame(header, payload=None) -> bytes:
    """The uncompressed encoding of a frame, whatever its size (what
    ``pack_message`` emits for small or incompressible bodies)."""
    head = json.dumps(header, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")
    body = struct.pack(">I", len(head)) + head + (payload or b"")
    return struct.pack(">I", len(body)) + body


# ----------------------------------------------------------------------
# The frame itself
# ----------------------------------------------------------------------
def test_large_frame_actually_compresses_on_the_wire():
    payload = b"A" * 100_000  # maximally compressible
    packed = pack_message({"type": "result"}, payload)
    assert len(packed) < len(_raw_frame({"type": "result"}, payload)) // 10
    assert struct.unpack(">I", packed[:4])[0] & COMPRESS_FLAG


def test_small_frame_ships_raw():
    packed = pack_message({"type": "heartbeat"})
    assert not struct.unpack(">I", packed[:4])[0] & COMPRESS_FLAG
    assert packed == _raw_frame({"type": "heartbeat"})


def test_incompressible_frame_ships_raw():
    import random

    payload = random.Random(7).randbytes(8 * COMPRESS_MIN_BYTES)
    packed = pack_message({"type": "result"}, payload)
    assert not struct.unpack(">I", packed[:4])[0] & COMPRESS_FLAG


# ----------------------------------------------------------------------
# Interop (hypothesis): any mix of raw and compressed frames round-trips
# ----------------------------------------------------------------------
_headers = st.fixed_dictionaries(
    {"type": st.sampled_from(["result", "job", "status_update"])},
    optional={
        "job_id": st.text(max_size=20),
        "ok": st.booleans(),
        "attempt": st.integers(min_value=0, max_value=10),
        "error": st.text(max_size=200),
        "nested": st.dictionaries(st.text(max_size=8),
                                  st.integers(), max_size=4),
    })

_payloads = st.one_of(
    st.none(),
    st.binary(max_size=64),
    # Compressible bodies (repeated structure) past the threshold.
    st.binary(min_size=1, max_size=64).map(lambda b: b * 200),
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(header=_headers, payload=_payloads,
       sender_flags=st.lists(st.booleans(), min_size=1, max_size=4))
def test_any_flag_mix_roundtrips_on_one_connection(header, payload,
                                                   sender_flags):
    """One connection, several frames, each independently compressed or
    not: the receiver reassembles every frame identically."""
    a, b = _pipe()
    try:
        for flag in sender_flags:
            a.sendall(pack_message(header, payload) if flag
                      else _raw_frame(header, payload))
        for flag in sender_flags:
            got_header, got_payload = recv_message(b)
            assert got_header == header
            assert got_payload == (payload or b"")
    finally:
        a.close(), b.close()


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(payload=st.binary(min_size=1, max_size=32).map(lambda b: b * 300))
def test_compressed_and_raw_encodings_parse_identically(payload):
    """pack_message's frame (compressed once past the floor) and the raw
    encoding of the same frame decode identically."""
    header = {"type": "result", "ok": True}
    for packed in (pack_message(header, payload),
                   _raw_frame(header, payload)):
        a, b = _pipe()
        try:
            a.sendall(packed)
            got_header, got_payload = recv_message(b)
            assert got_header == header
            assert got_payload == payload
        finally:
            a.close(), b.close()


# ----------------------------------------------------------------------
# Rejection guards
# ----------------------------------------------------------------------
def _send_compressed_body(sock: socket.socket, body: bytes) -> None:
    sock.sendall(struct.pack(">I", len(body) | COMPRESS_FLAG) + body)


def test_truncated_zlib_stream_rejected():
    frame = pack_message({"type": "result"}, b"x" * 4096)
    prefix = struct.unpack(">I", frame[:4])[0]
    assert prefix & COMPRESS_FLAG, "test needs a compressed frame"
    body = frame[4:-10]  # drop the stream's tail
    a, b = _pipe()
    try:
        _send_compressed_body(a, body)
        with pytest.raises(ProtocolError):
            recv_message(b)
    finally:
        a.close(), b.close()


def test_garbage_zlib_stream_rejected():
    a, b = _pipe()
    try:
        _send_compressed_body(a, b"\xff\xfenot zlib at all")
        with pytest.raises(ProtocolError):
            recv_message(b)
    finally:
        a.close(), b.close()


def test_zlib_bomb_rejected_without_allocating(monkeypatch):
    """A tiny zlib stream inflating past the cap dies mid-stream.
    The cap is monkeypatched down so the test's own allocations stay
    small; the guard logic is identical at the real 256 MB."""
    import repro.dist.protocol as protocol

    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1 << 16)
    bomb = zlib.compress(b"\x00" * (1 << 20), 9)  # 1 MiB -> ~1 KiB
    assert len(bomb) <= protocol.MAX_FRAME_BYTES
    a, b = _pipe()
    try:
        _send_compressed_body(a, bomb)
        with pytest.raises(ProtocolError):
            recv_message(b)
    finally:
        a.close(), b.close()


def test_oversized_compressed_prefix_rejected(monkeypatch):
    import repro.dist.protocol as protocol

    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1 << 16)
    a, b = _pipe()
    try:
        a.sendall(struct.pack(">I", ((1 << 16) + 1) | COMPRESS_FLAG))
        with pytest.raises(ProtocolError):
            recv_message(b)
    finally:
        a.close(), b.close()


def test_zero_length_compressed_frame_rejected():
    a, b = _pipe()
    try:
        a.sendall(struct.pack(">I", COMPRESS_FLAG))
        with pytest.raises(ProtocolError):
            recv_message(b)
    finally:
        a.close(), b.close()


def test_pack_rejects_bodies_over_the_cap(monkeypatch):
    import repro.dist.protocol as protocol

    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1 << 12)
    # Compression cannot rescue an oversized body (8 KiB of b"x"
    # deflates to a few bytes): the cap applies to the decompressed
    # size, which is what the receiver would check.
    with pytest.raises(ProtocolError):
        pack_message({"type": "result"}, b"x" * (1 << 13))


def test_max_frame_is_far_below_the_flag_bit():
    """The flag bit must never collide with a legal length."""
    assert MAX_FRAME_BYTES < COMPRESS_FLAG
