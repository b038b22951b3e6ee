"""Length-prefixed JSON/pickle framing for the distributed runner.

Every message on a coordinator/worker/client socket is one frame::

    [4-byte BE total length][4-byte BE header length][header][payload]

The header is a UTF-8 JSON object carrying the message ``type`` plus
small metadata fields (job ids, counters, flags); the payload is an
optional pickle blob for the values that are not JSON-able -- the job
callables and arguments shipped to workers and the result objects
shipped back.  Splitting the two keeps routing decisions cheap (the
coordinator never unpickles a job it merely relays) and keeps the
payload format the same one the local ``CampaignRunner`` pool already
relies on, so anything that runs locally ships over the wire unchanged.

**Compression.**  The top bit of the total-length prefix
(:data:`COMPRESS_FLAG`) marks a frame whose body (header-length word,
header and payload together) is one zlib stream; the prefix then gives
the *compressed* length.  Senders deflate every body of at least
:data:`COMPRESS_MIN_BYTES` that actually shrinks and ship the rest
raw, so receivers always accept both forms -- the flag is per-frame,
not per-connection, and is all the framing a decoder needs.

**Versioning.**  Every peer ships from the same source tree, so there
is nothing to negotiate: the ``hello`` and ``welcome`` frames both
carry :data:`PROTOCOL_VERSION`, and the coordinator answers a hello
with any other version (or none) with an ``error`` frame naming both
versions, then closes the connection.

Frames are capped at :data:`MAX_FRAME_BYTES` (before *and* after
decompression) so a corrupt or hostile length prefix -- or a zlib bomb
-- cannot make a peer allocate unbounded memory.  The blocking helpers
raise :class:`ConnectionClosed` on EOF, which every loop in the
subsystem treats as "the peer is gone" rather than an error in the
stream itself.  :func:`_recv_exact` fills one preallocated buffer via
``recv_into`` (no per-chunk copies, no join) and the parsed payload is
returned as a :class:`memoryview` over that buffer, so a relay -- the
coordinator forwarding job blobs it never unpickles -- touches each
byte exactly once.

Security note: pickle payloads execute code on unpickling, so the
protocol is for trusted clusters (localhost, a lab LAN, your own
fleet) -- the same trust boundary as the local process pool.

Frame types (the ``type`` field of every header) are enumerated as
module constants below.  Every peer opens with ``hello`` and is
answered ``welcome`` (or ``error``); :func:`connect` is that dial and
handshake for every peer.  Clients drive ``submit``/
``status``/``shutdown``/``goodbye`` and may opt into the live status
stream with ``subscribe`` (acked by ``subscribed``; pushed frames are
``status_update`` at the subscriber's requested period until the
client leaves); a submit is answered by ``result`` frames and one
``done``, or by ``error``, and a shutdown by ``stopping``.  Workers
receive ``job``/``retire``/``shutdown`` and send ``heartbeat``/
``result``/``goodbye``.

Jobs and results travel as ``(meta, payload)`` entries.
:func:`entries_frame` is the one place that picks their framing: a
lone entry ships as a plain ``job``/``result`` frame with its meta in
the header, and two or more as one ``job_batch``/``result_batch``
frame that carries N leases or N results in one syscall.
:func:`frame_entries` is its inverse on the receiving side.
"""

from __future__ import annotations

import importlib
import json
import pickle
import socket
import struct
import time
import zlib
from typing import Any, Callable, Sequence

MAX_FRAME_BYTES = 256 * 1024 * 1024
"""Upper bound on one frame body, compressed or decompressed; a length
prefix beyond this is corruption, a zlib stream expanding past it is a
bomb."""

COMPRESS_FLAG = 0x8000_0000
"""Top bit of the total-length prefix: the body is one zlib stream.
``MAX_FRAME_BYTES`` is far below 2**31, so the bit is always free."""

COMPRESS_MIN_BYTES = 4096
"""Bodies below this ship raw.
The floor sits well above the deflate break-even on purpose: the
frame-relay meter showed level-1 zlib costing ~8% end-to-end on small
batched result frames (localhost, where bytes are nearly free), while
the payloads compression exists for -- wide-grid record pickles, whole
submit envelopes -- run tens of KB to MB, far past this floor."""

COMPRESS_LEVEL = 1
"""zlib level: the wire is usually localhost/LAN, so favour speed; the
wide-grid record pickles (dicts of floats with repeated keys) still
shrink 2-4x at level 1."""

BATCH_BYTES_BUDGET = MAX_FRAME_BYTES // 2
"""Soft cap on the payload bytes coalesced into one batched frame.
Each entry in a job/result batch was individually sendable, but N of
them concatenated can exceed the :data:`MAX_FRAME_BYTES` cap
:func:`pack_message` enforces -- so batch builders chunk with
:func:`split_batch` at half the cap, leaving the other half as
headroom for per-entry metadata headers."""


def split_batch(items: Sequence[Any], size_of: Callable[[Any], int],
                budget: int | None = None) -> list[list[Any]]:
    """Greedily chunk ``items`` so each chunk's cumulative ``size_of``
    stays within ``budget`` (default :data:`BATCH_BYTES_BUDGET`,
    resolved at call time so tests can shrink it).  Order is preserved
    and every chunk holds at least one item -- a single item larger
    than the budget ships alone, exactly as it would unbatched."""
    if budget is None:
        budget = BATCH_BYTES_BUDGET
    chunks: list[list[Any]] = []
    current: list[Any] = []
    current_bytes = 0
    for item in items:
        size = size_of(item)
        if current and current_bytes + size > budget:
            chunks.append(current)
            current, current_bytes = [], 0
        current.append(item)
        current_bytes += size
    if current:
        chunks.append(current)
    return chunks


DEFAULT_PORT = 7461
"""The coordinator's default TCP port (single source: the CLI, the
broker and address parsing all import it from here)."""

# The broker's defaults, here rather than in aiobroker so the CLI can
# build its parser without importing the broker (and asyncio).
DEFAULT_LEASE_TIMEOUT = 300.0
DEFAULT_WORKER_TIMEOUT = 15.0
DEFAULT_MAX_ATTEMPTS = 3

PROTOCOL_VERSION = 2
"""The wire version ``hello`` and ``welcome`` carry; a peer at any
other version is refused at the handshake.  Bump it with any change to
the frames."""

# Frame types, client-driven ...
MSG_HELLO = "hello"
MSG_SUBMIT = "submit"
MSG_STATUS = "status"
MSG_SUBSCRIBE = "subscribe"
MSG_SHUTDOWN = "shutdown"
MSG_GOODBYE = "goodbye"
# ... coordinator-driven ...
MSG_WELCOME = "welcome"
MSG_SUBSCRIBED = "subscribed"
MSG_STATUS_UPDATE = "status_update"
MSG_JOB = "job"
MSG_JOB_BATCH = "job_batch"
MSG_RESULT = "result"
MSG_DONE = "done"
MSG_STOPPING = "stopping"
MSG_ERROR = "error"
# "retire" asks a worker to drain and leave (the autoscaler's
# scale-down path): the worker finishes its in-flight leases, then
# says goodbye -- so shrinking the fleet never requeues work.
MSG_RETIRE = "retire"
# ... worker-driven.
MSG_HEARTBEAT = "heartbeat"
MSG_RESULT_BATCH = "result_batch"

# The header field that lists a batch frame's per-entry metas.
_BATCH_FIELDS = {MSG_JOB_BATCH: "jobs", MSG_RESULT_BATCH: "results"}

_LEN = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """A malformed frame (bad lengths, header not JSON, bad zlib)."""


class ConnectionClosed(ConnectionError):
    """The peer closed the socket (EOF mid-frame or between frames)."""


def pack_message(header: dict[str, Any],
                 payload: bytes | None = None) -> bytes:
    """One wire frame for ``header`` (+ optional pickle ``payload``).

    The body is deflated when it is big enough
    (:data:`COMPRESS_MIN_BYTES`) and actually shrinks; otherwise the
    raw form ships.
    """
    head = json.dumps(header, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")
    payload_len = len(payload) if payload is not None else 0
    body_len = _LEN.size + len(head) + payload_len
    if body_len > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {body_len} bytes exceeds cap")
    if body_len >= COMPRESS_MIN_BYTES:
        if payload:
            raw = b"".join((_LEN.pack(len(head)), head, payload))
        else:
            raw = _LEN.pack(len(head)) + head
        deflated = zlib.compress(raw, COMPRESS_LEVEL)
        if len(deflated) < len(raw):
            return _LEN.pack(len(deflated) | COMPRESS_FLAG) + deflated
        return _LEN.pack(body_len) + raw
    parts = [_LEN.pack(body_len), _LEN.pack(len(head)), head]
    if payload:
        parts.append(payload)
    return b"".join(parts)


def send_message(sock: socket.socket, header: dict[str, Any],
                 payload: bytes | None = None) -> None:
    sock.sendall(pack_message(header, payload))


def _recv_exact(sock: socket.socket, n: int) -> memoryview:
    """Read exactly ``n`` bytes into one preallocated buffer via
    ``recv_into`` (no per-chunk ``bytes`` objects, no final join) or
    raise :class:`ConnectionClosed`.  Returns a memoryview so callers
    can slice without copying."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        received = sock.recv_into(view[got:])
        if not received:
            raise ConnectionClosed(f"peer closed with {n - got} of "
                                   f"{n} frame bytes outstanding")
        got += received
    return view


def _inflate_body(body: memoryview | bytes) -> memoryview:
    """Decompress one frame body with the cap enforced mid-stream, so
    a zlib bomb fails before it allocates."""
    stream = zlib.decompressobj()
    try:
        raw = stream.decompress(body, MAX_FRAME_BYTES + 1)
    except zlib.error as exc:
        raise ProtocolError(f"bad compressed frame: {exc}") from exc
    if len(raw) > MAX_FRAME_BYTES or stream.unconsumed_tail:
        raise ProtocolError("compressed frame inflates past the cap")
    if not stream.eof:
        raise ProtocolError("truncated compressed frame body")
    return memoryview(raw)


def _parse_body(body: memoryview,
                ) -> tuple[dict[str, Any], memoryview]:
    head_len = _LEN.unpack_from(body)[0]
    if _LEN.size + head_len > len(body):
        raise ProtocolError(f"header length {head_len} exceeds frame")
    try:
        header = json.loads(bytes(body[_LEN.size:_LEN.size + head_len]))
    except ValueError as exc:
        raise ProtocolError(f"header is not JSON: {exc}") from exc
    if not isinstance(header, dict) or "type" not in header:
        raise ProtocolError("header must be an object with a 'type'")
    return header, body[_LEN.size + head_len:]


def _check_prefix(prefix_word: int) -> tuple[int, bool]:
    """Split a length prefix into ``(body_len, compressed)`` with the
    plausibility guards shared by the sync and async receive paths."""
    compressed = bool(prefix_word & COMPRESS_FLAG)
    body_len = prefix_word & ~COMPRESS_FLAG
    floor = 1 if compressed else _LEN.size
    if body_len < floor or body_len > MAX_FRAME_BYTES:
        raise ProtocolError(f"implausible frame length {prefix_word}")
    return body_len, compressed


def recv_message(sock: socket.socket,
                 ) -> tuple[dict[str, Any], memoryview]:
    """Next ``(header, payload)`` frame off ``sock`` (blocking).

    The payload is a :class:`memoryview` over the receive buffer --
    equality with ``bytes`` and ``pickle.loads`` work unchanged; call
    ``bytes(payload)`` only where a real copy is required (e.g. before
    pickling the blob into a process pool).
    """
    body_len, compressed = _check_prefix(
        _LEN.unpack(_recv_exact(sock, _LEN.size))[0])
    body = _recv_exact(sock, body_len)
    if compressed:
        body = _inflate_body(body)
    return _parse_body(body)


def import_attr(module: str, qualname: str) -> Any:
    """Resolve ``module.qualname`` by import -- the unpickle half of the
    client's ``__main__``-rebinding submit pickler (see
    ``runner._dumps_portable``); lives here so every worker can import
    it."""
    obj: Any = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def dumps_payload(value: Any) -> bytes:
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def loads_payload(payload: bytes | memoryview) -> Any:
    return pickle.loads(payload)


def pack_blob_list(blobs: Sequence[bytes | memoryview]) -> bytes:
    """Concatenate opaque blobs with 4-byte length prefixes.  Submit
    batches (and the batched job/result frames) use this instead of
    pickling a list, so the *broker* can split the envelope without
    ever unpickling client data -- only the workers (which execute the
    jobs anyway) unpickle the blobs.  Accepts memoryviews, so a relay
    repacks received blobs without copying them first."""
    parts: list[bytes | memoryview] = []
    for blob in blobs:
        parts.append(_LEN.pack(len(blob)))
        parts.append(blob)
    return b"".join(parts)


def unpack_blob_list(data: bytes | memoryview) -> list[memoryview]:
    """Split a blob-list envelope into zero-copy memoryview slices."""
    view = memoryview(data) if not isinstance(data, memoryview) else data
    blobs: list[memoryview] = []
    offset = 0
    total = len(view)
    while offset < total:
        if offset + _LEN.size > total:
            raise ProtocolError("truncated blob-list envelope")
        length = _LEN.unpack_from(view, offset)[0]
        offset += _LEN.size
        if offset + length > total:
            raise ProtocolError("blob length exceeds envelope")
        blobs.append(view[offset:offset + length])
        offset += length
    return blobs


Entry = tuple[dict[str, Any], bytes | memoryview | None]
"""One job or result on the wire: its meta fields and its opaque
payload (``None`` for a failed result)."""


def entry_size(entry: Entry) -> int:
    """Payload bytes one entry adds to a batch frame (the ``size_of``
    the senders hand :func:`split_batch`)."""
    payload = entry[1]
    return len(payload) if payload is not None else 0


def entries_frame(kind: str, entries: Sequence[Entry],
                  ) -> tuple[dict[str, Any], bytes | memoryview | None]:
    """The ``(header, payload)`` frame that carries ``entries`` of
    ``kind`` (``job`` or ``result``).

    A lone entry ships as the plain frame, its meta merged into the
    header.  Two or more ship as the ``<kind>_batch`` frame: the metas
    listed in the header and the payloads as one blob list, a ``None``
    payload as an empty blob.  The lone-entry form saves the blob-list
    wrapping on the one-slot workers' common case."""
    if len(entries) == 1:
        meta, payload = entries[0]
        return dict(meta, type=kind), payload
    batch_kind = f"{kind}_batch"
    return ({"type": batch_kind,
             _BATCH_FIELDS[batch_kind]: [meta for meta, _ in entries]},
            pack_blob_list([payload if payload is not None else b""
                            for _, payload in entries]))


def frame_entries(header: dict[str, Any], payload: memoryview,
                  ) -> list[tuple[dict[str, Any], memoryview]]:
    """The ``(meta, blob)`` entries a ``job``/``result`` frame or its
    batch twin carries (the inverse of :func:`entries_frame`; a plain
    frame's meta is its header).  Raises :class:`ProtocolError` when a
    batch's blob count differs from its meta count."""
    field = _BATCH_FIELDS.get(header["type"])
    if field is None:
        return [(header, payload)]
    metas = header.get(field, [])
    blobs = unpack_blob_list(payload)
    if len(blobs) != len(metas):
        raise ProtocolError(f"{header['type']} carries {len(blobs)} "
                            f"blobs for {len(metas)} entries")
    return list(zip(metas, blobs))


def parse_address(address: str, default_port: int = DEFAULT_PORT,
                  ) -> tuple[str, int]:
    """``"host:port"`` / ``"host"`` / ``":port"`` -> ``(host, port)``.

    IPv6 literals use bracket syntax (``[::1]:7461``); a bare literal
    with multiple colons (``::1``) is taken as host-only.
    """
    if address.startswith("["):
        host, bracket, rest = address.partition("]")
        host = host[1:]
        if not bracket:
            raise ValueError(f"unterminated '[' in address {address!r}")
        if rest.startswith(":"):
            return (host or "127.0.0.1"), int(rest[1:])
        return (host or "127.0.0.1"), default_port
    if address.count(":") > 1:
        return address, default_port  # bare IPv6 literal, no port
    host, sep, port = address.rpartition(":")
    if not sep:
        return (address or "127.0.0.1"), default_port
    return (host or "127.0.0.1"), int(port)


def connect(address: str, role: str, name: str = "",
            timeout: float = 10.0, retry_period: float = 0.1,
            slots: int | None = None) -> socket.socket:
    """Dial a coordinator and complete the hello/welcome handshake,
    retrying the dial until ``timeout`` so freshly started peers can
    race the listener up.  Shared by the worker agent, the client
    runner, the CLI and the obs bridge.

    Raises :class:`ConnectionError` when the coordinator answers with
    an ``error`` frame (a protocol version it does not speak) or
    welcomes at a version other than :data:`PROTOCOL_VERSION`.
    """
    host, port = parse_address(address)
    deadline = time.monotonic() + timeout
    last_error: Exception | None = None
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            break
        except OSError as exc:
            last_error = exc
            if time.monotonic() >= deadline:
                raise ConnectionError(
                    f"could not reach coordinator at {address}: "
                    f"{last_error}") from last_error
            time.sleep(retry_period)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    hello: dict[str, Any] = {"type": MSG_HELLO, "role": role, "name": name,
                             "version": PROTOCOL_VERSION}
    if slots is not None:
        hello["slots"] = slots
    try:
        send_message(sock, hello)
        reply, _payload = recv_message(sock)
    except BaseException:
        sock.close()
        raise
    if reply.get("type") == MSG_ERROR:
        sock.close()
        raise ConnectionError(f"coordinator at {address} refused the "
                              f"handshake: {reply.get('error')}")
    if (reply.get("type") != MSG_WELCOME
            or reply.get("version") != PROTOCOL_VERSION):
        sock.close()
        raise ConnectionError(
            f"coordinator at {address} replied {reply.get('type')!r} at "
            f"protocol version {reply.get('version')!r}; this peer "
            f"speaks version {PROTOCOL_VERSION}")
    sock.settimeout(None)
    return sock
