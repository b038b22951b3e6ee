"""The asyncio-native coordinator core: one loop, thousands of peers.

The original broker was thread-per-connection -- simple to reason
about, but every peer cost two OS threads (reader + blocked writer)
and a slow client could stall a worker's result fan-in on its send
lock.  This module is the same leasing state machine rewritten onto a
single event loop:

- **one reader/writer task pair per peer**: the reader parses frames
  off an ``asyncio`` stream; the writer drains a bounded send queue,
  *coalescing* every frame already queued into one ``write()`` syscall
  before awaiting ``drain()`` -- so a worker being granted 32 leases
  or a client receiving a burst of results pays one syscall, not 32;
- **backpressure end to end**: send queues are bounded, ``await
  put()`` suspends the producing task when a peer falls behind, and
  ``drain()`` honours the transport's write watermark.  The status
  broadcaster is the one producer that must never block, so it uses a
  lossy ``put_nowait`` and unsubscribes peers that cannot keep up;
- **timers instead of threads**: the lease/heartbeat reaper and the
  status broadcaster are loop tasks, and the broadcaster builds **one**
  snapshot per tick no matter how many subscribers are due
  (``snapshots_built``/``status_updates_sent`` count both sides so a
  regression test can hold the ratio);
- **no locks**: every piece of broker state is touched only from the
  loop thread.  The synchronous :class:`~repro.dist.coordinator
  .Coordinator` facade marshals ``status()``/``stop()`` onto the loop
  via ``run_coroutine_threadsafe``.

Grant rounds and result bursts are framed by
:func:`~repro.dist.protocol.entries_frame` (one ``job_batch``/
``result_batch`` frame per round or burst, a plain ``job``/``result``
frame for a lone entry).  The handshake checks one
:data:`~repro.dist.protocol.PROTOCOL_VERSION`: a hello at any other
version (or none) gets an ``error`` frame and a closed connection.

**Fair-share scheduling.**  Pending jobs live in per-campaign queues
(one per client batch) drained by the weighted deficit-round-robin
arbiter in :mod:`repro.dist.fairshare` rather than one global FIFO: a
tenant's grant share tracks its declared ``weight`` (default 1: a
submit without one is a plain weight-1 tenant, which for a single
client is *exactly* the old FIFO order), a
late-arriving campaign starts earning grants immediately instead of
waiting out every earlier backlog, and a requeued crashed lease goes
back to the front of its **own** campaign's queue.

**Autoscaling.**  :meth:`AsyncCoordinator.set_autoscaler` attaches an
:class:`~repro.dist.autoscale.Autoscaler` evaluated on a loop timer
against the same status snapshot everything else reads; its driver
grows the fleet or asks the broker to *retire* workers --
drain-then-exit via the ``retire`` frame, so scale-down never requeues
in-flight work.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.dist.fairshare import FairScheduler, validate_weight
from repro.dist.protocol import (
    _LEN,
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_WORKER_TIMEOUT,
    MSG_DONE,
    MSG_ERROR,
    MSG_GOODBYE,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_JOB,
    MSG_RESULT,
    MSG_RESULT_BATCH,
    MSG_RETIRE,
    MSG_SHUTDOWN,
    MSG_STATUS,
    MSG_STATUS_UPDATE,
    MSG_STOPPING,
    MSG_SUBSCRIBE,
    MSG_SUBSCRIBED,
    MSG_SUBMIT,
    MSG_WELCOME,
    PROTOCOL_VERSION,
    ConnectionClosed,
    ProtocolError,
    _check_prefix,
    _inflate_body,
    _parse_body,
    entries_frame,
    entry_size,
    frame_entries,
    pack_message,
    split_batch,
    unpack_blob_list,
)

__all__ = ["AsyncCoordinator", "CoordinatorStats", "JobRecord", "Lease"]

LEASE_WAIT_WINDOW = 512
"""Recent lease queue-waits kept for the p50/p95 percentiles the
status snapshot (and through it the autoscale policy) reports."""

SEND_QUEUE_FRAMES = 1024
"""Per-peer bound on queued outbound frames; a producer hitting it
suspends (backpressure) instead of buffering without limit."""

COALESCE_BYTES = 1 << 20
"""Stop folding queued frames into one write() past this many bytes --
one syscall per megabyte is already amortized, and unbounded coalescing
would let a fast producer starve ``drain()``."""

BROADCAST_TICK = 0.25
"""The status broadcaster's timer period (subscriber periods are
honoured per-client on top of this resolution)."""


async def recv_message_async(reader: asyncio.StreamReader,
                             ) -> tuple[dict[str, Any], memoryview]:
    """The :func:`~repro.dist.protocol.recv_message` twin for asyncio
    streams (the per-peer reader tasks); same parsing, same error
    taxonomy.  It lives here, its one caller's module, so that the
    framing module does not import asyncio."""
    try:
        prefix = await reader.readexactly(_LEN.size)
        body_len, compressed = _check_prefix(_LEN.unpack(prefix)[0])
        body = memoryview(await reader.readexactly(body_len))
    except asyncio.IncompleteReadError as exc:
        raise ConnectionClosed(
            f"peer closed with {len(exc.partial)} partial frame bytes"
        ) from exc
    if compressed:
        body = _inflate_body(body)
    return _parse_body(body)


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample (0.0 when
    empty) -- plenty for a scaling signal; no interpolation needed."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[rank]


@dataclass
class JobRecord:
    """One submitted job: an opaque pre-pickled payload plus lease
    bookkeeping.  ``attempts`` counts lease *grants*, so a job seen by
    ``max_attempts`` workers without an answer is declared failed.

    ``key`` is the broker-internal identity
    (``c<client>b<batch>:<job_id>``): two clients are free to pick
    colliding job ids, and one client's sequential batches reuse them,
    so every queue, lease and wire frame between coordinator and
    workers uses the namespaced key -- a straggler result for a
    *previous* batch's job can then never settle the same id in a
    later batch.  Only the frames back to the owning client carry its
    original ``job_id``."""

    key: str
    job_id: str
    payload: bytes | memoryview
    client_id: int
    max_attempts: int
    attempts: int = 0
    # When the job entered the queue (monotonic); the gap to its first
    # lease grant is the queue-wait the status stream reports.
    submitted_at: float = 0.0
    # Workers that already lost/timed out this job: retries prefer
    # anyone else (falling back to them only when nobody else has a
    # free slot, so exclusion can never starve a job).
    excluded: set[int] = field(default_factory=set)
    # Fair-share lane: the campaign key (``c<client>b<batch>``) and the
    # tenant weight it was submitted under, so a requeue returns the
    # job to the front of its own campaign's queue.
    campaign: str = ""
    weight: float = 1.0


@dataclass
class Lease:
    job: JobRecord
    worker_id: int
    deadline: float
    # Which grant this lease represents; results echo it so a stale
    # frame from a previous attempt on the SAME worker cannot be
    # mistaken for the live one.
    attempt: int = 0


@dataclass
class CoordinatorStats:
    """Counters the status endpoint and tests read."""

    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    jobs_requeued: int = 0
    workers_dropped: int = 0
    # Workers asked to drain-and-exit by the autoscaler (or an
    # operator); their eventual disconnects count in workers_dropped
    # too, so dropped - retired approximates *unplanned* losses.
    workers_retired: int = 0
    results_ignored: int = 0
    # Autoscaler ticks that raised; the evaluation timer keeps running.
    autoscale_errors: int = 0


class _AioPeer:
    """One connection: streams and the bounded send queue its writer
    task drains with frame coalescing."""

    __slots__ = ("id", "name", "reader", "writer", "alive", "queue",
                 "writer_task")

    def __init__(self, peer_id: int, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, name: str) -> None:
        self.id = peer_id
        self.name = name
        self.reader = reader
        self.writer = writer
        self.alive = True
        self.queue: asyncio.Queue[bytes | None] = \
            asyncio.Queue(maxsize=SEND_QUEUE_FRAMES)
        self.writer_task: asyncio.Task | None = None

    async def send(self, header: dict[str, Any],
                   payload: bytes | memoryview | None = None) -> bool:
        """Queue one frame (suspending when the peer is backlogged).
        A dead peer just reports False -- its reader task owns the
        actual teardown, exactly like the threaded broker."""
        if not self.alive:
            return False
        frame = pack_message(header, payload)
        await self.queue.put(frame)
        return self.alive

    def try_send(self, header: dict[str, Any],
                 payload: bytes | memoryview | None = None) -> bool:
        """Lossy queue attempt for producers that must never block
        (the status broadcaster): False when dead or backlogged."""
        if not self.alive:
            return False
        frame = pack_message(header, payload)
        try:
            self.queue.put_nowait(frame)
        except asyncio.QueueFull:
            return False
        return True

    def close_queue(self) -> None:
        """Ask the writer task to flush what is queued and close."""
        try:
            self.queue.put_nowait(None)
        except asyncio.QueueFull:
            # Backlogged peer at shutdown: drop the backlog, keep the
            # sentinel so the writer still exits promptly.
            while True:
                try:
                    self.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
            self.queue.put_nowait(None)

    def abort(self) -> None:
        self.alive = False
        try:
            self.writer.transport.abort()
        except Exception:  # noqa: BLE001 - transport may be half-dead
            pass


class _AioWorker(_AioPeer):
    __slots__ = ("slots", "inflight", "last_seen", "leases_granted",
                 "lease_wait_total", "retiring")

    def __init__(self, peer_id, reader, writer, name, slots: int) -> None:
        super().__init__(peer_id, reader, writer, name)
        self.slots = max(1, slots)
        self.inflight: set[str] = set()
        self.last_seen = time.monotonic()
        # Lease-latency health: grants and cumulative queue-wait of the
        # jobs granted to this worker.
        self.leases_granted = 0
        self.lease_wait_total = 0.0
        # Drain-then-exit: set the moment a retire frame is sent, so
        # the very next grant round already skips this worker.
        self.retiring = False


class _AioClient(_AioPeer):
    __slots__ = ("outstanding", "completed", "failed", "batches",
                 "subscribed", "subscribe_period", "last_push",
                 "batch_started", "batch_settled", "result_outbox",
                 "flush_scheduled", "done_payload", "weight")

    def __init__(self, peer_id, reader, writer, name) -> None:
        super().__init__(peer_id, reader, writer, name)
        self.outstanding: set[str] = set()
        self.completed = 0
        self.failed = 0
        self.batches = 0
        # Fair-share tenancy: the weight of the latest submit.
        self.weight = 1.0
        # Status-stream subscription (set by a "subscribe" frame).  The
        # broadcaster timer pushes "status_update" frames at
        # ``subscribe_period`` while ``subscribed``.
        self.subscribed = False
        self.subscribe_period = 1.0
        self.last_push = 0.0
        # When the current batch's first jobs arrived: progress rate and
        # ETA are measured against this origin.  ``batch_settled`` pins
        # the clock the moment the batch drains, so a snapshot built
        # ticks later reports the batch's true rate instead of one
        # diluted by post-completion idle time.
        self.batch_started = 0.0
        self.batch_settled = 0.0
        # Settled results pile here until the scheduled flush ships
        # them as one frame.  The done frame's counters are captured
        # at settle time (a submit racing the flush must not reset
        # them under it).
        self.result_outbox: list[tuple[dict[str, Any],
                                       Any]] = []
        self.flush_scheduled = False
        self.done_payload: dict[str, Any] | None = None


class AsyncCoordinator:
    """The loop-resident broker core.

    Constructed with an already-bound listening socket (the sync
    facade binds in ``__init__`` so ``.port`` is readable before the
    loop exists) and driven by :meth:`run`, which serves until
    :meth:`request_stop` and then tears every peer down.  ``on_stop``
    fires the moment a stop is *initiated* -- client-driven shutdown
    included -- so the facade's ``threading.Event`` is observable as
    soon as the requester's ack arrives.
    """

    def __init__(self, listener: socket.socket,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 worker_timeout: float = DEFAULT_WORKER_TIMEOUT,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 on_stop: Callable[[], None] | None = None) -> None:
        self._listener = listener
        self.host, self.port = listener.getsockname()[:2]
        self.lease_timeout = lease_timeout
        self.worker_timeout = worker_timeout
        self.max_attempts = max(1, max_attempts)
        self.on_stop = on_stop
        self.stats = CoordinatorStats()
        # Per-campaign queues under a weighted deficit-round-robin
        # arbiter; jobs settled out-of-band (first result wins, client
        # gone) leave stale queue entries the is_live predicate prunes,
        # exactly like the old FIFO deque's lazy cleanup.
        self._sched = FairScheduler(
            is_live=lambda job: job.key in self._jobs)
        self._jobs: dict[str, JobRecord] = {}
        self._leases: dict[str, Lease] = {}
        self._workers: dict[int, _AioWorker] = {}
        self._clients: dict[int, _AioClient] = {}
        self._peer_ids = itertools.count(1)
        self._conn_tasks: set[asyncio.Task] = set()
        self._server: asyncio.base_events.Server | None = None
        self._stop_event: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopping = False
        # Deferred-dispatch flag: result frames mark dispatch due and a
        # single task granted at the next loop turn covers every result
        # the reader drained from its buffer in between -- so a burst of
        # N results costs one grant round and one job_batch frame, not N
        # single-job grants.
        self._dispatch_scheduled = False
        # Broadcaster accounting (one snapshot per tick, shared across
        # every due subscriber): the regression test pins the ratio.
        self.snapshots_built = 0
        self.status_updates_sent = 0
        # Recent lease queue-waits: the p50/p95 the status snapshot
        # reports (and the autoscale policy keys on).
        self._lease_waits: deque[float] = deque(maxlen=LEASE_WAIT_WINDOW)
        # Optional autoscaler, evaluated on its own loop timer.  Driver
        # calls may block (subprocess spawns), so ticks run in the
        # default executor, never on the loop.
        self._autoscaler = None
        self._autoscale_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle (loop thread)
    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    async def run(self, on_serving: Callable[[], None] | None = None,
                  ) -> None:
        """Serve until :meth:`request_stop`, then shut down cleanly."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        if self._stopping:
            # request_stop() raced ahead of run(): honour it now, or
            # the fresh event below would be waited on forever.
            self._stop_event.set()
        # A generous stream buffer: result frames for wide grids run to
        # megabytes, and the default 64 KiB limit would bounce the
        # transport between pause/resume for every frame.
        self._server = await asyncio.start_server(
            self._on_connection, sock=self._listener, limit=1 << 20)
        timers = [asyncio.ensure_future(self._reaper_loop()),
                  asyncio.ensure_future(self._broadcast_loop())]
        if self._autoscaler is not None and self._autoscale_task is None:
            self._autoscale_task = asyncio.ensure_future(
                self._autoscale_loop())
        if on_serving is not None:
            on_serving()
        try:
            await self._stop_event.wait()
        finally:
            if self._autoscale_task is not None:
                timers.append(self._autoscale_task)
                self._autoscale_task = None
            for timer in timers:
                timer.cancel()
            await asyncio.gather(*timers, return_exceptions=True)
            await self._shutdown()

    def request_stop(self) -> None:
        """Initiate shutdown (idempotent; loop thread or threadsafe via
        ``loop.call_soon_threadsafe``)."""
        if self._stopping:
            return
        self._stopping = True
        if self.on_stop is not None:
            self.on_stop()
        if self._stop_event is not None:
            self._stop_event.set()

    async def _shutdown(self) -> None:
        """Close the listener, tell workers to exit, flush and drop
        every peer, then reap the connection tasks."""
        if self._server is not None:
            self._server.close()
        for worker in list(self._workers.values()):
            worker.try_send({"type": MSG_SHUTDOWN})
        for peer in (list(self._workers.values())
                     + list(self._clients.values())):
            peer.close_queue()
        if self._conn_tasks:
            _done, pending = await asyncio.wait(
                set(self._conn_tasks), timeout=2.0)
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()

    # ------------------------------------------------------------------
    # Per-peer reader/writer tasks
    # ------------------------------------------------------------------
    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        """Handshake, then the role-specific read loop.  A hello at
        another protocol version is answered with an ``error`` frame
        naming both versions; any other malformed hello just drops the
        connection -- a bad peer must not kill the broker or leak the
        accepted transport."""
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
        try:
            try:
                header, _payload = await asyncio.wait_for(
                    recv_message_async(reader), timeout=30.0)
                if header.get("type") != MSG_HELLO:
                    raise ProtocolError("expected hello")
                version = header.get("version")
                if version != PROTOCOL_VERSION:
                    await self._refuse(
                        writer, f"protocol version mismatch: coordinator "
                                f"speaks version {PROTOCOL_VERSION}, peer "
                                f"sent {version!r}")
                    return
                role = header.get("role")
                if role == "worker":
                    slots = int(header.get("slots", 1))
                elif role != "client":
                    raise ProtocolError(f"unknown role {role!r}")
                peer_id = next(self._peer_ids)
                name = str(header.get("name", f"peer-{peer_id}"))
            except (ConnectionClosed, ProtocolError, asyncio.TimeoutError,
                    OSError, ValueError, TypeError):
                writer.transport.abort()
                return
            if role == "worker":
                worker = _AioWorker(peer_id, reader, writer, name, slots)
                worker.writer_task = asyncio.ensure_future(
                    self._writer_loop(worker))
                self._workers[peer_id] = worker
                await worker.send({"type": MSG_WELCOME,
                                   "worker_id": peer_id,
                                   "version": PROTOCOL_VERSION})
                await self._dispatch()
                await self._worker_loop(worker)
            else:
                client = _AioClient(peer_id, reader, writer, name)
                client.writer_task = asyncio.ensure_future(
                    self._writer_loop(client))
                self._clients[peer_id] = client
                await client.send({"type": MSG_WELCOME,
                                   "client_id": peer_id,
                                   "version": PROTOCOL_VERSION})
                await self._client_loop(client)
        except asyncio.CancelledError:
            writer.transport.abort()
            raise

    @staticmethod
    async def _refuse(writer: asyncio.StreamWriter, error: str) -> None:
        """Answer a hello with one ``error`` frame, then close."""
        writer.write(pack_message({"type": MSG_ERROR, "error": error}))
        try:
            await asyncio.wait_for(writer.drain(), timeout=2.0)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass
        writer.close()

    async def _writer_loop(self, peer: _AioPeer) -> None:
        """Drain the peer's send queue: every frame already queued is
        folded into one ``write()`` (bounded by :data:`COALESCE_BYTES`),
        then ``drain()`` applies the transport's backpressure."""
        writer = peer.writer
        stop = False
        try:
            while not stop:
                frame = await peer.queue.get()
                if frame is None:
                    break
                total = len(frame)
                chunks = [frame]
                while total < COALESCE_BYTES:
                    try:
                        nxt = peer.queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if nxt is None:
                        stop = True
                        break
                    chunks.append(nxt)
                    total += len(nxt)
                writer.write(chunks[0] if len(chunks) == 1
                             else b"".join(chunks))
                await writer.drain()
            # Graceful path: flush buffered bytes before closing.
            try:
                await asyncio.wait_for(writer.drain(), timeout=1.0)
            except (asyncio.TimeoutError, ConnectionError, OSError):
                pass
            writer.close()
        except (ConnectionError, OSError, asyncio.CancelledError):
            peer.alive = False
            writer.transport.abort()

    async def _worker_loop(self, worker: _AioWorker) -> None:
        try:
            while not self._stopping:
                header, payload = await recv_message_async(worker.reader)
                kind = header["type"]
                if kind == MSG_HEARTBEAT:
                    worker.last_seen = time.monotonic()
                elif kind == MSG_RESULT or kind == MSG_RESULT_BATCH:
                    worker.last_seen = time.monotonic()
                    for meta, blob in frame_entries(header, payload):
                        await self._on_result(
                            worker, str(meta["job_id"]),
                            bool(meta["ok"]), meta.get("error"), blob,
                            retryable=bool(meta.get("retryable")),
                            attempt=int(meta.get("attempt", 0)))
                    self._schedule_dispatch()
                elif kind == MSG_GOODBYE:
                    break
        except (ConnectionClosed, ProtocolError, OSError,
                KeyError, ValueError, TypeError):
            pass  # malformed frame == broken peer: drop it
        finally:
            await self._drop_worker(worker, "disconnected")

    async def _client_loop(self, client: _AioClient) -> None:
        try:
            while not self._stopping:
                header, payload = await recv_message_async(client.reader)
                kind = header["type"]
                if kind == MSG_SUBMIT:
                    await self._on_submit(client, header, payload)
                elif kind == MSG_STATUS:
                    await client.send({"type": MSG_STATUS,
                                       "status": self.build_status()})
                elif kind == MSG_SUBSCRIBE:
                    try:
                        period = float(header.get("period", 1.0))
                    except (TypeError, ValueError):
                        period = 1.0
                    client.subscribe_period = max(0.1, period)
                    client.last_push = 0.0
                    client.subscribed = True
                    await client.send({"type": MSG_SUBSCRIBED,
                                       "period": client.subscribe_period})
                elif kind == MSG_SHUTDOWN:
                    # Stop first (so the requester observes a stopped
                    # broker the moment its ack/EOF arrives), then ack
                    # best-effort -- the shutdown path flushes queues.
                    self.request_stop()
                    await client.send({"type": MSG_STOPPING})
                    break
                elif kind == MSG_GOODBYE:
                    break
        except (ConnectionClosed, ProtocolError, OSError,
                KeyError, ValueError, TypeError):
            pass  # malformed frame == broken peer: drop it
        finally:
            await self._drop_client(client)

    # ------------------------------------------------------------------
    # Leasing core (single-threaded on the loop: no locks)
    # ------------------------------------------------------------------
    async def _on_submit(self, client: _AioClient, header: dict[str, Any],
                         payload: memoryview) -> None:
        job_ids = [str(j) for j in header.get("job_ids", [])]
        # Length-prefixed split, NOT pickle: the broker never unpickles
        # client data -- only workers (which execute the jobs anyway)
        # unpickle the individual blobs.  The slices are memoryviews
        # over the received envelope: relayed, never copied.
        blobs = unpack_blob_list(payload)
        if len(blobs) != len(job_ids):
            await client.send({"type": MSG_ERROR,
                               "error": "job_ids/payload length mismatch"})
            return
        if len(set(job_ids)) != len(job_ids):
            # Records are keyed by job id within a batch: a repeat
            # would overwrite its twin and settle only once.
            await client.send({"type": MSG_ERROR,
                               "error": "duplicate job_ids in submit"})
            return
        max_attempts = int(header.get("max_attempts", self.max_attempts))
        weight = 1.0
        if "weight" in header:
            try:
                weight = validate_weight(header["weight"])
            except ValueError as exc:
                # Reject the whole submit: silently clamping a zero or
                # NaN weight would hand the tenant a share it never
                # asked for (or none at all, forever).
                await client.send({"type": MSG_ERROR, "error": str(exc)})
                return
        now = time.monotonic()
        if not client.outstanding:
            # A fresh batch on a reused connection: the done-frame
            # counters describe one batch, not the connection's life.
            client.completed = client.failed = 0
            client.batch_started = now
            client.batch_settled = 0.0
        client.weight = weight
        client.batches += 1
        prefix = f"c{client.id}b{client.batches}"
        for job_id, blob in zip(job_ids, blobs):
            record = JobRecord(key=f"{prefix}:{job_id}",
                               job_id=job_id, payload=blob,
                               client_id=client.id,
                               max_attempts=max(1, max_attempts),
                               submitted_at=now,
                               campaign=prefix, weight=weight)
            self._jobs[record.key] = record
            self._sched.enqueue(prefix, weight, record)
            client.outstanding.add(record.key)
        self.stats.jobs_submitted += len(job_ids)
        # No "accepted" ack: a fast batch could complete (result + done
        # frames) before an ack sent here, leaving a stray frame that
        # would desync the client's next status/shutdown exchange.  The
        # result stream itself is the acknowledgement.
        await self._dispatch()

    def _grant_round(self) -> dict[_AioWorker, list[JobRecord]]:
        """Grant as many pending jobs as current capacity allows
        (largest-deficit campaign first -- the weighted round-robin --
        then least-loaded worker, avoiding workers that already lost
        the job).  Retiring workers are skipped outright: they are
        draining toward goodbye.  Pure state mutation; the caller sends
        the accumulated grants, batched per worker."""
        grants: dict[_AioWorker, list[JobRecord]] = {}
        while True:
            pick = self._sched.peek()
            if pick is None:
                break
            candidates = [w for w in self._workers.values()
                          if w.alive and not w.retiring
                          and len(w.inflight) < w.slots]
            if not candidates:
                break
            queue, job = pick
            eligible = [w for w in candidates
                        if w.id not in job.excluded] or candidates
            worker = min(eligible, key=lambda w: (len(w.inflight), w.id))
            self._sched.commit(queue)
            job.attempts += 1
            worker.inflight.add(job.key)
            now = time.monotonic()
            worker.leases_granted += 1
            wait = max(0.0, now - job.submitted_at)
            worker.lease_wait_total += wait
            self._lease_waits.append(wait)
            self._leases[job.key] = Lease(
                job=job, worker_id=worker.id,
                deadline=now + self.lease_timeout,
                attempt=job.attempts)
            grants.setdefault(worker, []).append(job)
        return grants

    def _schedule_dispatch(self) -> None:
        """Mark a grant round due at the next loop turn (idempotent).

        The reader task parses every frame already buffered on its
        stream *without yielding*, so by the time the scheduled task
        runs, a worker's whole result burst has been settled -- the one
        grant round then refills that worker with one ``job_batch``
        frame instead of a single-job frame per result."""
        if self._dispatch_scheduled or self._stopping or self._loop is None:
            return
        self._dispatch_scheduled = True
        self._loop.create_task(self._scheduled_dispatch())

    async def _scheduled_dispatch(self) -> None:
        self._dispatch_scheduled = False
        await self._dispatch()

    async def _dispatch(self) -> None:
        """Grant pending jobs and ship them: one frame per worker
        round.  A send that finds the peer dead is resolved by the
        peer's own teardown (which requeues)."""
        if self._stopping:
            return
        grants = self._grant_round()
        for worker, jobs in grants.items():
            entries = [({"job_id": job.key, "attempt": job.attempts},
                        job.payload) for job in jobs]
            # Budget-bounded chunks: a grant round of individually
            # relayable payloads must never aggregate into a frame
            # pack_message rejects.
            for chunk in split_batch(entries, entry_size):
                await worker.send(*entries_frame(MSG_JOB, chunk))

    async def _on_result(self, worker: _AioWorker, key: str, ok: bool,
                         error: str | None, payload: memoryview | None,
                         retryable: bool = False, attempt: int = 0) -> None:
        job = self._jobs.get(key)
        if job is None:
            # Stale: the job was settled earlier (first result won, or
            # its client went away).  Free the bookkeeping only.
            worker.inflight.discard(key)
            self.stats.results_ignored += 1
            return
        if not ok and retryable:
            # The worker is alive but *lost* the execution (its pool
            # child died): requeue within the attempt budget -- but
            # only if this worker still holds the lease *for this
            # attempt*; a revoked or re-granted lease means the job is
            # already someone else's (or a newer grant's) problem, and
            # revoking it here would burn the budget under a live
            # execution.
            lease = self._leases.get(key)
            if (lease is None or lease.worker_id != worker.id
                    or (attempt and lease.attempt != attempt)):
                self.stats.results_ignored += 1
                return
            worker.inflight.discard(key)
            await self._requeue(job, f"execution lost: {error}",
                                exclude_worker=worker.id)
            return
        # Success (or a deterministic job failure): first result wins
        # regardless of which attempt produced it.
        self._settle(job)
        worker.inflight.discard(key)
        await self._deliver(job, ok, error, payload)

    def _settle(self, job: JobRecord) -> None:
        """Remove a job from every queue/lease."""
        del self._jobs[job.key]
        lease = self._leases.pop(job.key, None)
        if lease is not None:
            holder = self._workers.get(lease.worker_id)
            if holder is not None:
                holder.inflight.discard(job.key)
        # A stale entry may remain in its campaign queue; the
        # scheduler's is_live predicate prunes it on the next peek.

    async def _deliver(self, job: JobRecord, ok: bool, error: str | None,
                       payload: memoryview | bytes | None) -> None:
        """Queue one settled job for its client (+ ``done`` when that
        client's batch is drained).  Results pile up in the client's
        outbox while the reader keeps settling, and a flush task ships
        the whole pile as one frame at the next loop turn --
        single-threaded on the loop and FIFO through the client's send
        queue, so the ``done`` frame can never overtake the last
        result.  The ``done`` payload is captured *here* (at
        settle time) so a new submit racing the flush cannot reset the
        counters under it."""
        client = self._clients.get(job.client_id)
        if ok:
            self.stats.jobs_completed += 1
        else:
            self.stats.jobs_failed += 1
        if client is None:
            return
        client.outstanding.discard(job.key)
        if ok:
            client.completed += 1
        else:
            client.failed += 1
        if not client.outstanding:
            # Batch drained: pin the progress clock now, so a snapshot
            # built ticks later reports the batch's real rate (and no
            # phantom ETA) instead of numbers diluted by idle time.
            client.batch_settled = time.monotonic()
        meta: dict[str, Any] = {"job_id": job.job_id,
                                "ok": ok, "attempts": job.attempts}
        if error is not None:
            meta["error"] = error
        client.result_outbox.append((meta, payload))
        if not client.outstanding:
            client.done_payload = {"type": MSG_DONE,
                                   "completed": client.completed,
                                   "failed": client.failed}
        self._schedule_client_flush(client)

    def _schedule_client_flush(self, client: _AioClient) -> None:
        if client.flush_scheduled or self._loop is None:
            return
        client.flush_scheduled = True
        self._loop.create_task(self._flush_client(client))

    async def _flush_client(self, client: _AioClient) -> None:
        """Ship a client's accumulated results (one frame) and, when
        its batch drained, the captured ``done``."""
        client.flush_scheduled = False
        batch = client.result_outbox
        if batch:
            client.result_outbox = []
            # Same budget rule as _dispatch: the outbox coalesces
            # without bound, one frame must not.
            for chunk in split_batch(batch, entry_size):
                await client.send(*entries_frame(MSG_RESULT, chunk))
        done = client.done_payload
        if done is not None:
            client.done_payload = None
            await client.send(done)

    async def _requeue(self, job: JobRecord, reason: str,
                       exclude_worker: int | None = None) -> None:
        """Take a lease back; deliver the failure when the job is out
        of attempts.  ``exclude_worker`` marks the worker that just
        lost the job, so the retry lands elsewhere whenever anyone
        else has capacity."""
        self._leases.pop(job.key, None)
        if job.attempts >= job.max_attempts:
            del self._jobs[job.key]
            await self._deliver(job, False,
                                f"worker lost after {job.attempts} "
                                f"attempt(s): {reason}", None)
            return
        if exclude_worker is not None:
            job.excluded.add(exclude_worker)
        self.stats.jobs_requeued += 1
        # Front of its own campaign's queue: the retry neither jumps
        # another tenant's lane nor falls behind its batch-mates.
        self._sched.enqueue(job.campaign, job.weight, job, front=True)

    async def _drop_worker(self, worker: _AioWorker, reason: str) -> None:
        """Remove a worker and requeue everything it was leasing."""
        if self._workers.pop(worker.id, None) is None:
            return  # already dropped by the reaper
        self.stats.workers_dropped += 1
        for key in sorted(worker.inflight):
            lease = self._leases.get(key)
            if lease is None or lease.worker_id != worker.id:
                continue
            await self._requeue(lease.job, reason)
        worker.inflight.clear()
        worker.alive = False
        worker.close_queue()
        await self._dispatch()

    async def _drop_client(self, client: _AioClient) -> None:
        """Forget a client: its unfinished jobs are cancelled (workers
        already executing them will report into the void)."""
        if self._clients.pop(client.id, None) is None:
            return
        for key in list(client.outstanding):
            job = self._jobs.get(key)
            if job is not None:
                self._settle(job)
        client.alive = False
        client.close_queue()

    # ------------------------------------------------------------------
    # Elastic fleet: retirement + autoscaling
    # ------------------------------------------------------------------
    async def retire_workers_async(self, n: int = 1) -> int:
        """Ask up to ``n`` workers to drain-then-exit, idle-first (a
        scale-down should prefer departures that strand nothing).  The
        worker finishes its in-flight leases and disconnects itself;
        broker-side it stops receiving grants the moment the retire
        frame is queued.  Returns how many workers were asked."""
        victims = sorted(
            (w for w in self._workers.values()
             if w.alive and not w.retiring),
            key=lambda w: (len(w.inflight), -w.id))
        count = 0
        for worker in victims[:max(0, n)]:
            worker.retiring = True
            # Zero its capacity now: fleet_size and the next policy
            # tick must not count a draining worker.
            worker.slots = 0
            self.stats.workers_retired += 1
            await worker.send({"type": MSG_RETIRE})
            count += 1
        return count

    def set_autoscaler(self, autoscaler) -> None:
        """Attach (or replace/remove) the autoscaler.  Loop thread
        only -- the sync facade marshals here threadsafely.  Starts the
        evaluation timer if the loop is already serving; otherwise
        :meth:`run` starts it."""
        self._autoscaler = autoscaler
        if (autoscaler is not None and self._autoscale_task is None
                and self._loop is not None and not self._stopping):
            self._autoscale_task = self._loop.create_task(
                self._autoscale_loop())

    async def _autoscale_loop(self) -> None:
        """Evaluate the policy against a fresh snapshot on its own
        timer.  Driver actions may block (subprocess spawns, a facade
        round-trip back into this loop for retirement), so each tick
        runs in the default executor while the loop keeps serving."""
        while True:
            autoscaler = self._autoscaler
            if autoscaler is None:
                return
            await asyncio.sleep(autoscaler.period)
            if self._stopping or self._autoscaler is None:
                return
            snapshot = self.build_status()
            try:
                await asyncio.get_running_loop().run_in_executor(
                    None, self._autoscaler.tick, snapshot)
            except Exception:  # noqa: BLE001 - a failed driver action
                # must not kill the evaluation timer; count it instead.
                self.stats.autoscale_errors += 1

    # ------------------------------------------------------------------
    # Timers: reaper + status broadcaster
    # ------------------------------------------------------------------
    def _reap_period(self) -> float:
        return min(1.0, max(0.05, min(self.worker_timeout,
                                      self.lease_timeout) / 4.0))

    async def _reaper_loop(self) -> None:
        """Heartbeat liveness + lease deadlines, as a loop timer."""
        while True:
            await asyncio.sleep(self._reap_period())
            now = time.monotonic()
            silent = [w for w in self._workers.values()
                      if now - w.last_seen > self.worker_timeout]
            expired = [lease for lease in self._leases.values()
                       if now > lease.deadline]
            for worker in silent:
                worker.abort()  # wake its reader out of the read
                await self._drop_worker(worker, "heartbeat timeout")
            for lease in expired:
                current = self._leases.get(lease.job.key)
                if current is not lease:
                    continue  # settled or already requeued
                holder = self._workers.get(lease.worker_id)
                if holder is not None:
                    holder.inflight.discard(lease.job.key)
                await self._requeue(lease.job, "lease deadline expired",
                                    exclude_worker=lease.worker_id)
            if silent or expired:
                await self._dispatch()

    async def _broadcast_loop(self) -> None:
        """Push ``status_update`` frames to subscribers at their
        requested periods.  One snapshot is built per tick and shared
        by every due subscriber (a thousand dashboards must not walk
        the broker state a thousand times); a backlogged subscriber is
        unsubscribed -- its reader owns the teardown."""
        while True:
            await asyncio.sleep(BROADCAST_TICK)
            now = time.monotonic()
            due = [c for c in self._clients.values()
                   if c.subscribed and c.alive
                   and now - c.last_push >= c.subscribe_period]
            if not due:
                continue
            snapshot = self.build_status()
            self.snapshots_built += 1
            for client in due:
                client.last_push = now
                if client.try_send({"type": MSG_STATUS_UPDATE,
                                    "status": snapshot}):
                    self.status_updates_sent += 1
                else:
                    client.subscribed = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    async def status_async(self) -> dict[str, Any]:
        """Loop-side status entry point for ``run_coroutine_threadsafe``
        marshalling from the sync facade."""
        return self.build_status()

    def build_status(self) -> dict[str, Any]:
        """JSON-able snapshot (the CLI status line, the status stream,
        the obs bridge and tests read it).

        ``workers``/``clients``/``stats`` keep their original shapes
        (tests index into them); worker entries carry health fields and
        ``campaigns`` adds per-client batch progress with a completion
        rate and ETA measured from the batch's first submit.
        """
        now = time.monotonic()
        campaigns = []
        # A tenant's share is its weight over the active total: what
        # fraction of the grant rounds it is entitled to *right now*.
        active_weight = sum(c.weight for c in self._clients.values()
                            if c.outstanding)
        for c in sorted(self._clients.values(), key=lambda c: c.id):
            settled = c.completed + c.failed
            if not (c.outstanding or settled):
                continue  # idle control connections are not campaigns
            # A settled batch pins its clock: rate/ETA freeze at the
            # values the batch actually achieved instead of decaying
            # with idle time (and a phantom ETA reviving on stale rate
            # state was the bug this fixes).
            end = (c.batch_settled
                   if c.batch_settled and not c.outstanding else now)
            elapsed = max(1e-9, end - c.batch_started)
            rate = settled / elapsed if c.batch_started else 0.0
            campaigns.append({
                "client_id": c.id, "name": c.name,
                "outstanding": len(c.outstanding),
                "completed": c.completed, "failed": c.failed,
                "batches": c.batches,
                "weight": c.weight,
                "share": (c.weight / active_weight
                          if c.outstanding and active_weight > 0
                          else 0.0),
                "rate_per_sec": rate,
                "eta_sec": (len(c.outstanding) / rate
                            if rate > 0 and c.outstanding else None),
            })
        waits = sorted(self._lease_waits)
        status = {
            "address": self.address,
            "pending": self._sched.pending(),
            "leased": len(self._leases),
            "workers": [
                {"id": w.id, "name": w.name, "slots": w.slots,
                 "inflight": len(w.inflight),
                 "retiring": w.retiring,
                 "last_seen_age_sec": max(0.0, now - w.last_seen),
                 "leases_granted": w.leases_granted,
                 "lease_wait_avg_sec": (
                     w.lease_wait_total / w.leases_granted
                     if w.leases_granted else 0.0)}
                for w in sorted(self._workers.values(),
                                key=lambda w: w.id)],
            "clients": len(self._clients),
            "subscribers": sum(1 for c in self._clients.values()
                               if c.subscribed),
            # Workers that can still take leases (a retiring worker is
            # connected but no longer part of the serving fleet).
            "fleet_size": sum(1 for w in self._workers.values()
                              if w.alive and w.slots > 0
                              and not w.retiring),
            "lease_wait_p50_sec": _percentile(waits, 0.5),
            "lease_wait_p95_sec": _percentile(waits, 0.95),
            "campaigns": campaigns,
            "stats": dict(self.stats.__dict__),
        }
        autoscaler = self._autoscaler
        if autoscaler is not None:
            status["autoscale"] = {
                "min": autoscaler.policy.min_workers,
                "max": autoscaler.policy.max_workers,
                "scaled_up": autoscaler.scaled_up,
                "scaled_down": autoscaler.scaled_down,
            }
        return status
