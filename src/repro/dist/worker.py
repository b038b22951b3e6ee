"""The thin on-node agent: lease jobs, run them locally, stream results.

A :class:`WorkerAgent` dials a coordinator, announces how many jobs it
can hold at once (its *slots*), and then sits in a read loop.  Each
``job`` frame carries an opaque pickle of ``(fn, arg)`` -- the exact
value the local :class:`~repro.scenarios.runner.CampaignRunner` would
have shipped to its process pool -- which the agent hands to its own
local executor:

- ``processes >= 1``: a ``ProcessPoolExecutor``, so jobs run with real
  parallelism and a job that corrupts or kills its interpreter takes
  down a child process, not the agent (a broken pool is respawned the
  same way the local runner recovers);
- ``processes = 0``: inline threads, the deterministic mode the
  in-process :class:`~repro.dist.cluster.LocalCluster` tests use.

A heartbeat thread pings the coordinator every ``heartbeat_period``
seconds; the *jobs* may take arbitrarily long (the coordinator's lease
deadline, not the heartbeat, bounds them).  Exceptions raised by a job
are caught and reported as failed results with the traceback text --
the agent itself only dies on coordinator loss or :meth:`stop`.

Leases arrive as ``job`` frames, or as one ``job_batch`` frame per
grant round of more than one job, and results go back the same way
(:func:`~repro.dist.protocol.entries_frame` picks the form): finished
jobs pile into an outbox while a flush is on the wire, and the next
flush ships all of them as one frame -- one syscall for N wide-grid
records, self-clocking to however fast the socket drains.

A ``retire`` frame (the autoscaler's scale-down path) makes the agent
**drain-then-exit**: the coordinator grants a retiring worker nothing
further, and the agent finishes whatever jobs are already in its
executor, sends each result normally, and only then says goodbye --
shrinking a fleet under load loses no work.  A SIGKILL mid-drain still
looks like any crashed worker (no goodbye), so the coordinator's
requeue path covers that too.

**What the agent imports.**  Only the wire: this module needs
:mod:`repro.dist.protocol` and the standard library, because the agent
never unpickles a job -- it hands the opaque blob to its executor.
``python -m repro.dist worker`` therefore dials in without loading the
simulator or asyncio.  A pool child imports whatever a job names when
it unpickles it, once per child; with ``processes = 0`` the jobs run,
and import, in the agent's own process.

**Fork, one pool at a time.**  Pools fork their children explicitly
(``mp_context``), not with the platform default: Python 3.14 makes
forkserver the Linux default, and a forkserver or spawn pool owner
also starts a resource-tracker process.  A pool forks on its first
submit, and again on the first submit after a broken pool is replaced,
so every submit holds the module-level :data:`_FORK_LOCK`.  Two agents
in one process (a thread-mode ``LocalCluster`` with ``processes >= 1``)
would otherwise fork at once.  ``popen_fork`` opens a child's sentinel
pipe, forks, and only then closes the pipe's write end in the parent;
a child the other agent forks inside that window inherits the write
end, so the first pool never sees its child exit when it dies, and
the agent stalls.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
import traceback
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any

from repro.dist.protocol import (
    MSG_GOODBYE,
    MSG_HEARTBEAT,
    MSG_JOB,
    MSG_JOB_BATCH,
    MSG_RESULT,
    MSG_RETIRE,
    MSG_SHUTDOWN,
    ConnectionClosed,
    ProtocolError,
    connect,
    dumps_payload,
    entries_frame,
    entry_size,
    frame_entries,
    loads_payload,
    recv_message,
    send_message,
    split_batch,
)

DEFAULT_HEARTBEAT_PERIOD = 2.0

_FORK_LOCK = threading.Lock()
"""Held around every executor submit, where a process pool forks, so
no two agents in this process fork at the same time (module docs)."""


def execute_job(payload: bytes) -> tuple[bool, Any]:
    """Run one pickled ``(fn, arg)`` job; never raises.

    Module-level so a process-pool worker can import it; the payload is
    unpickled *inside* the executing process, which is also what makes
    ``processes >= 1`` safe against jobs that wedge the interpreter.
    Returns ``(ok, value-or-traceback-text)``.
    """
    try:
        fn, arg = loads_payload(payload)
        return True, fn(arg)
    except BaseException:
        return False, traceback.format_exc()


class WorkerAgent:
    """Connect to ``address`` and serve jobs until stopped.

    ``processes`` selects the executor (see module docs); ``slots``
    defaults to the executor width, i.e. the agent leases exactly as
    many jobs as it can run concurrently.
    """

    def __init__(self, address: str, processes: int = 1,
                 slots: int | None = None, name: str = "",
                 heartbeat_period: float = DEFAULT_HEARTBEAT_PERIOD,
                 connect_timeout: float = 10.0) -> None:
        self.address = address
        self.processes = max(0, processes)
        self.slots = slots if slots is not None else max(1, self.processes)
        self.name = name or f"worker-{id(self):x}"
        self.heartbeat_period = heartbeat_period
        self.connect_timeout = connect_timeout
        self._sock: socket.socket | None = None
        self._executor: Executor | None = None
        # Two locks with distinct jobs: _wire_lock serializes the
        # actual socket writes (a heartbeat injected between the
        # sendall(2) calls of a multi-megabyte result frame would
        # corrupt the stream); _send_lock only guards the outbox /
        # _flushing state, so producers can keep appending while a
        # flush's sendall blocks on the wire.
        self._wire_lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._stopped = threading.Event()
        self._thread: threading.Thread | None = None
        # Result outbox: finished jobs queue here
        # while another flush holds the socket; the flusher drains the
        # whole backlog as one frame per trip.
        self._outbox: list[tuple[dict[str, Any], bytes | None]] = []
        self._flushing = False
        # Drain-then-exit state: _inflight counts jobs handed to the
        # executor whose results have not shipped yet; once draining,
        # the last decrement (with an empty outbox) sends the goodbye.
        self._retire_lock = threading.Lock()
        self._inflight = 0
        self._draining = False
        self._goodbye_sent = False
        self.jobs_done = 0
        self.jobs_failed = 0

    # ------------------------------------------------------------------
    # Executor plumbing
    # ------------------------------------------------------------------
    def _make_executor(self) -> Executor:
        if self.processes >= 1:
            return ProcessPoolExecutor(
                max_workers=self.processes,
                mp_context=multiprocessing.get_context("fork"))
        return ThreadPoolExecutor(max_workers=max(1, self.slots),
                                  thread_name_prefix="dist-inline")

    def _submit(self, payload: bytes):
        """Submit one job, respawning a broken process pool in place."""
        assert self._executor is not None
        with _FORK_LOCK:
            try:
                return self._executor.submit(execute_job, payload)
            except RuntimeError:
                # BrokenProcessPool (a prior job killed its child)
                # leaves the executor unusable; recover like the local
                # runner.
                self._executor.shutdown(wait=False)
                self._executor = self._make_executor()
                return self._executor.submit(execute_job, payload)

    def _submit_job(self, job_id: str, attempt: int,
                    payload: bytes | memoryview) -> None:
        # The process pool pickles its arguments, and memoryview (the
        # zero-copy slice recv_message hands back) is not picklable --
        # materialize exactly at the boundary that needs it.  The
        # inline-thread executor reads the view in place.
        if self.processes >= 1 and isinstance(payload, memoryview):
            payload = bytes(payload)
        with self._retire_lock:
            self._inflight += 1
        future = self._submit(payload)
        future.add_done_callback(
            lambda f, job_id=job_id, attempt=attempt:
            self._on_job_done(job_id, attempt, f))

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def _send(self, header: dict[str, Any],
              payload: bytes | memoryview | None = None) -> bool:
        sock = self._sock
        if sock is None:
            return False
        try:
            with self._wire_lock:
                send_message(sock, header, payload)
            return True
        except OSError:
            return False

    def _heartbeat_loop(self) -> None:
        while not self._stopped.wait(self.heartbeat_period):
            if not self._send({"type": MSG_HEARTBEAT}):
                return

    def _on_job_done(self, job_id: str, attempt: int, future) -> None:
        """Future callback: ship the result (or the traceback) back.
        ``attempt`` is echoed so the coordinator can tell this result
        apart from one for a different grant of the same job."""
        retryable = False
        payload: bytes | None = None
        try:
            ok, value = future.result()
        except BaseException:
            # The child process died under the job (os._exit, OOM-kill,
            # segfault) rather than the job raising: the execution was
            # *lost*, not completed, so let the coordinator retry it
            # within the job's attempt budget -- innocent jobs sharing
            # a broken pool come back this way too.
            ok, value, retryable = False, traceback.format_exc(), True
        if ok:
            try:
                payload = dumps_payload(value)
            except Exception:
                # Unpicklable result: a deterministic job defect, not a
                # lost execution -- report it now instead of letting
                # the lease expire with a misleading timeout error.
                ok, value = False, traceback.format_exc()
        if ok:
            self.jobs_done += 1
            meta: dict[str, Any] = {"job_id": job_id, "attempt": attempt,
                                    "ok": True}
        else:
            self.jobs_failed += 1
            meta = {"job_id": job_id, "attempt": attempt, "ok": False,
                    "retryable": retryable, "error": str(value)}
            payload = None
        self._send_result_batched(meta, payload)
        with self._retire_lock:
            self._inflight -= 1
        self._maybe_finish_retire()

    def _maybe_finish_retire(self) -> None:
        """Send the retire goodbye once: draining, nothing in flight,
        and nothing still queued for (or mid-) flush -- a goodbye that
        overtook a batched result would strand that job until its
        lease expired."""
        with self._retire_lock:
            if (not self._draining or self._inflight > 0
                    or self._goodbye_sent):
                return
            with self._send_lock:
                if self._outbox or self._flushing:
                    return  # the active flusher re-checks when done
            self._goodbye_sent = True
        self._send({"type": MSG_GOODBYE})
        self._stopped.set()

    def _send_result_batched(self, meta: dict[str, Any],
                             payload: bytes | None) -> None:
        """Queue one result and flush the outbox unless another thread
        already holds the socket -- that flusher will pick this entry
        up on its next trip, coalescing everything that accumulated
        while its sendall() blocked into a single frame."""
        with self._send_lock:
            self._outbox.append((meta, payload))
            if self._flushing:
                return
            self._flushing = True
        try:
            while True:
                with self._send_lock:
                    batch, self._outbox = self._outbox, []
                    if not batch:
                        self._flushing = False
                        break
                self._flush_results(batch)
        except BaseException:
            with self._send_lock:
                self._flushing = False
            raise
        # This flusher may have shipped the final draining result; the
        # decrementing thread saw _flushing and deferred to us.
        self._maybe_finish_retire()

    def _flush_results(self, batch: list[tuple[dict[str, Any],
                                               bytes | None]]) -> None:
        sock = self._sock
        if sock is None:
            return
        # The outbox coalesces without bound, but one frame must not:
        # N individually-sendable results can sum past the frame cap,
        # so ship the backlog in budget-bounded chunks.
        for chunk in split_batch(batch, entry_size):
            try:
                with self._wire_lock:
                    send_message(sock, *entries_frame(MSG_RESULT, chunk))
            except OSError:
                return  # broken socket: the read loop owns the teardown
            except ProtocolError:
                # The chunk still packed past the cap (outsized metadata
                # headers): fall back to per-frame sends so one bad
                # entry cannot sink its batch-mates.
                for entry in chunk:
                    try:
                        with self._wire_lock:
                            send_message(
                                sock, *entries_frame(MSG_RESULT, [entry]))
                    except OSError:
                        return
                    except ProtocolError:
                        # This result alone exceeds the frame cap; its
                        # lease expires and the attempt budget decides.
                        continue

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Connect and serve until coordinator loss or :meth:`stop`."""
        self._sock = connect(self.address, role="worker", name=self.name,
                             timeout=self.connect_timeout, slots=self.slots)
        self._executor = self._make_executor()
        heartbeat = threading.Thread(target=self._heartbeat_loop,
                                     name="dist-heartbeat", daemon=True)
        heartbeat.start()
        try:
            while not self._stopped.is_set():
                header, payload = recv_message(self._sock)
                kind = header["type"]
                if kind == MSG_JOB or kind == MSG_JOB_BATCH:
                    for meta, blob in frame_entries(header, payload):
                        self._submit_job(str(meta["job_id"]),
                                         int(meta.get("attempt", 1)),
                                         blob)
                elif kind == MSG_RETIRE:
                    # Drain-then-exit: the coordinator grants nothing
                    # more, so finish what's in the executor, then
                    # goodbye.  The coordinator closes the connection
                    # on our goodbye, which pops this loop out of
                    # recv_message.
                    with self._retire_lock:
                        self._draining = True
                    self._maybe_finish_retire()
                elif kind == MSG_SHUTDOWN:
                    break
        except (ConnectionClosed, ProtocolError, OSError):
            pass
        finally:
            self._teardown()

    def start(self) -> "WorkerAgent":
        """Serve on a daemon thread (the in-process cluster mode)."""
        self._thread = threading.Thread(target=self.run, name="dist-worker",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful exit: close the socket, reap the executor."""
        self._stopped.set()
        self._teardown()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def kill(self) -> None:
        """Abrupt death for tests: drop the socket without goodbye, so
        the coordinator sees a mid-lease disconnect.  Jobs already in
        the executor keep running but their results have nowhere to go
        (exactly like a crashed host's would)."""
        self._stopped.set()
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()

    def _teardown(self) -> None:
        self._stopped.set()
        sock, self._sock = self._sock, None
        if sock is not None:
            # shutdown() before close(): closing alone does not wake a
            # thread blocked in recv() on the same socket.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False)
