"""The campaign coordinator: a TCP job broker with fault-tolerant leases.

One :class:`Coordinator` serves two kinds of peers over the framed
protocol in :mod:`repro.dist.protocol`:

- **clients** (a :class:`~repro.dist.runner.DistributedCampaignRunner`)
  submit batches of pre-pickled jobs and receive each job's result as
  it completes (bursts folded into ``result_batch`` frames), then a
  ``done`` frame;
- **workers** (a :class:`~repro.dist.worker.WorkerAgent`) announce a
  slot count and are pushed ``job``/``job_batch`` frames up to that
  many at a time, answering with results and periodic ``heartbeat``
  frames.

Every connection opens with a hello/welcome handshake at one
:data:`~repro.dist.protocol.PROTOCOL_VERSION`;
:func:`repro.dist.protocol.connect` performs it for every peer and
raises :class:`ConnectionError` when the coordinator refuses.

Every in-flight job is a **lease**: granted to exactly one worker with
a hard execution deadline.  A worker that disconnects, misses enough
heartbeats, or sits on a lease past its deadline gets the job taken
back and requeued at the front of the queue; a job that has burned
through ``max_attempts`` grants is reported to its client as a failed
run instead of being retried forever.  Results are first-win: the
earliest result for a job settles it, and late duplicates from a
worker whose lease was already revoked are dropped.

Ordinary exceptions raised *by the job function* are not retried --
they are deterministic outcomes, reported to the client immediately --
only the loss of the worker executing a job triggers a requeue.  This
mirrors the local pool, where an exception propagates but a dead
machine would have killed the whole campaign; here it only costs a
re-run of the leased jobs on the survivors.

Since PR 8 the broker core is asyncio-native
(:class:`repro.dist.aiobroker.AsyncCoordinator`): one event loop on a
dedicated thread, a reader/writer task pair per peer, and the reaper +
status broadcaster as loop timers, which scales to thousands of
concurrent connections where thread-per-connection topped out at tens.
This class is the synchronous **facade** over that core -- same
constructor, same ``start/stop/serve_forever/status`` surface, same
``status()`` shape -- so the CLI, :class:`LocalCluster` and every
existing caller are unchanged.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from typing import Any

from repro.dist.aiobroker import AsyncCoordinator, CoordinatorStats
from repro.dist.protocol import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_PORT,
    DEFAULT_WORKER_TIMEOUT,
)

__all__ = ["Coordinator", "CoordinatorStats", "DEFAULT_PORT"]


class Coordinator:
    """Serve the leasing protocol on ``host:port`` (port 0 = ephemeral).

    ``lease_timeout`` is the hard per-job execution deadline (a hung
    worker loses the job even while its heartbeat thread stays chatty);
    ``worker_timeout`` is how long a silent worker survives between
    heartbeats before all its leases are revoked.

    The listener socket is bound here, synchronously, so ``.port`` is
    readable before :meth:`start`; the asyncio core adopts it when the
    loop thread comes up.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 worker_timeout: float = DEFAULT_WORKER_TIMEOUT,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        # Deep backlog: the 1000-client connect ramp arrives faster
        # than the loop can accept when the host is busy.
        self._listener.listen(1024)
        self._listener.setblocking(False)
        self._stopped = threading.Event()
        self._core = AsyncCoordinator(
            self._listener, lease_timeout=lease_timeout,
            worker_timeout=worker_timeout, max_attempts=max_attempts,
            on_stop=self._stopped.set)
        self.host, self.port = self._core.host, self._core.port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def stats(self) -> CoordinatorStats:
        return self._core.stats

    def start(self) -> "Coordinator":
        """Spawn the event-loop thread and wait until the broker is
        accepting connections; returns self."""
        if self._started:
            return self
        self._started = True
        serving = threading.Event()
        self._thread = threading.Thread(
            target=self._loop_main, args=(serving,),
            name="dist-aioloop", daemon=True)
        self._thread.start()
        serving.wait(timeout=10.0)
        return self

    def _loop_main(self, serving: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._core.run(on_serving=serving.set))
        finally:
            # Unblock a start() that raced a failed bring-up, and make
            # sure the stop event fires even on an abnormal loop exit.
            serving.set()
            self._stopped.set()
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                asyncio.set_event_loop(None)
                loop.close()

    def serve_forever(self) -> None:
        """Start and block until :meth:`stop` (the CLI entry point)."""
        self.start()
        self._stopped.wait()
        if self._thread is not None and \
                self._thread is not threading.current_thread():
            self._thread.join(timeout=5.0)

    def stop(self) -> None:
        """Shut the broker down: workers are told to exit, every socket
        is closed, pending jobs are abandoned (clients see the drop)."""
        self._stopped.set()
        loop = self._loop
        if loop is not None and loop.is_running():
            try:
                loop.call_soon_threadsafe(self._core.request_stop)
            except RuntimeError:
                pass  # loop tore down between the check and the call
            thread = self._thread
            if thread is not None and \
                    thread is not threading.current_thread():
                thread.join(timeout=10.0)
        else:
            self._core.request_stop()
            try:
                self._listener.close()
            except OSError:
                pass

    def __enter__(self) -> "Coordinator":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(self) -> dict[str, Any]:
        """JSON-able snapshot (the CLI status line, the status stream,
        the obs bridge and tests read it); see
        :meth:`AsyncCoordinator.build_status` for the shape."""
        loop = self._loop
        if loop is not None and loop.is_running():
            future = asyncio.run_coroutine_threadsafe(
                self._core.status_async(), loop)
            try:
                return future.result(timeout=10.0)
            except (asyncio.CancelledError, RuntimeError):
                pass  # loop stopped mid-flight: fall through
        # Loop not running (pre-start or post-stop): nothing mutates
        # the state concurrently, a direct build is safe.
        return self._core.build_status()

    # ------------------------------------------------------------------
    # Elastic fleet
    # ------------------------------------------------------------------
    def retire_workers(self, n: int = 1, timeout: float = 10.0) -> int:
        """Ask up to ``n`` workers to drain-then-exit (idle-first);
        returns how many were asked.  Safe from any thread -- this is
        the scale-down half of the autoscale driver contract."""
        loop = self._loop
        if loop is None or not loop.is_running():
            return 0
        future = asyncio.run_coroutine_threadsafe(
            self._core.retire_workers_async(n), loop)
        try:
            return future.result(timeout=timeout)
        except (asyncio.CancelledError, RuntimeError, TimeoutError):
            return 0

    def set_autoscaler(self, policy, driver, period: float = 0.5):
        """Attach an autoscaler: ``policy`` is an
        :class:`~repro.dist.autoscale.AutoscalePolicy` (or an already
        built :class:`~repro.dist.autoscale.Autoscaler`, in which case
        ``driver``/``period`` are ignored) evaluated every ``period``
        seconds on the broker's loop against the live status snapshot,
        acting through ``driver.scale_up(n)``/``driver.scale_down(n)``.
        Returns the autoscaler so callers can read its counters."""
        from repro.dist.autoscale import Autoscaler

        autoscaler = (policy if isinstance(policy, Autoscaler)
                      else Autoscaler(policy, driver, period=period))
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._core.set_autoscaler,
                                      autoscaler)
        else:
            # Pre-start: run() will start the evaluation timer.
            self._core.set_autoscaler(autoscaler)
        return autoscaler

    # Test/diagnostic hooks into the loop core.
    @property
    def core(self) -> AsyncCoordinator:
        return self._core

