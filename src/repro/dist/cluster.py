"""In-process / subprocess cluster harness for deterministic tests.

``LocalCluster`` spins up one :class:`~repro.dist.coordinator.Coordinator`
on an ephemeral localhost port plus ``n_workers`` worker agents, and
hands out :class:`~repro.dist.runner.DistributedCampaignRunner` clients
bound to it.  Two worker modes:

- ``mode="thread"`` (default): each :class:`WorkerAgent` runs on a
  daemon thread *inside this process* with an inline (thread) executor
  -- no fork, no spawn, fully deterministic and fast, which is what the
  conformance and parity tests want;
- ``mode="subprocess"``: each worker is a real ``python -m repro.dist
  worker`` child process (with ``src`` prepended to ``PYTHONPATH``), so
  tests can ``kill_worker()`` with a real SIGKILL and exercise the
  requeue path exactly the way a crashed remote host would.

The cluster is a context manager; exit stops the workers, then the
coordinator.

Both cluster flavours are **elastic**: ``spawn_workers(n)`` /
``retire_workers(n)`` grow and drain the fleet at runtime, and the
``scale_up``/``scale_down`` aliases make a cluster directly usable as
an :class:`~repro.dist.autoscale.Autoscaler` driver (pass
it with a policy to ``cluster.coordinator.set_autoscaler`` after
construction).  :class:`SubprocessWorkerFleet` is the same driver
contract for a standalone coordinator (the ``python -m repro.dist
coordinator --autoscale min:max`` path): it spawns real ``python -m
repro.dist worker`` children and retires them through the broker.
"""

from __future__ import annotations

import itertools
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Any

from repro.dist.coordinator import Coordinator
from repro.dist.runner import DistributedCampaignRunner
from repro.dist.worker import DEFAULT_HEARTBEAT_PERIOD, WorkerAgent


def _src_root():
    from pathlib import Path

    import repro

    # ``repro`` is a namespace package: locate src/ via __path__.
    return Path(list(repro.__path__)[0]).resolve().parent


def spawn_worker_process(address: str, processes: int = 1,
                         slots: int | None = None,
                         heartbeat_period: float = DEFAULT_HEARTBEAT_PERIOD,
                         name: str = "") -> subprocess.Popen:
    """Start one ``python -m repro.dist worker`` process dialled at
    ``address`` (with ``src`` prepended to its ``PYTHONPATH``).  It is a
    fresh interpreter started with ``Popen``, not a fork of this
    process, so it inherits none of this process's threads, sockets or
    imports.  Each worker leads its own process group
    (``start_new_session``), so killing "the worker" takes its forked
    pool children with it -- a bare SIGKILL on the agent alone would
    orphan them.  Shared by :class:`LocalCluster` and
    :class:`SubprocessWorkerFleet`."""
    env = dict(os.environ)
    src = str(_src_root())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    argv = [sys.executable, "-m", "repro.dist", "worker",
            "--connect", address,
            "--processes", str(processes),
            "--slots", str(slots or 0),  # 0 = executor width
            "--heartbeat", str(heartbeat_period)]
    if name:
        argv += ["--name", name]
    return subprocess.Popen(
        argv,
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)


def sleepy_echo(arg: dict) -> Any:
    """Demo/test job: sleep ``arg["sleep_sec"]`` then return
    ``arg["value"]``.  Module-level so subprocess workers can import it
    by reference; the sleep gives kill-mid-lease tests a window in
    which the job is reliably in flight."""
    import time as _time

    _time.sleep(float(arg.get("sleep_sec", 0.0)))
    return arg.get("value")


class LocalCluster:
    """Coordinator + N workers on localhost, wired for tests.

    ``processes`` is forwarded to each worker: 0 (default in thread
    mode) executes jobs inline on worker threads; >= 1 gives each
    worker its own process pool.  ``slots=None`` (default) matches
    each worker's concurrent leases to its executor width, the same
    rule ``WorkerAgent`` itself applies.  Lease/heartbeat knobs
    default to the coordinator's production values; tests shrink them
    to exercise the reaper quickly.
    """

    def __init__(self, n_workers: int = 2, mode: str = "thread",
                 processes: int | None = None, slots: int | None = None,
                 lease_timeout: float | None = None,
                 worker_timeout: float | None = None,
                 heartbeat_period: float = 0.2,
                 max_attempts: int | None = None) -> None:
        if mode not in ("thread", "subprocess"):
            raise ValueError(f"unknown cluster mode {mode!r}")
        self.mode = mode
        self.n_workers = n_workers
        self.processes = processes if processes is not None else \
            (0 if mode == "thread" else 1)
        self.slots = slots
        self.heartbeat_period = heartbeat_period
        kwargs: dict[str, Any] = {}
        if lease_timeout is not None:
            kwargs["lease_timeout"] = lease_timeout
        if worker_timeout is not None:
            kwargs["worker_timeout"] = worker_timeout
        if max_attempts is not None:
            kwargs["max_attempts"] = max_attempts
        self.coordinator = Coordinator(host="127.0.0.1", port=0, **kwargs)
        self.coordinator.start()
        self.workers: list[WorkerAgent | subprocess.Popen] = []
        self._runners: list[DistributedCampaignRunner] = []
        self._worker_seq = itertools.count()
        # spawn/retire may be driven from the autoscaler's executor
        # thread while a test thread reads/kills workers.
        self._workers_lock = threading.Lock()
        for _ in range(n_workers):
            self._append_worker()

    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        return self.coordinator.address

    def _spawn_worker(self, index: int):
        name = f"local-{index}"
        if self.mode == "thread":
            agent = WorkerAgent(self.address, processes=self.processes,
                                slots=self.slots, name=name,
                                heartbeat_period=self.heartbeat_period)
            return agent.start()
        return spawn_worker_process(
            self.address, processes=self.processes, slots=self.slots,
            heartbeat_period=self.heartbeat_period, name=name)

    def _append_worker(self) -> None:
        worker = self._spawn_worker(next(self._worker_seq))
        with self._workers_lock:
            self.workers.append(worker)

    # ------------------------------------------------------------------
    # Elastic fleet (the autoscale driver contract)
    # ------------------------------------------------------------------
    def spawn_workers(self, n: int) -> None:
        """Grow the fleet by ``n`` fresh workers (they dial in and
        register asynchronously, like any other worker)."""
        for _ in range(max(0, n)):
            self._append_worker()
        self.n_workers = len(self.workers)

    def retire_workers(self, n: int) -> int:
        """Drain-then-exit ``n`` workers via the coordinator (idle
        ones first).  The retired agents/processes exit on their own
        once drained; ``close()`` reaps whatever is left."""
        return self.coordinator.retire_workers(n)

    # Driver aliases so a cluster can be handed straight to an
    # Autoscaler (or to ``Coordinator.set_autoscaler``).
    def scale_up(self, n: int) -> None:
        self.spawn_workers(n)

    def scale_down(self, n: int) -> None:
        self.retire_workers(n)

    @staticmethod
    def _signal_group(proc: subprocess.Popen, sig: int) -> None:
        """Signal a subprocess worker's whole process group (falling
        back to the process alone if the group is already gone)."""
        try:
            os.killpg(proc.pid, sig)
        except OSError:
            try:
                proc.send_signal(sig)
            except OSError:
                pass

    # ------------------------------------------------------------------
    def runner(self, results_dir: str | None = None,
               max_attempts: int | None = None,
               weight: float = 1.0, name: str = "",
               warehouse: Any = None, tenant: str | None = None,
               ) -> DistributedCampaignRunner:
        """A client runner bound to this cluster (closed with it);
        ``weight`` declares its fair-share scheduling weight and
        ``warehouse=``/``tenant=`` opt into post-commit warehouse
        ingestion (see :class:`DistributedCampaignRunner`)."""
        runner = DistributedCampaignRunner(
            self.address, results_dir=results_dir,
            max_attempts=max_attempts, weight=weight, name=name,
            warehouse=warehouse, tenant=tenant)
        self._runners.append(runner)
        return runner

    def wait_for_workers(self, n: int | None = None,
                         timeout: float = 10.0) -> None:
        """Block until ``n`` (default: all spawned) workers are
        registered with the coordinator -- subprocess workers race
        their own startup.  Raises :class:`RuntimeError` at once when
        fewer than ``n`` subprocess workers are still running (their
        output goes to ``DEVNULL``, so one that died at start would
        otherwise leave this waiting out ``timeout``)."""
        want = self.n_workers if n is None else n
        deadline = time.monotonic() + timeout
        while len(self.coordinator.status()["workers"]) < want:
            self._check_running(want)
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"only {len(self.coordinator.status()['workers'])} of "
                    f"{want} workers registered after {timeout}s")
            time.sleep(0.02)

    def _check_running(self, want: int) -> None:
        if self.mode != "subprocess":
            return
        with self._workers_lock:
            workers = list(self.workers)
        exited = [(index, proc) for index, proc in enumerate(workers)
                  if proc.poll() is not None]
        running = len(workers) - len(exited)
        if running < want:
            raise RuntimeError(
                f"only {running} subprocess worker(s) still running, "
                f"{want} wanted: " + ", ".join(
                    f"worker {index} (pid {proc.pid}) exited with code "
                    f"{proc.returncode}" for index, proc in exited))

    def kill_worker(self, index: int = 0) -> None:
        """Abruptly kill one worker mid-whatever-it-was-doing: SIGKILL
        for subprocess workers, a no-goodbye socket drop for thread
        workers.  The coordinator sees a disconnect and requeues the
        worker's leases."""
        victim = self.workers[index]
        if isinstance(victim, WorkerAgent):
            victim.kill()
        else:
            # Kill the whole group: a crashed host takes its pool
            # children down too (and orphans would otherwise linger).
            self._signal_group(victim, signal.SIGKILL)
            victim.wait(timeout=10)

    def close(self) -> None:
        for runner in self._runners:
            runner.close()
        self._runners.clear()
        with self._workers_lock:
            workers, self.workers = list(self.workers), []
        for worker in workers:
            if isinstance(worker, WorkerAgent):
                worker.stop()
            elif worker.poll() is None:
                self._signal_group(worker, signal.SIGTERM)
                try:
                    worker.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    self._signal_group(worker, signal.SIGKILL)
                    worker.wait(timeout=5)
        self.coordinator.stop()

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SubprocessWorkerFleet:
    """Autoscale driver for a standalone coordinator: real ``python -m
    repro.dist worker`` subprocesses, grown directly and shrunk through
    the broker's drain-then-exit retirement.

    This is what ``python -m repro.dist coordinator --autoscale
    min:max`` hands its autoscaler; it holds no broker state of its
    own -- the policy reads the status snapshot, this merely acts.
    """

    def __init__(self, coordinator: Coordinator, processes: int = 1,
                 slots: int | None = None,
                 heartbeat_period: float = DEFAULT_HEARTBEAT_PERIOD) -> None:
        self.coordinator = coordinator
        self.processes = processes
        self.slots = slots
        self.heartbeat_period = heartbeat_period
        self._procs: list[subprocess.Popen] = []
        self._seq = itertools.count(1)
        self._lock = threading.Lock()

    def scale_up(self, n: int) -> None:
        for _ in range(max(0, n)):
            proc = spawn_worker_process(
                self.coordinator.address, processes=self.processes,
                slots=self.slots,
                heartbeat_period=self.heartbeat_period,
                name=f"auto-{next(self._seq)}")
            with self._lock:
                self._procs.append(proc)

    def scale_down(self, n: int) -> None:
        self.coordinator.retire_workers(n)
        self.reap()

    def reap(self) -> None:
        """Forget (and wait on) children that already drained out."""
        with self._lock:
            self._procs = [p for p in self._procs if p.poll() is None]

    def close(self, timeout: float = 10.0) -> None:
        """Terminate whatever is still running (coordinator shutdown
        already told them to exit; this is the backstop)."""
        with self._lock:
            procs, self._procs = self._procs, []
        for proc in procs:
            if proc.poll() is None:
                LocalCluster._signal_group(proc, signal.SIGTERM)
        deadline = time.monotonic() + timeout
        for proc in procs:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                LocalCluster._signal_group(proc, signal.SIGKILL)
                proc.wait(timeout=5)
