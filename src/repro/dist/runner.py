"""Client-side distributed campaign runner.

:class:`DistributedCampaignRunner` is the drop-in face of the
subsystem: the same ``run(scenarios)`` / ``map_jobs(fn, jobs)`` calls
as the local :class:`~repro.scenarios.runner.CampaignRunner`, but the
jobs travel to a :class:`~repro.dist.coordinator.Coordinator` and fan
out across however many :class:`~repro.dist.worker.WorkerAgent`
processes are attached to it.

The contracts are preserved deliberately:

- both runners share one campaign body
  (``repro.scenarios.runner._run_campaign``); this module supplies
  only the transport, :meth:`DistributedCampaignRunner._settled`, which
  yields each job as its result arrives.  ``run`` therefore ships the
  *same* module-level job function the local pool uses
  (``repro.scenarios.runner._run_record``) with the same ``(run_id,
  scenario)`` jobs, and the records, ``summarize()`` output and
  telemetry rows are byte-identical to a local run of the same grid;
- results stream into the same staged-commit
  :class:`~repro.scenarios.store.ResultsStore` area as they arrive and
  only :meth:`~repro.scenarios.store.ResultsStore.commit_staged` over
  the previous campaign once the grid is complete, so a campaign
  killed mid-flight (client, coordinator or workers) leaves the
  previously committed results intact;
- ``map_jobs`` preserves job order in its return value even though
  results arrive in completion order;
- a batch abandoned before the coordinator's ``done`` (a callback that
  raises, a result that fails to unpickle, an interrupt) closes the
  connection, so the coordinator cancels the rest of the batch and the
  next call dials afresh instead of reading the old batch's results.

Jobs that permanently fail (a worker died ``max_attempts`` times while
holding them) are *recorded*: ``run`` writes a failed-run record into
the store and lists it on ``CampaignResult.failed`` instead of
pretending the grid shrank; ``map_jobs`` raises
:class:`DistributedJobError` naming every lost job, mirroring how the
local pool propagates a worker exception.
"""

from __future__ import annotations

import contextlib
import io
import pickle
import socket
import sys
import types
from typing import Any, Callable, Iterator, Sequence

from repro.dist.fairshare import validate_weight
from repro.dist.protocol import (
    MSG_RESULT,
    MSG_RESULT_BATCH,
    ConnectionClosed,
    connect,
    frame_entries,
    import_attr,
    loads_payload,
    pack_blob_list,
    recv_message,
    send_message,
)
from repro.scenarios.runner import CampaignResult, _run_campaign
# Not called here (the shared body calls it in its own module), but
# perfbench's tracer wraps ``repro.dist.runner.summarize`` by name.
from repro.scenarios.runner import summarize  # noqa: F401
from repro.scenarios.spec import Scenario


def _main_module_name() -> str | None:
    """The importable name of the module running as ``__main__``, when
    runpy recorded one (``python -m pkg.mod`` sets
    ``__main__.__spec__.name = "pkg.mod"``); None for plain scripts."""
    spec = getattr(sys.modules.get("__main__"), "__spec__", None)
    name = getattr(spec, "name", None)
    return name if name and name != "__main__" else None


class _PortablePickler(pickle.Pickler):
    """Submit-side pickler that rebinds ``__main__`` globals.

    ``python -m pkg.mod`` executes ``pkg.mod`` under the name
    ``__main__``, so its functions *and classes* pickle as
    ``__main__.<qualname>`` -- references no worker process can resolve
    (their ``__main__`` is the worker CLI), which turns every job into
    a deterministic unpickle failure.  Any class or function whose home
    module is ``__main__`` is shipped as an ``import_attr`` call
    against the importable twin instead.  Only the client's submit path
    pays the per-object hook; result pickling stays stock.
    """

    def reducer_override(self, obj: Any) -> Any:
        if (isinstance(obj, (type, types.FunctionType))
                and getattr(obj, "__module__", None) == "__main__"):
            name = _main_module_name()
            if name is not None:
                try:
                    import_attr(name, obj.__qualname__)
                except Exception:
                    return NotImplemented  # e.g. <locals> -- stock path
                return (import_attr, (name, obj.__qualname__))
        return NotImplemented


def _dumps_portable(value: Any) -> bytes:
    buffer = io.BytesIO()
    _PortablePickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(value)
    return buffer.getvalue()


class DistributedJobError(RuntimeError):
    """One or more jobs were permanently lost (bounded retries burned)."""

    def __init__(self, failures: list[tuple[str, str]]) -> None:
        self.failures = failures
        names = ", ".join(job_id for job_id, _ in failures[:5])
        more = "" if len(failures) <= 5 else f" (+{len(failures) - 5} more)"
        super().__init__(
            f"{len(failures)} job(s) permanently failed: {names}{more}")


class DistributedCampaignRunner:
    """Run campaigns through a coordinator at ``address`` (host:port).

    The connection is dialed lazily on the first call and reused across
    campaigns; ``close()`` (or the context manager) says goodbye.
    ``max_attempts=None`` defers to the coordinator's configured
    default.  ``weight`` declares this tenant's fair-share scheduling
    weight (relative to the other campaigns on the same coordinator: a
    weight-4 tenant earns 4 grant rounds for every 1 a weight-1 tenant
    gets while both are backlogged); it must be a finite number > 0 --
    validated here, at submission time, rather than letting the
    coordinator reject the whole batch later.

    ``warehouse=`` (a ``repro.warehouse`` directory path or open
    warehouse) opts into streaming ingestion: each committed campaign
    is ingested right after ``commit_staged``/``save_summary``, keyed
    under this runner's name as the tenant (override with ``tenant=``).
    Requires ``results_dir``.
    """

    def __init__(self, address: str, results_dir: str | None = None,
                 max_attempts: int | None = None,
                 connect_timeout: float = 10.0, name: str = "",
                 weight: float = 1.0, warehouse: Any = None,
                 tenant: str | None = None) -> None:
        self.address = address
        self.results_dir = results_dir
        self.max_attempts = max_attempts
        self.connect_timeout = connect_timeout
        self.name = name or "campaign-client"
        self.weight = validate_weight(weight)
        self.warehouse = warehouse
        self.tenant = tenant if tenant is not None else self.name
        if warehouse is not None and results_dir is None:
            raise ValueError("warehouse= requires results_dir= (the "
                             "warehouse ingests committed stores)")
        self._sock: socket.socket | None = None

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    def _connection(self) -> socket.socket:
        if self._sock is None:
            self._sock = connect(self.address, role="client",
                                 name=self.name,
                                 timeout=self.connect_timeout)
        return self._sock

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                send_message(sock, {"type": "goodbye"})
            except OSError:
                pass
            sock.close()

    def __enter__(self) -> "DistributedCampaignRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def shutdown_coordinator(self) -> None:
        """Ask the coordinator to stop (it tells its workers to exit);
        used by the CLI quickstart and the smoke job to tear a
        localhost cluster down from the submitting side."""
        sock = self._connection()
        send_message(sock, {"type": "shutdown"})
        try:
            recv_message(sock)  # "stopping" ack (best effort)
        except (ConnectionClosed, OSError):
            pass
        self.close()

    def status(self) -> dict[str, Any]:
        """The coordinator's live status snapshot."""
        sock = self._connection()
        send_message(sock, {"type": "status"})
        while True:  # skip any stray frames until the matching reply
            header, _ = recv_message(sock)
            if header.get("type") == "status":
                return header.get("status", {})

    # ------------------------------------------------------------------
    # Fan-out core
    # ------------------------------------------------------------------
    def _settled(self, fn: Callable[[Any], Any], jobs: Sequence[Any]
                 ) -> Iterator[tuple[int, bool, Any, int]]:
        """Ship ``(fn, job)`` pairs and yield ``(index, ok, value,
        attempts)`` for each job in completion order; ``value`` is the
        result, or the error text of a job that permanently failed."""
        if not jobs:
            return
        sock = self._connection()
        job_ids = [f"j{i:06d}" for i in range(len(jobs))]
        blobs = [_dumps_portable((fn, job)) for job in jobs]
        header: dict[str, Any] = {"type": "submit", "job_ids": job_ids,
                                  "weight": self.weight}
        if self.max_attempts is not None:
            header["max_attempts"] = self.max_attempts
        outstanding = len(jobs)
        try:
            send_message(sock, header, pack_blob_list(blobs))
            while True:
                try:
                    reply, payload = recv_message(sock)
                except (ConnectionClosed, OSError) as exc:
                    raise ConnectionError(
                        f"lost coordinator at {self.address} with "
                        f"{outstanding} job(s) outstanding") from exc
                kind = reply["type"]
                if kind == MSG_RESULT or kind == MSG_RESULT_BATCH:
                    for meta, blob in frame_entries(reply, payload):
                        ok = bool(meta["ok"])
                        value = (loads_payload(blob) if ok
                                 else str(meta.get("error", "job failed")))
                        outstanding -= 1
                        yield (int(str(meta["job_id"])[1:]), ok, value,
                               int(meta.get("attempts", 1)))
                elif kind == "done":  # sent after the batch's last result
                    if outstanding:
                        raise ConnectionError(
                            f"coordinator at {self.address} ended a "
                            f"batch with {outstanding} job(s) unsettled")
                    return
                elif kind == "error":
                    raise RuntimeError(f"coordinator rejected submission: "
                                       f"{reply.get('error')}")
        except BaseException:
            # Abandoned before "done": the batch's unread frames would
            # desync the next call, so drop the connection (see module
            # docs); the coordinator cancels the rest of the batch.
            self.close()
            raise

    # ------------------------------------------------------------------
    # CampaignRunner-compatible API
    # ------------------------------------------------------------------
    def map_jobs(self, fn: Callable[[Any], Any], jobs: Sequence[Any],
                 on_result: Callable[[int, Any], None] | None = None,
                 ) -> list[Any]:
        """Distributed twin of ``CampaignRunner.map_jobs``: results come
        back in job order; ``on_result(index, result)`` streams them in
        completion order.  Raises :class:`DistributedJobError` if any
        job was permanently lost."""
        results: dict[int, Any] = {}
        failures: list[tuple[str, str]] = []
        with contextlib.closing(self._settled(fn, jobs)) as settled:
            for index, ok, value, _attempts in settled:
                if not ok:
                    failures.append((f"j{index:06d}", value))
                    continue
                results[index] = value
                if on_result is not None:
                    on_result(index, value)
        if failures:
            raise DistributedJobError(sorted(failures))
        return [results[i] for i in range(len(jobs))]

    def run(self, scenarios: Sequence[Scenario],
            on_result: Callable[[dict[str, Any]], None] | None = None,
            ) -> CampaignResult:
        """Distributed twin of ``CampaignRunner.run``, through the same
        campaign body: same job ids, same records, same staged-commit
        store writes, byte-identical ``summary`` for a grid that
        completes cleanly.  ``on_result(record)`` fires in completion
        order.  Permanently failed runs are committed as error records
        and listed on ``CampaignResult.failed``."""
        return _run_campaign(self, scenarios, on_result)
