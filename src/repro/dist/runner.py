"""Client-side distributed campaign runner.

:class:`DistributedCampaignRunner` is the drop-in face of the
subsystem: the same ``run(scenarios)`` / ``map_jobs(fn, jobs)`` calls
as the local :class:`~repro.scenarios.runner.CampaignRunner`, but the
jobs travel to a :class:`~repro.dist.coordinator.Coordinator` and fan
out across however many :class:`~repro.dist.worker.WorkerAgent`
processes are attached to it.

The contracts are preserved deliberately:

- ``run`` ships the *same* module-level job function the local pool
  uses (``repro.scenarios.runner._run_record``) with the same
  ``(run_id, scenario)`` jobs, so the records -- and therefore
  ``summarize()`` output -- are byte-identical to a local run of the
  same grid;
- results stream into the same staged-commit
  :class:`~repro.scenarios.store.ResultsStore` area as they arrive and
  only :meth:`~repro.scenarios.store.ResultsStore.commit_staged` over
  the previous campaign once the grid is complete, so a campaign
  killed mid-flight (client, coordinator or workers) leaves the
  previously committed results intact;
- ``map_jobs`` preserves job order in its return value even though
  results arrive in completion order.

Jobs that permanently fail (a worker died ``max_attempts`` times while
holding them) are *recorded*: ``run`` writes a failed-run record into
the store and lists it on ``CampaignResult.failed`` instead of
pretending the grid shrank; ``map_jobs`` raises
:class:`DistributedJobError` naming every lost job, mirroring how the
local pool propagates a worker exception.
"""

from __future__ import annotations

import io
import pickle
import socket
import sys
import types
from typing import Any, Callable, Sequence

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
from repro.scenarios.runner import CampaignResult, _run_record, _slug, summarize
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
    def _submit_and_collect(
            self, fn: Callable[[Any], Any], jobs: Sequence[Any],
            on_raw_result: Callable[[int, bool, Any], None] | None = None,
    ) -> list[tuple[bool, Any, int]]:
        """Ship ``(fn, job)`` pairs, gather ``(ok, value, attempts)`` in
        job order.  ``on_raw_result(index, ok, value)`` streams each
        settled job in completion order."""
        if not jobs:
            return []
        sock = self._connection()
        job_ids = [f"j{i:06d}" for i in range(len(jobs))]
        blobs = [_dumps_portable((fn, job)) for job in jobs]
        header: dict[str, Any] = {"type": "submit", "job_ids": job_ids,
                                  "weight": self.weight}
        if self.max_attempts is not None:
            header["max_attempts"] = self.max_attempts
        send_message(sock, header, pack_blob_list(blobs))
        outcomes: dict[int, tuple[bool, Any, int]] = {}

        def settle(meta: dict[str, Any], blob: Any) -> None:
            index = int(str(meta["job_id"])[1:])
            ok = bool(meta["ok"])
            value = (loads_payload(blob) if ok
                     else str(meta.get("error", "job failed")))
            outcomes[index] = (ok, value, int(meta.get("attempts", 1)))
            if on_raw_result is not None:
                on_raw_result(index, ok, value)

        while True:
            try:
                reply, payload = recv_message(sock)
            except (ConnectionClosed, OSError) as exc:
                self.close()
                raise ConnectionError(
                    f"lost coordinator at {self.address} with "
                    f"{len(jobs) - len(outcomes)} job(s) outstanding"
                ) from exc
            kind = reply["type"]
            if kind == MSG_RESULT or kind == MSG_RESULT_BATCH:
                for meta, blob in frame_entries(reply, payload):
                    settle(meta, blob)
            elif kind == "done":
                # The coordinator sends "done" strictly after the last
                # result frame for this batch.
                break
            elif kind == "error":
                self.close()
                raise RuntimeError(f"coordinator rejected submission: "
                                   f"{reply.get('error')}")
        assert len(outcomes) == len(jobs)
        return [outcomes[i] for i in range(len(jobs))]

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
        jobs = list(jobs)
        if not jobs:
            return []

        def stream(index: int, ok: bool, value: Any) -> None:
            if ok and on_result is not None:
                on_result(index, value)

        outcomes = self._submit_and_collect(fn, jobs, stream)
        failures = [(f"j{i:06d}", value)
                    for i, (ok, value, _) in enumerate(outcomes) if not ok]
        if failures:
            raise DistributedJobError(failures)
        return [value for _ok, value, _attempts in outcomes]

    def run(self, scenarios: Sequence[Scenario],
            on_result: Callable[[dict[str, Any]], None] | None = None,
            ) -> CampaignResult:
        """Distributed twin of ``CampaignRunner.run``: same job ids,
        same records, same staged-commit store writes, byte-identical
        ``summary`` for a grid that completes cleanly.  Permanently
        failed runs are committed as error records and listed on
        ``CampaignResult.failed``."""
        jobs = [(f"{i:03d}_{_slug(s.name)}_s{s.seed}", s)
                for i, s in enumerate(scenarios)]
        store = None
        if self.results_dir is not None:
            from repro.scenarios.store import ResultsStore

            store = ResultsStore(self.results_dir)
            store.discard_staged()
            store.begin_staging()
        obs_rows: list[dict[str, Any]] = []

        def stream(index: int, ok: bool, value: Any) -> None:
            if ok:
                # Workers with telemetry enabled (REPRO_OBS=1 in their
                # environment) attach a transient "obs" delta; strip it
                # before staging so records stay byte-identical to
                # obs-off runs, and route it to metrics.jsonl instead.
                obs_row = value.pop("obs", None)
                if obs_row is not None:
                    obs_rows.append({"run_id": value["run_id"],
                                     "metrics": obs_row})
                if store is not None:
                    store.stage_run(value["run_id"], value)
                if on_result is not None:
                    on_result(value)

        try:
            outcomes = self._submit_and_collect(_run_record, jobs, stream)
        except BaseException:
            if store is not None:
                store.discard_staged()
            raise
        records: list[dict[str, Any]] = []
        failed: list[dict[str, Any]] = []
        for (run_id, scenario), (ok, value, attempts) in zip(jobs, outcomes):
            if ok:
                records.append(value)
                continue
            failure = {"run_id": run_id, "scenario": scenario.to_dict(),
                       "error": str(value), "attempts": attempts}
            failed.append(failure)
            if store is not None:
                store.stage_run(run_id, failure)
        # Failure records ride into summarize() so failed_runs reflects
        # them; aggregates still cover completed runs only.
        result = CampaignResult(records=records,
                                summary=summarize(records + failed),
                                failed=failed)
        if store is not None:
            store.commit_staged()
            store.save_summary(result.summary)
            store.save_metrics_jsonl(obs_rows)
            result.store_root = str(store.root)
            if self.warehouse is not None:
                from repro.scenarios.runner import _ingest_committed

                _ingest_committed(self.warehouse, store.root, self.tenant)
        return result
