"""Scenario execution and parallel campaign sweeps.

:func:`run_scenario` executes one :class:`~repro.scenarios.spec.Scenario`
on a fresh HIL rig and returns its :class:`~repro.scenarios.metrics.RunMetrics`.
:class:`CampaignRunner` fans a list of scenarios (typically a
``sweep(...)`` grid) out across worker processes, persists one JSON record
per run into a :class:`~repro.scenarios.store.ResultsStore`, and
aggregates per-scenario summary statistics.

Scenarios are self-contained picklable values, so the pool workers need no
shared state: each rebuilds its rig from the spec and the recorded seed,
which is also why any stored run can be reproduced bit-identically later.

Throughput mechanics for large (100+-scenario) grids:

- the worker pool is **persistent**: lazily spawned on the first parallel
  ``run()`` and reused by every subsequent one (``close()`` or use the
  runner as a context manager to reap it), so back-to-back sweeps stop
  paying process-spawn cost per call;
- submission is **chunked** (~4 chunks per worker), batching the
  per-task pickle round trips ``Executor.map`` would otherwise pay one
  job at a time;
- result records **stream**: each record is written to the results
  store's staging area as it arrives from its worker, and the staged
  set is committed over the previous campaign only when the grid
  finishes -- a failed or interrupted campaign leaves the previously
  persisted one intact.  The runner still keeps every record in memory
  for ``CampaignResult.records``.  Records, summaries and telemetry
  rows are kept in job order whatever order the jobs finish in, so
  summaries and goldens are unchanged;
- each run **frees its rig** before it returns: a rig is one reference
  cycle, so :func:`run_scenario` collects it at once instead of leaving
  it to the next automatic collection, which would land while the next
  rig is being built.  A worker holds one rig at a time.

:func:`_run_campaign` is the campaign body of this runner and of the
distributed one; each runner supplies only how its jobs settle.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import os
import re
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import repro.obs as obs_mod
from repro.obs import instrument
from repro.scenarios.metrics import RunMetrics, collect
from repro.scenarios.spec import Scenario
from repro.sim.clock import SEC


def run_scenario(scenario: Scenario) -> RunMetrics:
    """Build a rig from ``scenario``, run it to its horizon, collect
    metrics.  Deterministic in (scenario, seed)."""
    from repro.experiments.hil import HilRig

    rig = HilRig(scenario=scenario)
    times_sec: list[float] = []
    levels_pct: list[float] = []
    setpoints_pct: list[float] = []

    def sample() -> None:
        times_sec.append(rig.engine.now / SEC)
        levels_pct.append(rig.read("lts_level_pct"))
        setpoints_pct.append(rig.commanded_setpoint())
        if rig.engine.now < int(scenario.duration_sec * SEC):
            rig.engine.post(int(scenario.sample_period_sec * SEC),
                            sample)

    rig.engine.post(int(scenario.sample_period_sec * SEC), sample)
    rig.run_for_seconds(scenario.duration_sec)
    metrics = collect(rig, scenario, times_sec, levels_pct, setpoints_pct)
    # The rig is one reference cycle (queued callbacks hold the engine),
    # so reference counting never frees it: collect it now, not while
    # the next run builds its own.  ``del`` also empties the cell that
    # ``sample`` closes over.
    del rig
    gc.collect()
    return metrics


def _run_record(indexed: tuple[str, Scenario]) -> dict[str, Any]:
    """Pool worker: one run -> one JSON-ready record.

    With telemetry enabled (``REPRO_OBS=1`` reaches pool children via
    the environment) the record carries a transient ``"obs"`` key: the
    delta of this process's registry across the run.  Runners POP that
    key before records are staged or summarized -- it is routed to the
    store's ``metrics.jsonl`` side channel so the record stream (and
    every golden digest over it) stays byte-identical to obs-off runs.
    """
    run_id, scenario = indexed
    meters = instrument.campaign_meters()
    if meters is None:
        metrics = run_scenario(scenario)
        return {"run_id": run_id, "scenario": scenario.to_dict(),
                "metrics": metrics.to_dict()}
    registry = obs_mod.get_registry()
    before = registry.values()
    start = time.perf_counter()
    try:
        metrics = run_scenario(scenario)
    except BaseException:
        meters.runs_failed.inc()
        raise
    meters.runs.inc()
    meters.run_seconds.observe(time.perf_counter() - start)
    return {"run_id": run_id, "scenario": scenario.to_dict(),
            "metrics": metrics.to_dict(),
            "obs": obs_mod.delta_values(before, registry.values())}


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.=-]+", "-", name)


def _reap_pool(pool: ProcessPoolExecutor) -> None:
    """Finalizer target (module-level so the runner itself stays
    collectable): shut the abandoned pool down without blocking GC."""
    pool.shutdown(wait=False)


@dataclass
class CampaignResult:
    """Everything a finished campaign produced.

    ``failed`` is only populated by runners that can lose individual
    jobs without aborting the campaign (the distributed runner's
    bounded-retry path); the local pool either completes a grid or
    raises.
    """

    records: list[dict[str, Any]] = field(default_factory=list)
    summary: dict[str, Any] = field(default_factory=dict)
    store_root: str | None = None
    failed: list[dict[str, Any]] = field(default_factory=list)

    def metrics(self) -> list[dict[str, Any]]:
        return [record["metrics"] for record in self.records]


class CampaignRunner:
    """Fan a scenario grid out across processes and aggregate results.

    ``max_workers=None`` uses the machine's CPU count; ``parallel=False``
    (or a single worker) runs the grid serially in-process, which is also
    the baseline the throughput benchmark compares against.  Jobs are
    submitted in ~4 chunks per worker, a balance between pickle batching
    and tail latency.

    ``warehouse=`` (a ``repro.warehouse`` directory path or open
    :class:`~repro.warehouse.Warehouse`) opts into streaming ingestion:
    each campaign is ingested into the warehouse right after its store
    commit, under this runner's ``tenant`` and the store directory's
    name as the campaign key.  It requires ``results_dir`` (the
    warehouse ingests committed stores, not in-memory results).
    """

    def __init__(self, results_dir: str | None = None,
                 max_workers: int | None = None,
                 parallel: bool = True,
                 warehouse: Any = None,
                 tenant: str = "default") -> None:
        self.results_dir = results_dir
        self.max_workers = max_workers or (os.cpu_count() or 1)
        self.parallel = parallel and self.max_workers > 1
        self.warehouse = warehouse
        self.tenant = tenant
        if warehouse is not None and results_dir is None:
            raise ValueError("warehouse= requires results_dir= (the "
                             "warehouse ingests committed stores)")
        self._pool: ProcessPoolExecutor | None = None
        self._pool_finalizer: weakref.finalize | None = None

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _executor(self) -> ProcessPoolExecutor:
        """The persistent pool, spawned on first use and reused across
        ``run()`` calls until :meth:`close`.  A finalizer backstops
        callers that drop the runner without closing it: the workers are
        reaped when the runner is garbage-collected instead of
        accumulating until interpreter exit."""
        if self._pool is not None and getattr(self._pool, "_broken", False):
            # A worker died abnormally (OOM-kill, segfault): the executor
            # is permanently broken, so reap it and respawn -- the runner
            # recovers on the next run() like the per-run pool did.
            self.close()
        if self._pool is None:
            # Fork, named rather than left to the platform default
            # (forkserver on Linux from Python 3.14, which would add a
            # resource-tracker process and a slower start).
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=multiprocessing.get_context("fork"))
            self._pool_finalizer = weakref.finalize(
                self, _reap_pool, self._pool)
        return self._pool

    def close(self) -> None:
        """Reap the worker pool (idempotent).  The runner stays usable --
        the next parallel ``run()`` spawns a fresh pool."""
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _chunksize_for(self, n_jobs: int) -> int:
        return max(1, n_jobs // (self.max_workers * 4))

    def _settled(self, fn, jobs: Sequence[Any]
                 ) -> Iterator[tuple[int, bool, Any, int]]:
        """Run ``fn`` over ``jobs`` and yield ``(index, True, result, 1)``
        in job order (``map`` preserves submission order).  A job that
        raises re-raises here: the local pool has no per-job retry."""
        if not self.parallel:
            stream = map(fn, jobs)
        else:
            stream = self._executor().map(
                fn, jobs, chunksize=self._chunksize_for(len(jobs)))
        for index, result in enumerate(stream):
            yield index, True, result, 1

    def map_jobs(self, fn, jobs: Sequence[Any],
                 on_result=None) -> list[Any]:
        """Fan arbitrary picklable jobs across the persistent pool.

        The generic face of the runner: ``fn`` must be a module-level
        callable and each job a picklable value (the wide-grid campaign
        drivers use this to share the scenario subsystem's pool,
        chunking and respawn machinery).  Results preserve job order;
        serial runners map in-process.

        ``on_result(index, result)`` is an optional progress callback
        fired once per completed job.  The local pool fires it in job
        order (``map`` preserves submission order); the distributed
        runner, which shares this signature, fires it in completion
        order -- treat the index, not the call order, as the identity.
        """
        results = []
        with contextlib.closing(self._settled(fn, jobs)) as settled:
            for index, _ok, result, _attempts in settled:
                results.append(result)
                if on_result is not None:
                    on_result(index, result)
        return results

    def run(self, scenarios: Sequence[Scenario],
            on_result=None) -> CampaignResult:
        """Run the grid through :func:`_run_campaign`;
        ``on_result(record)`` fires per run in job order."""
        return _run_campaign(self, scenarios, on_result)


def _in_job_order(by_index: dict[int, Any]) -> list[Any]:
    return [value for _index, value in sorted(by_index.items())]


def _run_campaign(runner: Any, scenarios: Sequence[Scenario],
                  on_result=None) -> CampaignResult:
    """The campaign body of both runners.

    ``runner._settled(fn, jobs)`` yields ``(index, ok, value, attempts)``
    per job in any order; ``value`` is the record, or the error text of
    a job that failed for good, which is committed as an error record
    and listed on ``CampaignResult.failed``.  Records, failures and
    telemetry rows are kept in job order whatever order jobs settle in.
    """
    jobs = [(f"{i:03d}_{_slug(s.name)}_s{s.seed}", s)
            for i, s in enumerate(scenarios)]
    store = None
    if runner.results_dir is not None:
        from repro.scenarios.store import ResultsStore

        store = ResultsStore(runner.results_dir)
        # Leftovers from an interrupted earlier process must not mix
        # into this campaign's staged set.
        store.discard_staged()
        store.begin_staging()
    records: dict[int, dict[str, Any]] = {}
    failed: dict[int, dict[str, Any]] = {}
    obs_rows: dict[int, dict[str, Any]] = {}
    try:
        with contextlib.closing(runner._settled(_run_record, jobs)) as settled:
            for index, ok, value, attempts in settled:
                run_id, scenario = jobs[index]
                if ok:
                    # Telemetry deltas ride a transient key (see
                    # _run_record): strip them before the record is
                    # staged, summarized or digested, so obs-on records
                    # equal obs-off records.
                    obs_row = value.pop("obs", None)
                    if obs_row is not None:
                        obs_rows[index] = {"run_id": run_id,
                                           "metrics": obs_row}
                    record = records[index] = value
                else:
                    record = failed[index] = {
                        "run_id": run_id, "scenario": scenario.to_dict(),
                        "error": str(value), "attempts": attempts}
                if store is not None:
                    store.stage_run(run_id, record)
                if ok and on_result is not None:
                    on_result(record)
    except BaseException:
        # The previously persisted campaign stays untouched.
        if store is not None:
            store.discard_staged()
        raise
    # Failure records ride into summarize() so failed_runs reflects
    # them; aggregates still cover completed runs only.
    result = CampaignResult(records=_in_job_order(records),
                            failed=_in_job_order(failed))
    result.summary = summarize(result.records + result.failed)
    if store is not None:
        # Commit replaces the previous campaign wholesale: a reused
        # directory must describe only THIS campaign, or stale
        # records from a previous (larger) grid would silently mix
        # into load_runs().
        store.commit_staged()
        store.save_summary(result.summary)
        # Same wholesale rule for the telemetry side channel: an
        # empty row set removes a stale metrics.jsonl.
        store.save_metrics_jsonl(_in_job_order(obs_rows))
        result.store_root = str(store.root)
        if runner.warehouse is not None:
            from repro.warehouse import ingest_store

            ingest_store(runner.warehouse, store.root, tenant=runner.tenant)
    return result


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
_AGGREGATED = ("failover_latency_sec", "detection_latency_sec",
               "packet_loss_ratio", "control_cost", "max_excursion_pct",
               "mean_io_latency_ms")


def _stats(values: list[float]) -> dict[str, float] | None:
    if not values:
        return None
    return {"n": len(values), "mean": sum(values) / len(values),
            "min": min(values), "max": max(values)}


def summarize(records: list[dict[str, Any]]) -> dict[str, Any]:
    """Per-scenario aggregate statistics over a campaign's records.

    Failed-run records (the distributed runner commits these with an
    ``error`` key instead of ``metrics``) are excluded from every
    aggregate -- ``total_runs`` counts completed runs only -- but
    surface as ``failed_runs``, and ``trace_dropped`` totals the rows
    bounded Trace rings evicted, so silent data loss is visible at the
    summary level.
    """
    failed = [r for r in records if "error" in r]
    records = [r for r in records if "error" not in r]
    by_scenario: dict[str, list[dict[str, Any]]] = {}
    for record in records:
        by_scenario.setdefault(record["metrics"]["scenario"],
                               []).append(record["metrics"])
    summary: dict[str, Any] = {
        "total_runs": len(records),
        "failed_runs": len(failed),
        "trace_dropped": sum(r["metrics"].get("trace_dropped", 0)
                             for r in records),
        "scenarios": {},
    }
    for name, runs in sorted(by_scenario.items()):
        entry: dict[str, Any] = {
            "runs": len(runs),
            "seeds": sorted(m["seed"] for m in runs),
            "failovers_executed": sum(m["failovers_executed"]
                                      for m in runs),
            "crashes": sum(m["crashes"] for m in runs),
        }
        for key in _AGGREGATED:
            stats = _stats([m[key] for m in runs if m[key] is not None])
            if stats is not None:
                entry[key] = stats
        summary["scenarios"][name] = entry
    return summary


def format_summary_table(summary: dict[str, Any]) -> str:
    """The aggregate failover-latency table campaigns print."""
    header = (f"{'scenario':<42} {'runs':>4} {'failover lat (s)':>18} "
              f"{'detect lat (s)':>16} {'loss':>6} {'cost':>6}")
    lines = [header, "-" * len(header)]
    for name, entry in summary["scenarios"].items():
        def cell(key: str) -> str:
            stats = entry.get(key)
            if stats is None:
                return "--"
            return f"{stats['mean']:.2f}"

        fo = entry.get("failover_latency_sec")
        fo_cell = (f"{fo['mean']:6.2f} [{fo['min']:.2f}..{fo['max']:.2f}]"
                   if fo else "--")
        lines.append(f"{name:<42} {entry['runs']:>4} {fo_cell:>18} "
                     f"{cell('detection_latency_sec'):>16} "
                     f"{cell('packet_loss_ratio'):>6} "
                     f"{cell('control_cost'):>6}")
    return "\n".join(lines)
