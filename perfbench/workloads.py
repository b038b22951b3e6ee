"""The benchmark's three workloads.

Each workload derives every config seed from the one workload seed, so
the same seed gives the same inputs.  A workload is driven as a closed
loop: one measured unit at a time, the next starting only when the
previous one has returned.

- ``widegrid_1000``: one fig6-style 1000-node random-geometric failover
  trial, serial and in-process (the ``bench_widegrid_1000_trial``
  geometry of ``benchmarks/hotpath.py``: 300 m arena, 25 m radios,
  45 simulated s, primary crash at 10 s, flood suppression auto-on).
- ``hil_campaign``: the seven stock fault scenarios x two seeds through
  a local ``CampaignRunner(max_workers=2)``, committed to a
  ``ResultsStore`` and ingested into a fresh warehouse per campaign.
- ``dist_campaign``: two concurrent tenants on one ``LocalCluster`` of
  two single-process subprocess workers.  Tenant ``hil`` (weight 1)
  runs ``hil_campaign``'s grid through ``run()``; tenant ``grid``
  (weight 2) runs ``map_jobs`` over 24-node ``default_campaign_specs``.

Modules under ``repro`` are imported in :meth:`Workload.load`, not at
module import, so the set-up probe times them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

SCALES: dict[str, dict[str, Any]] = {
    "full": {
        "widegrid": dict(n_nodes=1000, area_m=300.0, radio_range_m=25.0,
                         duration_sec=45.0, report_period_sec=15.0,
                         control_period_sec=5, heartbeat_timeout_sec=15,
                         crash_primary_at_sec=10.0),
        "hil_scenarios": None,  # None = every stock scenario
        "hil_seeds": 2,
        "grid": dict(n_nodes=24, n_seeds=6, duration_sec=12.0),
    },
    # Tiny grids for the smoke test of the benchmark's own code.
    "smoke": {
        "widegrid": dict(n_nodes=40, area_m=80.0, radio_range_m=25.0,
                         duration_sec=12.0, report_period_sec=4.0,
                         control_period_sec=0, heartbeat_timeout_sec=0,
                         crash_primary_at_sec=4.0),
        "hil_scenarios": ("primary-crash", "lossy-links"),
        "hil_seeds": 1,
        "grid": dict(n_nodes=12, n_seeds=1, duration_sec=6.0),
    },
}


def derive_seed(seed: int, label: str) -> int:
    """A config seed derived from the workload seed and a label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 1_000_000 + 1


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:20]


@dataclass
class Outcome:
    """One measured unit or traced pass.

    ``check`` is the output check, deferred so that it runs after the
    clock stops and after any traced pass has removed its wrappers.
    """

    wall_s: float
    runs: int
    outputs: dict[str, str] = field(default_factory=dict)  # name -> digest
    errors: list[str] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)
    check: Callable[["Outcome"], None] | None = None

    def finish(self) -> "Outcome":
        if self.check is not None:
            check, self.check = self.check, None
            try:
                check(self)
            except Exception as exc:  # a broken output is a failed unit
                self.errors.append(f"output check: {exc!r}")
        return self


class Workload:
    name = ""
    workers = 0        # pool / cluster workers the workload configures
    threads = 1        # client threads submitting load
    has_pool = False   # measured units run outside this process
    distributed = False  # measured units go through the dist wire
    shape = "closed loop, one unit at a time"

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        self.seed = seed
        self.scale = SCALES[scale]
        self.workdir = workdir

    def load(self) -> None:
        """Import the layers this workload drives and build its inputs."""

    def start(self) -> None:
        """Spawn the pool or cluster the measured units run on."""

    def stop(self) -> None:
        """Stop every process :meth:`start` spawned and wait for it."""

    def unit(self, index: int) -> Outcome:
        """One measured unit (untraced, on the pool or cluster)."""
        raise NotImplementedError

    def serial(self, index: int) -> Outcome:
        """The same jobs serially in this process (traced passes)."""
        return self.unit(index)

    def _fresh_dir(self, name: str) -> Path:
        path = self.workdir / name
        shutil.rmtree(path, ignore_errors=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        return path


# ----------------------------------------------------------------------
class WideGrid(Workload):
    name = "widegrid_1000"

    def load(self) -> None:
        from repro.experiments.widegrid import WideGridConfig
        from repro.sim.clock import SEC

        p = self.scale["widegrid"]
        self.config = WideGridConfig(
            n_nodes=p["n_nodes"], area_m=p["area_m"],
            radio_range_m=p["radio_range_m"],
            seed=derive_seed(self.seed, "widegrid"),
            duration_sec=p["duration_sec"],
            report_period_sec=p["report_period_sec"],
            control_period_ticks=p["control_period_sec"] * SEC,
            heartbeat_timeout_ticks=p["heartbeat_timeout_sec"] * SEC,
            crash_primary_at_sec=p["crash_primary_at_sec"])

    def unit(self, index: int) -> Outcome:
        from repro.experiments import widegrid

        start = time.perf_counter()
        result = widegrid.run_widegrid_trial(self.config)
        outcome = Outcome(time.perf_counter() - start, 1)
        record = dataclasses.asdict(result)
        outcome.outputs["widegrid.result"] = digest(
            json.dumps(record, sort_keys=True))
        if result.failovers_executed < 1:
            outcome.errors.append("widegrid: no failover executed")
        if result.active_controller_final != result.roles["ctrl_b"]:
            outcome.errors.append(
                f"widegrid: active controller "
                f"{result.active_controller_final!r} is not the backup")
        return outcome


# ----------------------------------------------------------------------
def hil_grid(seed: int, scale: dict[str, Any]) -> list:
    """The stock fault scenarios x derived seeds (shared by
    ``hil_campaign`` and ``dist_campaign``'s ``hil`` tenant)."""
    from repro.scenarios.stock import stock_names, stock_scenario

    names = scale["hil_scenarios"] or stock_names()
    seeds = [derive_seed(seed, f"hil:{i}") for i in range(scale["hil_seeds"])]
    return [stock_scenario(name, seed=s) for name in names for s in seeds]


def check_campaign(outcome: Outcome, result, n_runs: int,
                   warehouse_dir: Path) -> None:
    """Digest the committed summary bytes, check the store and the
    warehouse agree on them, and drop the per-unit warehouse."""
    from repro.warehouse import campaign_summary, open_warehouse

    root = Path(result.store_root)
    text = (root / "campaign.json").read_text()
    outcome.outputs["hil.summary"] = digest(text)
    summary = json.loads(text)
    if summary["total_runs"] != n_runs or summary["failed_runs"]:
        outcome.errors.append(f"hil: {summary['total_runs']}/{n_runs} runs,"
                              f" {summary['failed_runs']} failed")
    if result.failed:
        outcome.errors.append(f"hil: {len(result.failed)} runs lost")
    with open_warehouse(warehouse_dir) as wh:
        stored = json.dumps(campaign_summary(wh, root.name, "hil"),
                            indent=2, sort_keys=True)
    if stored != text:
        outcome.errors.append("hil: warehouse summary differs from the store")
    shutil.rmtree(warehouse_dir, ignore_errors=True)


class HilCampaign(Workload):
    name = "hil_campaign"
    workers = 2
    has_pool = True

    def load(self) -> None:
        import repro.scenarios.runner  # noqa: F401
        import repro.warehouse  # noqa: F401

        self.grid = hil_grid(self.seed, self.scale)

    def start(self) -> None:
        from repro.scenarios import CampaignRunner

        self.runner = CampaignRunner(
            results_dir=str(self.workdir / "hil_store"), max_workers=2,
            tenant="hil")
        # Spawn both pool processes before the first measured unit, with
        # jobs that do nothing, so set-up times only imports and spawn.
        self.runner.map_jobs(abs, [0, 0])

    def stop(self) -> None:
        runner = getattr(self, "runner", None)
        if runner is not None:
            runner.close()

    def _campaign(self, runner, index: int) -> Outcome:
        warehouse = self._fresh_dir(f"hil_wh_{index}")
        runner.warehouse = str(warehouse)
        start = time.perf_counter()
        result = runner.run(self.grid)
        outcome = Outcome(time.perf_counter() - start, len(self.grid))
        outcome.check = lambda o: check_campaign(o, result, len(self.grid),
                                                 warehouse)
        return outcome

    def unit(self, index: int) -> Outcome:
        return self._campaign(self.runner, index)

    def serial(self, index: int) -> Outcome:
        from repro.scenarios import CampaignRunner

        runner = CampaignRunner(
            results_dir=str(self.workdir / "hil_store_serial"),
            parallel=False, tenant="hil")
        return self._campaign(runner, index)


# ----------------------------------------------------------------------
class DistCampaign(Workload):
    name = "dist_campaign"
    workers = 2
    threads = 2
    has_pool = True
    distributed = True
    shape = "closed loop, two concurrent tenants, one unit at a time"

    def load(self) -> None:
        import repro.dist  # noqa: F401
        import repro.warehouse  # noqa: F401
        from repro.experiments.widegrid import default_campaign_specs

        self.grid = hil_grid(self.seed, self.scale)
        p = self.scale["grid"]
        self.specs = default_campaign_specs(
            n_nodes=p["n_nodes"],
            seeds=[derive_seed(self.seed, f"grid:{i}")
                   for i in range(p["n_seeds"])],
            duration_sec=p["duration_sec"])

    def start(self) -> None:
        from repro.dist import LocalCluster

        self.cluster = LocalCluster(n_workers=2, mode="subprocess",
                                    processes=1)
        self.cluster.wait_for_workers(timeout=60.0)
        self.hil_runner = self.cluster.runner(
            results_dir=str(self.workdir / "dist_store"), weight=1.0,
            name="hil", tenant="hil")
        self.grid_runner = self.cluster.runner(weight=2.0, name="grid")

    def stop(self) -> None:
        cluster = getattr(self, "cluster", None)
        if cluster is not None:
            cluster.close()

    def _records_digest(self, records: list) -> str:
        return digest(json.dumps(records, sort_keys=True))

    def unit(self, index: int) -> Outcome:
        from repro.experiments.widegrid import run_widegrid_spec

        warehouse = self._fresh_dir(f"dist_wh_{index}")
        self.hil_runner.warehouse = str(warehouse)
        results: dict[str, Any] = {}
        errors: list[str] = []

        def tenant(name: str, call) -> None:
            started = time.perf_counter()
            try:
                results[name] = call()
            except Exception as exc:  # reported as a failed unit
                errors.append(f"{name}: {exc!r}")
            results[name + "_s"] = time.perf_counter() - started

        threads = [
            threading.Thread(target=tenant, args=(
                "hil", lambda: self.hil_runner.run(self.grid))),
            threading.Thread(target=tenant, args=(
                "grid", lambda: self.grid_runner.map_jobs(
                    run_widegrid_spec, self.specs))),
        ]
        before = self.cluster.coordinator.status()["stats"]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        outcome = Outcome(time.perf_counter() - start,
                          len(self.grid) + len(self.specs), errors=errors)
        status = self.cluster.coordinator.status()
        outcome.extra = {
            "hil_s": results.get("hil_s"), "grid_s": results.get("grid_s"),
            "lease_wait_p50_s": status["lease_wait_p50_sec"],
            "lease_wait_p95_s": status["lease_wait_p95_sec"],
            "stats": {key: status["stats"][key] - before.get(key, 0)
                      for key in status["stats"]}}
        if "grid" in results:
            outcome.outputs["grid.records"] = self._records_digest(
                results["grid"])
        if "hil" in results:
            outcome.check = lambda o: check_campaign(
                o, results["hil"], len(self.grid), warehouse)
        return outcome

    def serial(self, index: int) -> Outcome:
        from repro.experiments import widegrid
        from repro.scenarios import CampaignRunner

        warehouse = self._fresh_dir(f"dist_wh_serial_{index}")
        runner = CampaignRunner(
            results_dir=str(self.workdir / "dist_store_serial"),
            parallel=False, tenant="hil", warehouse=str(warehouse))
        start = time.perf_counter()
        result = runner.run(self.grid)
        records = runner.map_jobs(widegrid.run_widegrid_spec, self.specs)
        outcome = Outcome(time.perf_counter() - start,
                          len(self.grid) + len(self.specs))
        outcome.outputs["grid.records"] = self._records_digest(records)
        outcome.check = lambda o: check_campaign(o, result, len(self.grid),
                                                 warehouse)
        return outcome


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (WideGrid, HilCampaign, DistCampaign)}


def make(name: str, seed: int, scale: str, workdir: Path) -> Workload:
    return WORKLOADS[name](seed, scale, workdir)
