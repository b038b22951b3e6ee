"""Distributed campaign execution: coordinator/worker fan-out over TCP.

The scenario subsystem shards grids across *local* processes; this
package is the next scale step the ROADMAP names -- the same picklable
campaign jobs shipped over sockets to worker agents on any number of
hosts, under the same staged-commit :class:`~repro.scenarios.store
.ResultsStore` contract:

- :mod:`repro.dist.protocol` -- length-prefixed JSON/pickle framing;
- :mod:`repro.dist.coordinator` -- the :class:`Coordinator` job broker
  with heartbeat- and deadline-guarded leases and bounded retries;
- :mod:`repro.dist.worker` -- the thin :class:`WorkerAgent` that leases
  jobs into a local process pool and streams results back;
- :mod:`repro.dist.runner` -- :class:`DistributedCampaignRunner`, the
  drop-in for :class:`~repro.scenarios.runner.CampaignRunner`;
- :mod:`repro.dist.fairshare` -- the weighted deficit-round-robin
  arbiter behind multi-tenant grant rounds;
- :mod:`repro.dist.autoscale` -- :class:`AutoscalePolicy` /
  :class:`Autoscaler`, elastic fleet sizing over a pluggable driver;
- :mod:`repro.dist.cluster` -- :class:`LocalCluster`, the test harness
  (coordinator + N workers in-process or as subprocesses), plus
  :class:`SubprocessWorkerFleet`, the autoscale driver the CLI uses;
- :mod:`repro.dist.cli` -- the ``python -m repro.dist`` entry point
  (``coordinator`` / ``worker`` / ``status`` subcommands).

The names in ``__all__`` resolve on first use (PEP 562), so importing
the package imports none of its modules, and importing one module costs
only that module's own imports.  A worker agent thus loads the wire
protocol and nothing of the simulator, which ``repro.dist.runner`` (and
through it ``repro.dist.cluster``) imports for the campaign records.
"""

import importlib

_HOMES = {
    "Autoscaler": "repro.dist.autoscale",
    "AutoscalePolicy": "repro.dist.autoscale",
    "Coordinator": "repro.dist.coordinator",
    "DistributedCampaignRunner": "repro.dist.runner",
    "DistributedJobError": "repro.dist.runner",
    "FairScheduler": "repro.dist.fairshare",
    "LocalCluster": "repro.dist.cluster",
    "SubprocessWorkerFleet": "repro.dist.cluster",
    "WorkerAgent": "repro.dist.worker",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(home), name)
    globals()[name] = value  # later lookups skip this hook
    return value
