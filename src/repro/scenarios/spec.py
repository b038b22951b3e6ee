"""Declarative scenario specs.

A :class:`Scenario` fully determines one run: the HIL rig configuration
(topology/workload/MAC knobs via :class:`~repro.experiments.hil.HilConfig`),
the master ``seed``, how long to run, and a timed **fault schedule** of
:class:`~repro.scenarios.faults.Fault` primitives.  Scenarios are plain
data -- picklable for the campaign runner's worker processes and
JSON-serializable for the results store -- and every stochastic draw in a
run derives from ``seed``, so a scenario replayed with the same seed is
bit-identical.

Builder style::

    scenario = (Scenario("primary-crash", duration_sec=60.0)
                .at(20.0, NodeCrash("ctrl_a"))
                .at(40.0, NodeRecover("ctrl_a")))

Grids for campaigns::

    specs = sweep([scenario], seeds=range(5),
                  params={"link_prr_...": [...]})
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Sequence

from repro.experiments.hil import HilConfig
from repro.scenarios.faults import Fault


@dataclass(frozen=True)
class ScheduledFault:
    """One fault primitive pinned to a simulated-time instant."""

    at_sec: float
    fault: Fault


@dataclass
class Scenario:
    """Everything needed to reproduce one run of the HIL stack."""

    name: str
    hil: HilConfig = field(default_factory=HilConfig)
    seed: int = 1
    duration_sec: float = 60.0
    schedule: list[ScheduledFault] = field(default_factory=list)
    sample_period_sec: float = 1.0
    description: str = ""
    tags: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def at(self, at_sec: float, *faults: Fault) -> "Scenario":
        """Append fault(s) at ``at_sec``; returns ``self`` for chaining."""
        if at_sec < 0:
            raise ValueError(f"fault time must be >= 0, got {at_sec}")
        for fault in faults:
            self.schedule.append(ScheduledFault(at_sec, fault))
        return self

    def with_seed(self, seed: int) -> "Scenario":
        """An independent copy of this scenario re-seeded to ``seed``."""
        return replace(self, seed=seed, schedule=list(self.schedule))

    def with_params(self, **hil_overrides: Any) -> "Scenario":
        """A copy with :class:`HilConfig` fields overridden."""
        return replace(self, hil=replace(self.hil, **hil_overrides),
                       schedule=list(self.schedule))

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def build_config(self) -> HilConfig:
        """The rig config for this run: the scenario seed wins."""
        return replace(self.hil, seed=self.seed)

    def sorted_schedule(self) -> list[ScheduledFault]:
        return sorted(self.schedule, key=lambda item: item.at_sec)

    # ------------------------------------------------------------------
    # Serialization (results store)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "duration_sec": self.duration_sec,
            "sample_period_sec": self.sample_period_sec,
            "description": self.description,
            "tags": list(self.tags),
            "hil": dataclasses.asdict(self.hil),
            "schedule": [
                {"at_sec": item.at_sec, "kind": item.fault.kind,
                 **dataclasses.asdict(item.fault)}
                for item in self.sorted_schedule()
            ],
        }


def sweep(scenarios: Sequence[Scenario], seeds: Iterable[int],
          params: dict[str, Iterable[Any]] | None = None) -> list[Scenario]:
    """Expand a scenario x seed x parameter grid into concrete scenarios.

    ``params`` maps :class:`HilConfig` field names to value lists; the
    cross product of all value lists is applied to every (scenario, seed)
    pair.  Parameterized variants get a ``name`` suffix recording the
    parameter values, so results aggregate per grid cell.
    """
    cells: list[dict[str, Any]] = [{}]
    for key, values in (params or {}).items():
        cells = [dict(cell, **{key: value})
                 for cell in cells for value in values]
    expanded: list[Scenario] = []
    for scenario in scenarios:
        for cell in cells:
            variant = scenario.with_params(**cell) if cell else scenario
            if cell:
                suffix = ",".join(f"{k}={v}" for k, v in sorted(cell.items()))
                variant = replace(variant, name=f"{scenario.name}[{suffix}]",
                                  schedule=list(variant.schedule))
            for seed in seeds:
                expanded.append(variant.with_seed(seed))
    return expanded
