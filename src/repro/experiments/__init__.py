"""Experiment harnesses.

Scenario builders shared by the examples, the integration tests and the
benchmarks.  Each maps to an entry of DESIGN.md's per-experiment index:

- :mod:`~repro.experiments.hil` -- the six-node wireless HIL rig of Fig. 5
  (gateway + sensor + two controllers + actuator + spare over RT-Link,
  plant behind a ModBus gateway);
- :mod:`~repro.experiments.fig6` -- the headline failover transient
  (Fig. 6(b)) and the primary/backup configuration (Fig. 6(a));
- :mod:`~repro.experiments.mac_comparison` -- RT-Link vs B-MAC vs S-MAC
  lifetime/latency (the paper's section 2.1 claims);
- :mod:`~repro.experiments.fig1` -- Virtual Component composition and
  BQP/greedy assignment (Fig. 1);
- :mod:`~repro.experiments.metrics` -- series and latency utilities.

The names in ``__all__`` resolve on first use (PEP 562), as in
:mod:`repro.dist`: importing one harness, such as
:mod:`~repro.experiments.widegrid`, does not load the plant and the HIL
rig along with the package.
"""

import importlib

_HOMES = {
    "HilConfig": "repro.experiments.hil",
    "HilRig": "repro.experiments.hil",
    "Fig6Config": "repro.experiments.fig6",
    "Fig6Result": "repro.experiments.fig6",
    "run_fig6": "repro.experiments.fig6",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(home), name)
    globals()[name] = value  # later lookups skip this hook
    return value
