"""Run drivers free their rig before they return.

A rig is one reference cycle (the engine queue holds node, MAC and RTOS
callbacks, and those hold the engine), so reference counting alone never
frees it.  Each test turns automatic collection off around one driver
call and counts what the call left behind: a driver that does not
collect its own rig leaves it for the next run to carry.
"""

from __future__ import annotations

import gc

import pytest

from repro.experiments.hil import HilRig
from repro.experiments.widegrid import (
    WideGridConfig,
    WideGridRig,
    run_widegrid_mac_lifetime,
    run_widegrid_trial,
)
from repro.net.mac.rtlink import RtLinkMac
from repro.scenarios import run_scenario, stock_scenario
from repro.sim.engine import Engine

SMALL_GRID = WideGridConfig(n_nodes=12, duration_sec=3.0)


def _left_behind(run, *types: type) -> dict[str, int]:
    """How many more instances of each of ``types`` are alive after
    ``run()`` than before, with automatic collection off throughout."""

    def census() -> dict[str, int]:
        counts = dict.fromkeys(types, 0)
        for obj in gc.get_objects():
            if type(obj) in counts:
                counts[type(obj)] += 1
        return counts

    gc.collect()
    gc.disable()
    try:
        before = census()
        run()
        after = census()
    finally:
        gc.enable()
    return {t.__name__: after[t] - before[t] for t in types}


def test_widegrid_trial_frees_its_rig():
    left = _left_behind(lambda: run_widegrid_trial(SMALL_GRID),
                        WideGridRig, RtLinkMac, Engine)
    assert left == {"WideGridRig": 0, "RtLinkMac": 0, "Engine": 0}


@pytest.mark.parametrize("protocol", ["rtlink", "bmac", "smac"])
def test_mac_lifetime_frees_its_engine(protocol):
    left = _left_behind(
        lambda: run_widegrid_mac_lifetime(protocol, SMALL_GRID), Engine)
    assert left == {"Engine": 0}


def test_run_scenario_frees_its_rig():
    scenario = stock_scenario("primary-crash", crash_at_sec=2.0,
                              duration_sec=4.0)
    left = _left_behind(lambda: run_scenario(scenario), HilRig, Engine)
    assert left == {"HilRig": 0, "Engine": 0}


def test_widegrid_rig_derives_no_node_streams():
    rig = WideGridRig(SMALL_GRID)
    names = list(rig.rng.names())
    assert "topology" in names
    assert not [name for name in names if name.startswith("node:")]
