"""State-sharing policy: validation, and who sends passive snapshots.

The runtime only tests ``mode != "passive"``, so an unchecked typo
would silently run active sharing while the run record still names
the typo.  In passive mode only a BACKUP instance applies a snapshot,
so only a primary that has a backup sends one.
"""

import pytest

from repro.evm.runtime import StateSharingPolicy
from repro.experiments.hil import (
    ACTUATOR,
    CTRL_A,
    CTRL_B,
    SENSOR,
    TASK_CTRL,
    HilRig,
)
from repro.scenarios import OutputWedge, Scenario, run_scenario
from repro.scenarios.stock import fast_hil


def test_unknown_mode_raises():
    with pytest.raises(ValueError, match="'active' or 'passive'"):
        StateSharingPolicy(mode="pasive")


def test_scenario_with_unknown_mode_raises():
    spec = Scenario("typo", hil=fast_hil(state_sharing_mode="pasive"),
                    duration_sec=1.0)
    with pytest.raises(ValueError, match="'pasive'"):
        run_scenario(spec)


def test_only_a_primary_with_a_backup_sends_snapshots():
    rig = HilRig(fast_hil(state_sharing_mode="passive"))
    rig.run_for_seconds(30.0)
    stats = {node: rig.runtimes[node].stats
             for node in (SENSOR, ACTUATOR, CTRL_A, CTRL_B)}
    assert stats[SENSOR].snapshots_sent == 0
    assert stats[ACTUATOR].snapshots_sent == 0
    assert stats[CTRL_A].snapshots_sent > 0
    assert stats[CTRL_A].snapshots_sent == stats[CTRL_B].snapshots_applied


def test_promoted_last_backup_sends_no_snapshots():
    rig = HilRig(fast_hil(state_sharing_mode="passive"))
    rig.run_for_seconds(10.0)
    OutputWedge(TASK_CTRL, 75.0).apply(rig)
    rig.run_for_seconds(30.0)
    assert rig.active_controller() == CTRL_B
    assert rig.runtimes[CTRL_B].stats.snapshots_sent == 0
