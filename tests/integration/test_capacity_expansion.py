"""On-line capacity expansion (paper objectives 2 and 3).

"More controllers can be added to share the load and trigger
re-distribution of tasks" / "algorithm replication to a set of nodes
capable of performing the same control function".  On the live HIL rig:
the control task is replicated to the spare controller ctrl_c at runtime,
the head re-declares the assignment with two backups, and after a double
failure (primary wedged, first backup crashed) the second backup ends up
driving the valve.
"""

import pytest

from repro.control.compiler import SLOT_OUTPUT
from repro.evm.failover import ControllerMode
from repro.evm.scheduler_ops import NodeOperations
from repro.experiments.hil import (
    ACTUATOR,
    CTRL_A,
    CTRL_B,
    CTRL_C,
    GATEWAY,
    HilConfig,
    HilRig,
    TASK_CTRL,
)
from repro.scenarios import NodeCrash, OutputWedge
from repro.sim.clock import SEC


def expanded_rig():
    rig = HilRig(HilConfig(settle_sec=800.0, arbitration_holdoff_ticks=1,
                           dormant_delay_ticks=5 * SEC))
    rig.run_for_seconds(10.0)
    # 1. Replicate the running controller (with its live state) to ctrl_c.
    outcomes = []
    ops = NodeOperations(rig.runtimes[CTRL_A])
    ops.replicate_task(TASK_CTRL, CTRL_C, on_done=outcomes.append)
    rig.run_for_seconds(20.0)
    assert outcomes and outcomes[0].ok, outcomes
    # 2. The head re-declares the assignment: two backups now.
    rig.runtimes[GATEWAY].update_assignment(TASK_CTRL, CTRL_A,
                                            [CTRL_B, CTRL_C])
    # 3. Extend the protection web: every controller watches every other
    # (the original rig only wires A <-> B).
    from repro.evm.object_transfer import FaultResponse, HealthAssessment

    controllers = (CTRL_A, CTRL_B, CTRL_C)
    existing = {(a.monitor, a.subject)
                for a in rig.vc.health_assessments()}
    for monitor in controllers:
        for subject in controllers:
            if monitor == subject or (monitor, subject) in existing:
                continue
            assessment = HealthAssessment(
                monitor=monitor, subject=subject, task=TASK_CTRL,
                response=FaultResponse.TRIGGER_BACKUP, max_deviation=5.0,
                threshold=3, heartbeat_timeout_ticks=2 * SEC)
            rig.vc.add_transfer(assessment)
            rig.runtimes[monitor]._add_monitor(assessment)
    rig.run_for_seconds(5.0)
    return rig


class TestCapacityExpansion:
    def test_replica_shadows_after_expansion(self):
        rig = expanded_rig()
        instance = rig.runtimes[CTRL_C].instances[TASK_CTRL]
        assert instance.mode is ControllerMode.BACKUP
        jobs_before = instance.jobs_run
        rig.run_for_seconds(10.0)
        assert instance.jobs_run > jobs_before
        # Its shadow output tracks the active controller's.
        a_out = rig.runtimes[CTRL_A].instances[TASK_CTRL].memory[SLOT_OUTPUT]
        assert instance.memory[SLOT_OUTPUT] == pytest.approx(a_out, abs=1.0)

    def test_double_failure_survived(self):
        rig = expanded_rig()
        # Failure 1: the primary wedges; a backup takes over.
        OutputWedge(TASK_CTRL, 75.0).apply(rig)
        rig.run_for_seconds(15.0)
        first_successor = rig.active_controller()
        assert first_successor in (CTRL_B, CTRL_C)
        # Failure 2: the new primary crashes outright.
        NodeCrash(first_successor).apply(rig)
        rig.run_for_seconds(15.0)
        survivor = rig.active_controller()
        assert survivor in {CTRL_B, CTRL_C} - {first_successor}
        assert rig.runtimes[survivor].instances[TASK_CTRL].mode is \
            ControllerMode.ACTIVE
        # The plant is still being commanded sanely (valve reseated low to
        # refill the drained vessel).
        rig.run_for_seconds(60.0)
        assert rig.read("lts_valve_pct") < 20.0
        level_now = rig.read("lts_level_pct")
        rig.run_for_seconds(60.0)
        assert rig.read("lts_level_pct") >= level_now - 0.5  # recovering
