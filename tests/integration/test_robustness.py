"""Robustness and failure injection on the full HIL stack.

The EVM's reason to exist is surviving the network's failure modes:
lossy links, babbling interferers, runtime reprogramming and parametric
retuning, and combined fault sequences.  Every fault sequence here is
expressed through the ``repro.scenarios`` DSL -- a declarative
:class:`Scenario` with a timed fault schedule, armed on the rig by the
:class:`FaultInjector` -- the same machinery the campaign runner sweeps.
"""

import dataclasses

import pytest

from repro.control.compiler import SLOT_OUTPUT, SLOT_SETPOINT
from repro.evm.bytecode import Instruction, Opcode
from repro.evm.capsule import Capsule
from repro.evm.failover import ControllerMode
from repro.experiments.hil import (
    ACTUATOR,
    CTRL_A,
    CTRL_B,
    CTRL_C,
    GATEWAY,
    NODE_IDS,
    HilConfig,
    HilRig,
    SENSOR,
    TASK_ACT,
    TASK_CTRL,
)
from repro.scenarios import (
    BabblingInterferer,
    CapsuleRetune,
    CapsuleUpgrade,
    LinkDegrade,
    NodeCrash,
    NodeRecover,
    OutputWedge,
    Scenario,
)
from repro.scenarios.stock import fast_hil
from repro.sim.clock import SEC


def scenario(name: str, duration_sec: float, **hil_overrides) -> Scenario:
    return Scenario(name, hil=fast_hil(**hil_overrides),
                    duration_sec=duration_sec)


class TestLossyLinks:
    def test_loop_holds_under_10pct_loss(self):
        spec = scenario("loss-10pct", 60.0).at(0.0, LinkDegrade(prr=0.9))
        rig = HilRig(spec)
        rig.run_for_seconds(60.0)
        assert rig.read("lts_level_pct") == pytest.approx(50.0, abs=2.0)
        assert rig.medium.stats.channel_losses > 0  # losses really occurred

    def test_failover_still_works_under_loss(self):
        spec = scenario("loss-then-wedge", 50.0, detection_threshold=3) \
            .at(0.0, LinkDegrade(prr=0.9)) \
            .at(20.0, OutputWedge(TASK_CTRL, 75.0))
        rig = HilRig(spec)
        rig.run_for_seconds(50.0)
        assert rig.active_controller() == CTRL_B
        assert rig.runtimes[CTRL_B].instances[TASK_CTRL].mode is \
            ControllerMode.ACTIVE

    def test_heavy_loss_degrades_but_does_not_crash(self):
        rig = HilRig(scenario("loss-50pct", 40.0)
                     .at(0.0, LinkDegrade(prr=0.5)))
        rig.run_for_seconds(40.0)
        # The loop wanders more but the stack keeps operating.
        assert 30.0 < rig.read("lts_level_pct") < 70.0
        assert rig.runtimes[ACTUATOR].stats.data_applied > 0


class TestBabblingNode:
    def test_forged_commands_rejected_by_switch(self):
        """A compromised *backup* babbles valve commands.  (The spare,
        ctrl_c, is physically filtered by the TDMA listen schedule; the
        backup is in the actuator's listen set, so the operation switch is
        the line of defense and must refuse every frame.)"""
        spec = scenario("babbler", 40.0).at(
            10.0, BabblingInterferer(node=CTRL_B, task=TASK_CTRL,
                                     consumer=TASK_ACT, value=99.0,
                                     slot=SLOT_OUTPUT, period_ms=500))
        rig = HilRig(spec)
        rig.run_for_seconds(10.0)
        rejected_before = rig.runtimes[ACTUATOR].stats.rejected_by_switch
        rig.run_for_seconds(30.0)
        assert rig.runtimes[ACTUATOR].stats.rejected_by_switch > \
            rejected_before
        # The plant never saw the forged 99 % command.
        assert rig.read("lts_level_pct") == pytest.approx(50.0, abs=1.5)
        assert rig.read("lts_valve_pct") < 20.0


class TestRuntimeReprogramming:
    def test_setpoint_retune_via_parametric_poke(self):
        """Remote parametric control: move the level setpoint 50 -> 42
        on both controllers without touching code."""
        spec = scenario("retune", 420.0).at(
            20.0, CapsuleRetune(TASK_CTRL, SLOT_SETPOINT, 42.0,
                                from_node=GATEWAY))
        rig = HilRig(spec)
        rig.run_for_seconds(420.0)
        assert rig.read("lts_level_pct") == pytest.approx(42.0, abs=1.5)
        # Both the active and backup instances follow the new setpoint.
        for ctrl in (CTRL_A, CTRL_B):
            memory = rig.runtimes[ctrl].instances[TASK_CTRL].memory
            assert memory[SLOT_SETPOINT] == pytest.approx(42.0)

    def test_control_law_upgrade_via_dissemination(self):
        """Ship a v2 control-law capsule over the air; both controllers
        pick it up on their next job (runtime reprogramming)."""
        spec = scenario("ota-upgrade", 40.0).at(
            10.0, CapsuleUpgrade(version=2, from_node=GATEWAY))
        rig = HilRig(spec)
        rig.run_for_seconds(20.0)
        for node_id in (CTRL_A, CTRL_B, SENSOR, ACTUATOR):
            assert rig.runtimes[node_id].capsules.version_of(
                "lts_ctrl_law") == 2, node_id
        # Still regulating on the upgraded law.
        rig.run_for_seconds(20.0)
        assert rig.read("lts_level_pct") == pytest.approx(50.0, abs=1.5)


    def test_faulting_upgrade_is_refused_on_every_replica(self):
        """A v2 law whose final HALT became an out-of-range JMP arrives
        over the air as a peer would send it.  Every node refuses it at
        install, so primary and backup keep running v1 and no replica
        ever faults on it."""
        rig = HilRig(HilConfig(settle_sec=800.0))
        rig.run_for_seconds(10.0)
        law = rig.ctrl_program
        assert law.instructions[-1].opcode is Opcode.HALT
        bad = dataclasses.replace(law, instructions=law.instructions[:-1] + (
            Instruction(Opcode.JMP, len(law) + 1),))
        rig.runtimes[GATEWAY]._disseminate_capsule(
            Capsule.from_program(bad, version=2))
        rig.run_for_seconds(20.0)
        for node_id in NODE_IDS:
            assert rig.runtimes[node_id].capsules.version_of(
                law.name) == 1, node_id
        for node_id in (CTRL_A, CTRL_B, CTRL_C):
            runtime = rig.runtimes[node_id]
            assert runtime.stats.vm_faults == 0, node_id
            assert runtime.stats.capsules_rejected == 1, node_id
            assert rig.trace.count("evm.capsule_rejected",
                                   source=node_id) == 1, node_id
        assert rig.active_controller() == CTRL_A
        assert sum(rt.stats.failovers_executed
                   for rt in rig.runtimes.values()) == 0


class TestCombinedFaults:
    def test_fault_then_crash_of_new_primary_exhausts_backups(self):
        """Double failure: Ctrl-A wedges, Ctrl-B takes over, then Ctrl-B
        crashes.  With no remaining capable backup the head logs a failed
        arbitration rather than promoting garbage."""
        spec = scenario("wedge-then-crash", 35.0,
                        dormant_delay_ticks=3 * SEC) \
            .at(10.0, OutputWedge(TASK_CTRL, 75.0)) \
            .at(20.0, NodeCrash(CTRL_B))
        rig = HilRig(spec)
        rig.run_for_seconds(20.0)
        assert rig.active_controller() == CTRL_B
        rig.run_for_seconds(15.0)
        failures = [e for e in rig.trace.events("evm.failover_failed")]
        assert failures, "head should report exhausted backups"

    def test_sensor_noise_spike_does_not_trip_detection(self):
        """A burst of sensor noise hits both controllers identically, so
        shadow deviation stays near zero and no fault is confirmed."""
        rig = HilRig(scenario("noise-spike", 60.0, sensor_noise_std=1.5,
                              detection_threshold=3))
        rig.run_for_seconds(60.0)
        confirmed = [e for e in rig.trace.events("evm.fault_detected")
                     if e.category == "evm.fault_detected"]
        assert confirmed == []
        assert rig.active_controller() == CTRL_A


class TestCrashRecovery:
    def test_rebooted_primary_is_fenced_by_the_switch(self):
        """Ctrl-A crashes, Ctrl-B takes over, Ctrl-A reboots with stale
        ACTIVE state.  The epoch check in the actuator's operation switch
        must fence the stale ex-primary while the loop stays on Ctrl-B."""
        spec = scenario("crash-recover", 70.0) \
            .at(15.0, NodeCrash(CTRL_A)) \
            .at(35.0, NodeRecover(CTRL_A))
        rig = HilRig(spec)
        rig.run_for_seconds(35.0)
        assert rig.active_controller() == CTRL_B
        rejected_before = rig.runtimes[ACTUATOR].stats.rejected_by_switch
        rig.run_for_seconds(35.0)
        # The reboot really happened and the node is scheduling again.
        assert not rig.kernels[CTRL_A].crashed
        assert rig.trace.count("rtos.restart") == 1
        # ... but the component still answers to Ctrl-B,
        assert rig.active_controller() == CTRL_B
        # the stale replica's publishes were refused,
        assert rig.runtimes[ACTUATOR].stats.rejected_by_switch \
            > rejected_before
        # and the plant never noticed.
        assert rig.read("lts_level_pct") == pytest.approx(50.0, abs=2.0)
