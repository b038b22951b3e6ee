"""Unit tests: one fault primitive at a time against the HIL stack."""

import random

import pytest

from repro.control.compiler import SLOT_OUTPUT, SLOT_SETPOINT
from repro.experiments.hil import (
    ACTUATOR,
    CTRL_A,
    CTRL_B,
    GATEWAY,
    HilRig,
    TASK_ACT,
    TASK_CTRL,
)
from repro.net.link_quality import DegradedLinks, FixedPrr, PerfectLinks
from repro.scenarios import (
    BabblingInterferer,
    BatteryDrain,
    CapsuleRetune,
    CapsuleUpgrade,
    ClockDrift,
    LinkDegrade,
    NodeCrash,
    NodeRecover,
    OutputWedge,
    Scenario,
)
from repro.scenarios.stock import fast_hil


def quick(name: str, duration_sec: float = 20.0, **hil) -> Scenario:
    return Scenario(name, hil=fast_hil(**hil), duration_sec=duration_sec)


def settled_rig(spec: Scenario) -> HilRig:
    rig = HilRig(spec)
    rig.run_for_seconds(5.0)
    return rig


class TestDegradedLinksModel:
    """Pure link-model behavior -- no rig needed."""

    def test_multiplies_base_survival(self):
        model = DegradedLinks(FixedPrr(0.5), prr=0.5)
        rng = random.Random(1)
        survived = sum(model.frame_survives("a", "b", 10.0, 32, rng)
                       for _ in range(4000))
        assert 0.22 < survived / 4000 < 0.28

    def test_targeted_links_only(self):
        model = DegradedLinks(PerfectLinks(), prr=0.0,
                              links=(("a", "b"),))
        rng = random.Random(1)
        assert not model.frame_survives("a", "b", 10.0, 32, rng)
        assert not model.frame_survives("b", "a", 10.0, 32, rng)
        assert model.frame_survives("a", "c", 10.0, 32, rng)

    def test_revert_is_pass_through(self):
        model = DegradedLinks(PerfectLinks(), prr=0.0)
        model.active = False
        rng = random.Random(1)
        assert model.frame_survives("a", "b", 10.0, 32, rng)

    def test_rejects_bad_prr(self):
        with pytest.raises(ValueError):
            DegradedLinks(PerfectLinks(), prr=1.5)


class TestNodeCrashRecover:
    def test_crash_halts_node(self):
        rig = settled_rig(quick("crash").at(10.0, NodeCrash(CTRL_A)))
        rig.run_for_seconds(10.0)
        assert rig.kernels[CTRL_A].crashed
        assert rig.nodes[CTRL_A].failed

    def test_recover_reboots_and_rejoins(self):
        spec = quick("recover", duration_sec=30.0) \
            .at(8.0, NodeCrash(CTRL_A)) \
            .at(12.0, NodeRecover(CTRL_A))
        rig = settled_rig(spec)
        rig.run_for_seconds(10.0)
        kernel = rig.kernels[CTRL_A]
        assert not kernel.crashed
        assert not rig.nodes[CTRL_A].failed
        jobs_at_reboot = kernel.task(TASK_CTRL).jobs_released
        rig.run_for_seconds(10.0)
        # The scheduler's release chains really resumed.
        assert kernel.task(TASK_CTRL).jobs_released > jobs_at_reboot

    def test_recover_on_healthy_node_is_noop(self):
        rig = settled_rig(quick("noop-recover").at(6.0,
                                                   NodeRecover(CTRL_A)))
        rig.run_for_seconds(5.0)
        assert not rig.kernels[CTRL_A].crashed


class TestLinkDegrade:
    def test_global_degrade_loses_frames(self):
        rig = settled_rig(quick("degrade").at(0.0, LinkDegrade(prr=0.8)))
        rig.run_for_seconds(15.0)
        assert rig.medium.stats.channel_losses > 0

    def test_window_reverts(self):
        spec = quick("degrade-window", duration_sec=30.0).at(
            0.0, LinkDegrade(prr=0.5, duration_sec=10.0))
        rig = HilRig(spec)
        rig.run_for_seconds(12.0)
        losses_at_heal = rig.medium.stats.channel_losses
        assert losses_at_heal > 0
        assert rig.medium.link_model.active is False
        rig.run_for_seconds(15.0)
        assert rig.medium.stats.channel_losses == losses_at_heal

    def test_targeted_partition_spares_other_links(self):
        links = tuple((CTRL_A, n) for n in (CTRL_B, ACTUATOR, GATEWAY))
        rig = settled_rig(quick("partition", duration_sec=30.0).at(
            5.0, LinkDegrade(prr=0.0, links=links)))
        rig.run_for_seconds(20.0)
        # The rest of the mesh still delivers (sensor -> backup et al.).
        assert rig.runtimes[ACTUATOR].stats.data_applied > 0


class TestBabblingInterferer:
    def test_forged_frames_rejected(self):
        spec = quick("babble", duration_sec=25.0).at(
            5.0, BabblingInterferer(node=CTRL_B, task=TASK_CTRL,
                                    consumer=TASK_ACT, value=99.0,
                                    slot=SLOT_OUTPUT, period_ms=500))
        rig = HilRig(spec)
        rig.run_for_seconds(25.0)
        assert rig.runtimes[ACTUATOR].stats.rejected_by_switch > 0

    def test_babbler_stops_at_window_end(self):
        spec = quick("babble-window", duration_sec=30.0).at(
            5.0, BabblingInterferer(node=CTRL_B, task=TASK_CTRL,
                                    consumer=TASK_ACT, value=99.0,
                                    period_ms=500, duration_sec=5.0))
        rig = HilRig(spec)
        rig.run_for_seconds(12.0)
        rejected_at_end = rig.runtimes[ACTUATOR].stats.rejected_by_switch
        rig.run_for_seconds(15.0)
        assert rig.runtimes[ACTUATOR].stats.rejected_by_switch == \
            rejected_at_end


class TestClockDrift:
    def test_drift_step_applied(self):
        rig = settled_rig(quick("drift").at(
            2.0, ClockDrift(CTRL_B, drift_ppm=80.0)))
        assert rig.nodes[CTRL_B].clock.drift_ppm == pytest.approx(80.0)
        # Other nodes keep the platform default.
        assert rig.nodes[CTRL_A].clock.drift_ppm == pytest.approx(10.0)


class TestBatteryDrain:
    def test_partial_drain(self):
        rig = settled_rig(quick("drain").at(
            2.0, BatteryDrain(CTRL_A, 0.5, crash_on_depletion=False)))
        assert rig.nodes[CTRL_A].battery.remaining_fraction < 0.5001
        assert not rig.kernels[CTRL_A].crashed

    def test_full_drain_browns_out(self):
        rig = settled_rig(quick("brownout").at(
            2.0, BatteryDrain(CTRL_A, 1.0)))
        assert rig.nodes[CTRL_A].battery.depleted
        assert rig.kernels[CTRL_A].crashed

    def test_full_drain_without_crash_flag(self):
        rig = settled_rig(quick("drain-no-crash").at(
            2.0, BatteryDrain(CTRL_A, 1.0, crash_on_depletion=False)))
        assert rig.nodes[CTRL_A].battery.depleted
        assert not rig.kernels[CTRL_A].crashed


class TestEvmInterventions:
    def test_capsule_retune_pokes_all_instances(self):
        rig = settled_rig(quick("poke", duration_sec=20.0).at(
            5.0, CapsuleRetune(TASK_CTRL, SLOT_SETPOINT, 44.0,
                               from_node=GATEWAY)))
        rig.run_for_seconds(10.0)
        for ctrl in (CTRL_A, CTRL_B):
            memory = rig.runtimes[ctrl].instances[TASK_CTRL].memory
            assert memory[SLOT_SETPOINT] == pytest.approx(44.0)

    def test_capsule_upgrade_disseminates(self):
        rig = settled_rig(quick("upgrade", duration_sec=20.0).at(
            5.0, CapsuleUpgrade(version=3, from_node=GATEWAY)))
        rig.run_for_seconds(10.0)
        for ctrl in (CTRL_A, CTRL_B):
            assert rig.runtimes[ctrl].capsules.version_of(
                "lts_ctrl_law") == 3

    def test_output_wedge_targets_active_primary(self):
        rig = settled_rig(quick("wedge", duration_sec=30.0).at(
            8.0, OutputWedge(TASK_CTRL, 75.0)))
        rig.run_for_seconds(5.0)
        instance = rig.runtimes[CTRL_A].instances[TASK_CTRL]
        assert instance.forced_outputs.get(SLOT_OUTPUT) == \
            pytest.approx(75.0)

    def test_output_wedge_unknown_task_raises_clearly(self):
        rig = settled_rig(quick("wedge-typo", duration_sec=20.0).at(
            8.0, OutputWedge("lts_ctl", 75.0)))  # typo for lts_ctrl
        with pytest.raises(ValueError, match="lts_ctl"):
            rig.run_for_seconds(10.0)

    def test_injector_records_applications(self):
        spec = quick("record", duration_sec=20.0) \
            .at(3.0, ClockDrift(CTRL_B, 40.0)) \
            .at(6.0, BatteryDrain(CTRL_A, 0.1, crash_on_depletion=False))
        rig = HilRig(spec)
        rig.run_for_seconds(10.0)
        assert [a.kind for a in rig.injector.applied] == \
            ["ClockDrift", "BatteryDrain"]
        assert rig.injector.applied_times_sec() == [3.0, 6.0]
        assert rig.trace.count("scenario.fault") == 2
