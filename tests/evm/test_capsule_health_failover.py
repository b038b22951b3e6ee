"""Capsules, health monitors, failover arbitration, virtual components."""

import pytest

from repro.evm.capsule import (
    Capsule,
    CapsuleInstallError,
    CapsuleStore,
    _capsule_digest,
)
from repro.evm.bytecode import Assembler, Instruction, Opcode, Program
from repro.evm.failover import (
    ArbitrationError,
    Arbitrator,
    Candidate,
    ControllerMode,
)
from repro.evm.health import HeartbeatMonitor, OutputPlausibilityMonitor
from repro.evm.object_transfer import (
    BidirectionalTransfer,
    DirectionalTransfer,
    FaultResponse,
    HealthAssessment,
    TemporalConditionalTransfer,
    directional_legs,
)
from repro.evm.tasks import LogicalTask
from repro.evm.virtual_component import (
    MembershipError,
    VcMember,
    VirtualComponent,
)
from repro.hardware.mcu import Mcu
from repro.sim.clock import MS, SEC


def make_program(name="law"):
    return Assembler().assemble(f".name {name}\nhalt")


class TestCapsules:
    def test_install_and_retrieve(self):
        store = CapsuleStore()
        capsule = Capsule.from_program(make_program(), version=1)
        assert store.install(capsule)
        assert store.get("law").version == 1

    def test_stale_version_refused(self):
        store = CapsuleStore()
        store.install(Capsule.from_program(make_program(), version=2))
        assert not store.install(Capsule.from_program(make_program(),
                                                      version=1))
        assert store.rejected_stale == 1

    def test_newer_version_replaces(self):
        store = CapsuleStore()
        store.install(Capsule.from_program(make_program(), version=1))
        assert store.install(Capsule.from_program(make_program(), version=2))
        assert store.version_of("law") == 2

    def test_corruption_rejected(self):
        store = CapsuleStore()
        capsule = Capsule.from_program(make_program(), version=1)
        with pytest.raises(CapsuleInstallError):
            store.install(capsule.corrupted_copy(3))
        assert store.rejected_corrupt == 1
        assert not store.has("law")

    @pytest.mark.parametrize("blob", [
        make_program().encode()[:-1] + bytes([99]),
        make_program().encode()[:-3],
        Program("law", (Instruction(Opcode.JMP, 5),)).encode(),
    ], ids=["unknown-opcode", "truncated", "jump-out-of-range"])
    def test_invalid_program_rejected(self, blob):
        """A capsule that passes its digest but does not decode, or whose
        program does not compile, changes nothing."""
        mcu = Mcu()
        store = CapsuleStore(rom_bank=mcu.rom)
        store.install(Capsule.from_program(make_program(), version=1))
        rom_used = mcu.rom.used
        capsule = Capsule(name="law", version=2, blob=blob,
                          digest=_capsule_digest(blob))
        assert capsule.verify()
        with pytest.raises(CapsuleInstallError, match="not a valid program"):
            store.install(capsule)
        assert store.rejected_invalid == 1
        assert store.rejected_corrupt == 0
        assert store.version_of("law") == 1
        assert mcu.rom.used == rom_used

    def test_rom_accounting(self):
        mcu = Mcu()
        store = CapsuleStore(rom_bank=mcu.rom)
        capsule = Capsule.from_program(make_program(), version=1)
        store.install(capsule)
        assert mcu.rom.used == capsule.size_bytes

    def test_install_hook(self):
        installed = []
        store = CapsuleStore(on_install=installed.append)
        store.install(Capsule.from_program(make_program(), version=1))
        assert len(installed) == 1

    def test_summary(self):
        store = CapsuleStore()
        store.install(Capsule.from_program(make_program("a"), version=3))
        assert store.summary() == {"a": 3}


class TestOutputPlausibility:
    def test_confirms_after_threshold(self):
        monitor = OutputPlausibilityMonitor(plausible_max=100.0, threshold=3)
        assert not monitor.observe(1, 150.0)
        assert not monitor.observe(2, 150.0)
        assert monitor.observe(3, 150.0)  # third consecutive confirms
        assert monitor.confirmed

    def test_good_sample_resets_count(self):
        monitor = OutputPlausibilityMonitor(plausible_max=100.0, threshold=3)
        monitor.observe(1, 150.0)
        monitor.observe(2, 150.0)
        monitor.observe(3, 50.0)  # healthy sample
        assert not monitor.observe(4, 150.0)
        assert monitor.consecutive == 1

    def test_deviation_from_shadow(self):
        """The case-study detection: 75 % is in range but deviates."""
        monitor = OutputPlausibilityMonitor(
            plausible_min=0.0, plausible_max=100.0, max_deviation=5.0,
            threshold=2)
        assert not monitor.observe(1, 75.0, expected=11.5)
        assert monitor.observe(2, 75.0, expected=11.5)
        assert "shadow" in monitor.anomalies[-1].reason

    def test_rate_limit(self):
        monitor = OutputPlausibilityMonitor(max_rate_per_sec=10.0,
                                            threshold=1)
        monitor.observe(0, 0.0)
        assert monitor.observe(1 * SEC, 50.0)  # 50 %/s >> 10 %/s

    def test_confirm_fires_once(self):
        monitor = OutputPlausibilityMonitor(plausible_max=10.0, threshold=1)
        assert monitor.observe(1, 99.0)
        assert not monitor.observe(2, 99.0)

    def test_reset(self):
        monitor = OutputPlausibilityMonitor(plausible_max=10.0, threshold=1)
        monitor.observe(1, 99.0)
        monitor.reset()
        assert not monitor.confirmed
        assert monitor.consecutive == 0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            OutputPlausibilityMonitor(threshold=0)


class TestHeartbeat:
    def test_silence_detected(self):
        monitor = HeartbeatMonitor(timeout_ticks=2 * SEC)
        monitor.beat(0)
        assert not monitor.is_silent(1 * SEC)
        assert monitor.is_silent(3 * SEC)

    def test_never_heard_is_not_silent(self):
        monitor = HeartbeatMonitor(timeout_ticks=1 * SEC)
        assert not monitor.is_silent(100 * SEC)

    def test_beat_refreshes(self):
        monitor = HeartbeatMonitor(timeout_ticks=2 * SEC)
        monitor.beat(0)
        monitor.beat(5 * SEC)
        assert not monitor.is_silent(6 * SEC)


class TestArbitrator:
    def _candidate(self, node_id, headroom=0.5, capable=True, healthy=True,
                   hops=1):
        return Candidate(node_id=node_id, capable=capable, healthy=healthy,
                         utilization_headroom=headroom,
                         hops_to_actuator=hops)

    def test_prefers_headroom(self):
        chosen = Arbitrator().select([
            self._candidate("a", headroom=0.2),
            self._candidate("b", headroom=0.6),
        ])
        assert chosen == "b"

    def test_breaks_ties_by_hops_then_id(self):
        chosen = Arbitrator().select([
            self._candidate("z", hops=1),
            self._candidate("a", hops=1),
            self._candidate("b", hops=3),
        ])
        assert chosen == "a"

    def test_skips_incapable_and_unhealthy(self):
        chosen = Arbitrator().select([
            self._candidate("a", capable=False),
            self._candidate("b", healthy=False),
            self._candidate("c", headroom=0.1),
        ])
        assert chosen == "c"

    def test_exclusion(self):
        with pytest.raises(ArbitrationError):
            Arbitrator().select([self._candidate("a")], exclude={"a"})

    def test_no_headroom_rejected(self):
        with pytest.raises(ArbitrationError):
            Arbitrator().select([self._candidate("a", headroom=0.0)])

    def test_deterministic(self):
        candidates = [self._candidate(n) for n in ("c", "a", "b")]
        assert all(Arbitrator().select(list(candidates)) == "a"
                   for _ in range(5))


class TestControllerMode:
    def test_mode_semantics(self):
        assert ControllerMode.ACTIVE.computes
        assert ControllerMode.ACTIVE.actuates
        assert ControllerMode.BACKUP.computes
        assert not ControllerMode.BACKUP.actuates
        assert not ControllerMode.INDICATOR.computes
        assert not ControllerMode.DORMANT.computes


class TestTransfers:
    def test_directional_legs(self):
        t = DirectionalTransfer("a", "b", ((1, 0),))
        assert directional_legs(t) == [("a", "b", ((1, 0),))]

    def test_bidirectional_legs(self):
        t = BidirectionalTransfer("a", "b", ((1, 0),), ((2, 3),))
        legs = directional_legs(t)
        assert ("a", "b", ((1, 0),)) in legs
        assert ("b", "a", ((2, 3),)) in legs

    def test_temporal_carries_age(self):
        t = TemporalConditionalTransfer("a", "b", ((0, 0),),
                                        max_age_ticks=100 * MS)
        assert t.max_age_ticks == 100 * MS

    def test_health_has_no_legs(self):
        t = HealthAssessment(monitor="b", subject="a", task="t",
                             response=FaultResponse.TRIGGER_BACKUP)
        assert directional_legs(t) == []


def _task(name="ctrl", caps=frozenset({"controller"}), replicas=2):
    return LogicalTask(name=name, program_name="law",
                       period_ticks=250 * MS, wcet_ticks=2 * MS,
                       required_capabilities=caps, replicas=replicas)


class TestVirtualComponent:
    def _vc(self):
        vc = VirtualComponent("vc")
        for node_id in ("a", "b", "c"):
            vc.admit(VcMember(node_id, frozenset({"controller"})))
        vc.add_task(_task())
        return vc

    def test_admission_and_eviction(self):
        vc = self._vc()
        assert sorted(vc.members) == ["a", "b", "c"]
        vc.evict("c")
        assert "c" not in vc.members
        with pytest.raises(MembershipError):
            vc.evict("c")

    def test_duplicate_admission_rejected(self):
        vc = self._vc()
        with pytest.raises(MembershipError):
            vc.admit(VcMember("a", frozenset()))

    def test_head_election_lowest_healthy(self):
        vc = self._vc()
        assert vc.elect_head() == "a"
        vc.mark_unhealthy("a")
        assert vc.elect_head() == "b"

    def test_assignment_modes(self):
        vc = self._vc()
        assignment = vc.assign("ctrl", "a", backups=["b"])
        assert assignment.mode_of("a") is ControllerMode.ACTIVE
        assert assignment.mode_of("b") is ControllerMode.BACKUP
        assert assignment.mode_of("c") is ControllerMode.DORMANT

    def test_capability_enforcement(self):
        vc = VirtualComponent("vc")
        vc.admit(VcMember("weak", frozenset()))
        vc.add_task(_task())
        with pytest.raises(MembershipError):
            vc.assign("ctrl", "weak")

    def test_promotion(self):
        vc = self._vc()
        vc.assign("ctrl", "a", backups=["b"])
        assignment = vc.promote("ctrl", "b")
        assert assignment.primary == "b"
        assert assignment.mode_of("a") is ControllerMode.INDICATOR
        assert assignment.epoch == 1

    def test_promote_non_host_rejected(self):
        vc = self._vc()
        vc.assign("ctrl", "a", backups=["b"])
        with pytest.raises(MembershipError):
            vc.promote("ctrl", "c")

    def test_utilization_counts_computing_modes(self):
        vc = self._vc()
        vc.assign("ctrl", "a", backups=["b"])
        util = vc.tasks["ctrl"].utilization
        assert vc.utilization_of("a") == pytest.approx(util)
        assert vc.utilization_of("b") == pytest.approx(util)  # backup computes
        vc.set_mode("ctrl", "b", ControllerMode.DORMANT)
        assert vc.utilization_of("b") == 0.0

    def test_describe_renders(self):
        vc = self._vc()
        vc.assign("ctrl", "a", backups=["b"])
        text = vc.describe()
        assert "primary=a" in text
        assert "ctrl" in text
