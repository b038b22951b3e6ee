"""VC broadcast flood suppression in the relay layer.

Counter-based relay suppression in :class:`RoutedMacAdapter` bounds the
broadcast storm on dense meshes.  It defaults *off*: the first tests pin
that the classic relay-at-once flood is untouched, the middle ones that
the EVM runtime acts on every flood copy it is handed (each adopted
capsule is re-disseminated, each snapshot and mode broadcast applied),
and the last ones that a suppressed wide-grid trial reaches the same
failover outcome on measurably less airtime.
"""

from __future__ import annotations

import pytest

from repro.control.compiler import compile_passthrough
from repro.evm.capsule import Capsule
from repro.evm.runtime import EvmRuntime, StateSharingPolicy
from repro.evm.tasks import LogicalTask
from repro.evm.virtual_component import VcMember, VirtualComponent
from repro.hardware.node import FireFlyNode
from repro.net.packet import BROADCAST, Packet
from repro.net.routing import RoutedMacAdapter
from repro.rtos.kernel import NanoRK
from repro.sim.clock import MS
from repro.sim.engine import Engine


class _FakeMac:
    """Just enough MAC for the adapter: records sends, owns an engine."""

    def __init__(self, node_id, engine):
        self.node_id = node_id
        self.engine = engine
        self.sent = []
        self.handler = None
        self.stats = object()

    def send(self, packet):
        self.sent.append(packet)
        return True

    def set_receive_handler(self, fn):
        self.handler = fn

    def stop(self):
        pass


def _flood(seq, hops=0):
    return Packet(src="a", dst=BROADCAST, kind="flood.evm.data",
                  payload=("origin", seq, {"v": seq}), size_bytes=24,
                  hops=hops)


class TestRelaySuppression:
    def test_default_threshold_relays_at_once(self):
        engine = Engine()
        mac = _FakeMac("b", engine)
        adapter = RoutedMacAdapter(mac, {})
        adapter.set_receive_handler(lambda p: None)
        mac.handler(_flood(1))
        assert adapter.floods_relayed == 1
        assert len(mac.sent) == 1
        assert adapter._pending_relays == {}

    def test_local_delivery_is_never_delayed(self):
        engine = Engine()
        mac = _FakeMac("b", engine)
        adapter = RoutedMacAdapter(mac, {}, suppress_threshold=2,
                                   suppress_delay_ticks=50 * MS)
        delivered = []
        adapter.set_receive_handler(delivered.append)
        mac.handler(_flood(1))
        # Handed upward immediately; only the relay is held back.
        assert len(delivered) == 1
        assert mac.sent == []

    def test_relay_suppressed_when_neighbors_covered_it(self):
        engine = Engine()
        mac = _FakeMac("b", engine)
        adapter = RoutedMacAdapter(mac, {}, suppress_threshold=2,
                                   suppress_delay_ticks=50 * MS)
        delivered = []
        adapter.set_receive_handler(delivered.append)
        mac.handler(_flood(1))
        mac.handler(_flood(1))           # two neighbors relayed first
        mac.handler(_flood(1))
        engine.run_until(60 * MS)
        assert mac.sent == []            # our copy was redundant
        assert adapter.floods_suppressed == 1
        assert adapter.floods_relayed == 0
        assert adapter.duplicate_floods_heard == 2
        assert len(delivered) == 1       # delivered exactly once

    def test_relay_fires_when_neighborhood_is_quiet(self):
        engine = Engine()
        mac = _FakeMac("b", engine)
        adapter = RoutedMacAdapter(mac, {}, suppress_threshold=2,
                                   suppress_delay_ticks=50 * MS)
        adapter.set_receive_handler(lambda p: None)
        mac.handler(_flood(1))
        mac.handler(_flood(1))           # one duplicate: below threshold
        engine.run_until(60 * MS)
        assert adapter.floods_relayed == 1
        assert adapter.floods_suppressed == 0
        assert len(mac.sent) == 1
        assert mac.sent[0].hops == 1

    def test_late_duplicates_do_not_resurrect_the_decision(self):
        engine = Engine()
        mac = _FakeMac("b", engine)
        adapter = RoutedMacAdapter(mac, {}, suppress_threshold=1,
                                   suppress_delay_ticks=10 * MS)
        adapter.set_receive_handler(lambda p: None)
        mac.handler(_flood(1))
        engine.run_until(20 * MS)        # decision fired: relayed
        assert adapter.floods_relayed == 1
        mac.handler(_flood(1))           # duplicate after the window
        engine.run_until(40 * MS)
        assert adapter.floods_relayed == 1
        assert adapter.floods_suppressed == 0

    def test_ttl_still_bounds_held_relays(self):
        engine = Engine()
        mac = _FakeMac("b", engine)
        adapter = RoutedMacAdapter(mac, {}, flood_ttl=2,
                                   suppress_threshold=2,
                                   suppress_delay_ticks=10 * MS)
        adapter.set_receive_handler(lambda p: None)
        mac.handler(_flood(1, hops=1))   # hops+1 == ttl: never relayed
        engine.run_until(20 * MS)
        assert mac.sent == []
        assert adapter.floods_relayed == 0
        assert adapter.floods_suppressed == 0


# ----------------------------------------------------------------------
# EVM runtime under flood copies
# ----------------------------------------------------------------------
def _build_runtime(engine, state_mode="active"):
    """One runtime on node 'c', hosting 'job' as the backup of primary
    'p', with a recording MAC underneath."""
    mac = _FakeMac("c", engine)
    vc = VirtualComponent("storm-vc")
    vc.admit(VcMember("p", frozenset({"x"})))
    vc.admit(VcMember("c", frozenset({"x"})))
    vc.add_task(LogicalTask(
        name="job", program_name="ident", period_ticks=100 * MS,
        wcet_ticks=1 * MS, memory_slots=16,
        required_capabilities=frozenset({"x"}), replicas=2))
    vc.assign("job", "p", backups=["c"])
    node = FireFlyNode(engine, "c", with_sensors=False)
    kernel = NanoRK(engine, node)
    kernel.attach_mac(mac)
    runtime = EvmRuntime(
        kernel, vc, frozenset({"x"}),
        state_sharing=StateSharingPolicy(mode=state_mode))
    runtime.install_capsule(
        Capsule.from_program(compile_passthrough("ident", gain=1.0), 1))
    runtime.configure_from_vc(head_id="p")
    return runtime, mac


def _fragments(capsule, pieces=3):
    """Manually fragment a capsule blob into ``pieces`` capfrag payloads
    (the chunk size is the sender's choice; receivers just reassemble)."""
    blob = capsule.blob
    size = -(-len(blob) // pieces)
    chunks = [blob[i * size:(i + 1) * size] for i in range(pieces)]
    chunks = [c for c in chunks if c] or [b""]
    return [{"name": capsule.name, "version": capsule.version,
             "digest": capsule.digest, "index": i, "total": len(chunks),
             "chunk": chunk} for i, chunk in enumerate(chunks)]


def _capfrag(src, payload):
    return Packet(src=src, dst=BROADCAST, kind="evm.capfrag",
                  payload=payload, size_bytes=len(payload["chunk"]) + 12)


class TestCapsuleRedissemination:
    def _spare_capsule(self):
        return Capsule.from_program(compile_passthrough("spare", gain=2.0), 1)

    def test_adopted_capsule_is_rebroadcast(self):
        engine = Engine()
        runtime, mac = _build_runtime(engine)
        capsule = self._spare_capsule()
        frags = _fragments(capsule, pieces=3)
        runtime.deliver(_capfrag("n1", frags[0]))
        runtime.deliver(_capfrag("n2", frags[0]))
        runtime.deliver(_capfrag("n3", frags[1]))
        runtime.deliver(_capfrag("n4", frags[2]))
        assert runtime.capsules.has("spare")
        assert [p for p in mac.sent if p.kind == "evm.capfrag"]


class TestStateSnapshots:
    def _snapshot(self, jobs, value):
        return Packet(src="p", dst=BROADCAST, kind="evm.state",
                      payload={"task": "job", "memory": [value] * 4,
                               "jobs": jobs}, size_bytes=40)

    def test_every_primary_snapshot_is_applied(self):
        engine = Engine()
        runtime, _mac = _build_runtime(engine, state_mode="passive")
        runtime.deliver(self._snapshot(jobs=4, value=1.0))
        runtime.deliver(self._snapshot(jobs=4, value=2.0))
        assert runtime.stats.snapshots_applied == 2
        assert runtime.instances["job"].memory[0] == 2.0


class TestModeBroadcasts:
    def _mode(self, epoch, primary="p", modes=None):
        return Packet(src="p", dst=BROADCAST, kind="evm.mode",
                      payload={"task": "job", "primary": primary,
                               "epoch": epoch,
                               "modes": modes or {"p": "active",
                                                  "c": "backup"}},
                      size_bytes=32)

    def test_same_epoch_new_modes_applied(self):
        # _park_dormant re-broadcasts the same epoch with changed modes;
        # the change must go through.
        engine = Engine()
        runtime, _mac = _build_runtime(engine)
        runtime.deliver(self._mode(epoch=2, primary="c"))
        assert runtime.instances["job"].mode.value == "backup"
        runtime.deliver(self._mode(epoch=2, primary="c",
                                   modes={"p": "dormant", "c": "active"}))
        assert runtime.instances["job"].mode.value == "active"


# ----------------------------------------------------------------------
# Dense-mesh behavior: same failover, less airtime
# ----------------------------------------------------------------------
class TestDenseMeshTrial:
    @pytest.fixture(scope="class")
    def trials(self):
        from repro.experiments.widegrid import WideGridConfig, WideGridRig

        rows = {}
        for threshold in (0, 2):
            config = WideGridConfig(n_nodes=100, seed=1, duration_sec=30.0,
                                    crash_primary_at_sec=10.0,
                                    flood_suppress_threshold=threshold)
            rig = WideGridRig(config)
            rig.run_for_seconds(config.duration_sec)
            rows[threshold] = (rig, rig.collect())
        return rows

    def test_duplicate_deliveries_bounded(self, trials):
        rig_off, off = trials[0]
        rig_on, on = trials[2]
        relayed = {t: sum(a.floods_relayed for a in rig.macs.values())
                   for t, (rig, _) in trials.items()}
        duplicates = {t: sum(a.duplicate_floods_heard
                             for a in rig.macs.values())
                      for t, (rig, _) in trials.items()}
        suppressed = sum(a.floods_suppressed
                         for a in rig_on.macs.values())
        assert suppressed > 0
        assert relayed[2] < relayed[0]
        assert duplicates[2] < duplicates[0]
        assert on.frames_sent < off.frames_sent

    def test_failover_timeline_unchanged(self, trials):
        _, off = trials[0]
        _, on = trials[2]
        # Fault detection rides direct-neighbor traffic: identical tick.
        assert on.detection_time_sec == off.detection_time_sec
        # The failover itself completes within the same beat.
        assert on.failover_time_sec == pytest.approx(off.failover_time_sec,
                                                     abs=0.1)
        assert on.failovers_executed == off.failovers_executed == 1
        assert on.active_controller_final == off.active_controller_final
        assert on.act_input == off.act_input

    def test_report_plane_unharmed(self, trials):
        _, off = trials[0]
        _, on = trials[2]
        # Reports are tree-routed unicast, not flooded: suppression must
        # not cost delivery (a freer medium may even help slightly).
        assert on.delivery_ratio >= off.delivery_ratio - 0.02
