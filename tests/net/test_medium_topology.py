"""Topology, link quality and the shared medium (collisions, losses)."""

import random

import pytest

from repro.hardware.node import FireFlyNode
from repro.hardware.radio import RadioState
from repro.net.link_quality import FixedPrr, PerfectLinks
from repro.net.medium import Medium
from repro.net.packet import BROADCAST, Packet
from repro.net.topology import Topology, full_mesh, grid, line, star
from repro.sim.clock import MS


class TestTopology:
    def test_star(self):
        topo = star("gw", ["a", "b", "c"])
        assert topo.has_link("gw", "a")
        assert not topo.has_link("a", "b")
        assert sorted(topo.neighbors("gw")) == ["a", "b", "c"]

    def test_line_multihop(self):
        topo = line(["a", "b", "c", "d"])
        assert topo.shortest_path("a", "d") == ["a", "b", "c", "d"]

    def test_grid_connectivity(self):
        topo = grid(3, 3)
        assert len(topo.node_ids) == 9
        assert topo.is_connected()
        corner_neighbors = topo.neighbors("n0_0")
        assert sorted(corner_neighbors) == ["n0_1", "n1_0"]

    def test_full_mesh(self):
        topo = full_mesh(["a", "b", "c"])
        assert topo.has_link("a", "b")
        assert topo.has_link("b", "c")
        assert topo.has_link("a", "c")

    def test_remove_node_drops_links(self):
        topo = full_mesh(["a", "b", "c"])
        topo.remove_node("b")
        assert "b" not in topo
        assert not topo.has_link("a", "b")

    def test_connect_by_range(self):
        topo = line(["a", "b", "c"], spacing_m=10.0)
        topo.remove_link("a", "b")
        topo.remove_link("b", "c")
        topo.connect_by_range(15.0)
        assert topo.has_link("a", "b")
        assert not topo.has_link("a", "c")  # 20 m apart

    def test_bfs_tree(self):
        topo = line(["a", "b", "c"])
        parents = topo.bfs_tree_toward("a")
        assert parents == {"b": "a", "c": "b"}

    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_node("a")
        with pytest.raises(ValueError):
            topo.add_node("a")


class TestLinkQuality:
    def test_perfect_links(self):
        model = PerfectLinks()
        rng = random.Random(0)
        assert all(model.frame_survives("a", "b", 100.0, 128, rng)
                   for _ in range(100))

    def test_fixed_prr_statistics(self):
        model = FixedPrr(0.7)
        rng = random.Random(1)
        survived = sum(model.frame_survives("a", "b", 1.0, 32, rng)
                       for _ in range(2000))
        assert 0.65 < survived / 2000 < 0.75

    def test_fixed_prr_range_validation(self):
        with pytest.raises(ValueError):
            FixedPrr(1.5)


class _Harness:
    def __init__(self, engine, node_ids, link_model=None):
        self.topology = full_mesh(node_ids, spacing_m=5.0)
        self.medium = Medium(engine, self.topology, link_model=link_model,
                             rng=random.Random(9))
        self.nodes = {}
        self.received = []
        for node_id in node_ids:
            node = FireFlyNode(engine, node_id, with_sensors=False)
            port = self.medium.attach(node)
            port.set_receive_callback(
                lambda pkt, n=node_id: self.received.append((n, pkt.seq)))
            self.nodes[node_id] = node


class TestMedium:
    def test_delivery_to_listening_neighbor(self, engine):
        h = _Harness(engine, ["a", "b"])
        h.medium.port("b").listen()
        h.medium.port("a").transmit(
            Packet(src="a", dst="b", kind="x", size_bytes=16))
        engine.run()
        assert len(h.received) == 1
        assert h.medium.stats.frames_delivered == 1

    def test_radio_off_misses_frame(self, engine):
        h = _Harness(engine, ["a", "b"])
        # b never listens
        h.medium.port("a").transmit(
            Packet(src="a", dst="b", kind="x", size_bytes=16))
        engine.run()
        assert h.received == []
        assert h.medium.stats.missed_radio_off == 1

    def test_overlapping_transmissions_collide(self, engine):
        h = _Harness(engine, ["a", "b", "c"])
        h.medium.port("c").listen()
        packet_a = Packet(src="a", dst="c", kind="x", size_bytes=64)
        packet_b = Packet(src="b", dst="c", kind="x", size_bytes=64)
        engine.schedule(0, h.medium.port("a").transmit, packet_a)
        engine.schedule(10, h.medium.port("b").transmit, packet_b)
        engine.run()
        assert h.received == []
        assert h.medium.stats.collisions == 2

    def test_non_overlapping_no_collision(self, engine):
        h = _Harness(engine, ["a", "b", "c"])
        h.medium.port("c").listen()
        airtime = h.nodes["a"].radio.airtime(64 + 11)
        engine.schedule(0, h.medium.port("a").transmit,
                        Packet(src="a", dst="c", kind="x", size_bytes=64))
        engine.schedule(airtime + 100, h.medium.port("b").transmit,
                        Packet(src="b", dst="c", kind="x", size_bytes=64))
        engine.run()
        assert len(h.received) == 2
        assert h.medium.stats.collisions == 0

    def test_transmitter_cannot_receive_while_sending(self, engine):
        h = _Harness(engine, ["a", "b"])
        h.medium.port("a").listen()
        h.medium.port("b").listen()
        # Both transmit simultaneously: each is in TX at delivery.
        engine.schedule(0, h.medium.port("a").transmit,
                        Packet(src="a", dst="b", kind="x", size_bytes=32))
        engine.schedule(0, h.medium.port("b").transmit,
                        Packet(src="b", dst="a", kind="x", size_bytes=32))
        engine.run()
        assert h.received == []

    def test_lossy_link_drops_frames(self, engine):
        h = _Harness(engine, ["a", "b"], link_model=FixedPrr(0.0))
        h.medium.port("b").listen()
        h.medium.port("a").transmit(
            Packet(src="a", dst="b", kind="x", size_bytes=16))
        engine.run()
        assert h.received == []
        assert h.medium.stats.channel_losses == 1

    def test_channel_busy_during_transmission(self, engine):
        h = _Harness(engine, ["a", "b"])
        h.medium.port("a").transmit(
            Packet(src="a", dst="b", kind="x", size_bytes=100))
        assert h.medium.port("b").channel_busy()
        engine.run()
        assert not h.medium.port("b").channel_busy()

    def test_broadcast_reaches_all_listeners(self, engine):
        h = _Harness(engine, ["a", "b", "c", "d"])
        for nid in ("b", "c", "d"):
            h.medium.port(nid).listen()
        h.medium.port("a").transmit(
            Packet(src="a", dst=BROADCAST, kind="x", size_bytes=16))
        engine.run()
        assert sorted(n for n, _ in h.received) == ["b", "c", "d"]

    def test_failed_node_cannot_transmit(self, engine):
        h = _Harness(engine, ["a", "b"])
        h.nodes["a"].fail()
        with pytest.raises(RuntimeError):
            h.medium.port("a").transmit(
                Packet(src="a", dst="b", kind="x", size_bytes=16))

    def test_unattached_node_rejected(self, engine):
        h = _Harness(engine, ["a", "b"])
        stranger = FireFlyNode(engine, "zz", with_sensors=False)
        with pytest.raises(KeyError):
            h.medium.attach(stranger)


class TestTraceFlag:
    def test_trace_attached_after_construction_records(self, engine):
        from repro.sim.trace import Trace

        h = _Harness(engine, ["a", "b"])
        h.medium.trace = Trace()  # post-construction attach must take
        assert h.medium.trace_enabled
        h.medium.port("b").listen()
        h.medium.port("a").transmit(
            Packet(src="a", dst="b", kind="x", size_bytes=16))
        engine.run()
        categories = [event.category for event in h.medium.trace]
        assert "medium.tx" in categories and "medium.rx" in categories

    def test_trace_detached_disables_recording(self, engine):
        from repro.sim.trace import Trace

        h = _Harness(engine, ["a", "b"])
        h.medium.trace = Trace()
        h.medium.trace = None
        assert not h.medium.trace_enabled
        h.medium.port("b").listen()
        h.medium.port("a").transmit(
            Packet(src="a", dst="b", kind="x", size_bytes=16))
        engine.run()  # must not AttributeError on a stale flag
        assert h.medium.stats.frames_delivered == 1


class TestMediumIndexes:
    """The medium's cached indexes serve the topology it was built over."""

    def _flood(self, engine, h, node_ids, seq0=0):
        for i, nid in enumerate(node_ids):
            h.medium.port(nid).listen()
            engine.schedule(i * 3 * MS, h.medium.port(nid).transmit,
                            Packet(src=nid, dst=BROADCAST, kind="x",
                                   size_bytes=16, seq=seq0 + i))
        engine.run()

    def test_attach_after_traffic_invalidates_receiver_rows(self, engine):
        """A node attached after frames already flowed must be resolved as
        a receiver on the very next completion."""
        h = _Harness(engine, ["a", "b", "c"])
        del h.nodes["c"], h.medium._ports["c"]  # start with c unattached
        h.medium._receiver_rows.clear()
        h.medium.port("b").listen()
        h.medium.port("a").transmit(
            Packet(src="a", dst=BROADCAST, kind="x", size_bytes=16, seq=1))
        engine.run()
        assert ("b", 1) in h.received
        late = FireFlyNode(engine, "c", with_sensors=False)
        port = h.medium.attach(late)
        port.set_receive_callback(lambda pkt: h.received.append(("c", pkt.seq)))
        port.listen()
        h.medium.port("a").transmit(
            Packet(src="a", dst=BROADCAST, kind="x", size_bytes=16, seq=2))
        engine.run()
        assert ("c", 2) in h.received

    def test_topology_mutation_after_build_raises(self, engine):
        """A structural change after the medium was built makes the next
        transmission (and carrier sense) raise instead of resolving
        receivers from indexes of the old topology."""
        h = _Harness(engine, ["a", "b", "c"])
        self._flood(engine, h, ["a", "b", "c"])
        h.topology.remove_link("a", "c")
        with pytest.raises(RuntimeError, match="topology changed"):
            h.medium.port("a").transmit(
                Packet(src="a", dst=BROADCAST, kind="x", size_bytes=16,
                       seq=99))
        with pytest.raises(RuntimeError, match="topology changed"):
            h.medium.port("b").channel_busy()
        assert h.medium.stats.frames_sent == 3
