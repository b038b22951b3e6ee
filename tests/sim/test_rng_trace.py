"""RNG registry determinism and trace filtering."""

from repro.sim.rng import RngRegistry
from repro.sim.trace import Trace


class TestRngRegistry:
    def test_same_name_same_stream_object(self):
        reg = RngRegistry(1)
        assert reg.stream("a") is reg.stream("a")

    def test_reproducible_across_registries(self):
        a = RngRegistry(1).stream("medium")
        b = RngRegistry(1).stream("medium")
        assert [a.random() for _ in range(10)] == \
            [b.random() for _ in range(10)]

    def test_streams_independent_of_creation_order(self):
        reg1 = RngRegistry(1)
        reg1.stream("x")
        x_then_y = reg1.stream("y").random()
        reg2 = RngRegistry(1)
        y_only = reg2.stream("y").random()
        assert x_then_y == y_only

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("s").random()
        b = RngRegistry(2).stream("s").random()
        assert a != b

    def test_different_names_differ(self):
        reg = RngRegistry(1)
        assert reg.stream("a").random() != reg.stream("b").random()

    def test_fork_is_deterministic(self):
        a = RngRegistry(5).fork("run1").stream("s").random()
        b = RngRegistry(5).fork("run1").stream("s").random()
        c = RngRegistry(5).fork("run2").stream("s").random()
        assert a == b
        assert a != c

    def test_names_listing(self):
        reg = RngRegistry(0)
        reg.stream("b")
        reg.stream("a")
        assert list(reg.names()) == ["a", "b"]


class TestTrace:
    def test_record_and_count(self, trace):
        trace.record(10, "mac.tx", "n1", seq=1)
        trace.record(20, "mac.rx", "n2", seq=1)
        assert len(trace) == 2
        assert trace.count("mac.tx") == 1

    def test_category_prefix_filter(self, trace):
        trace.record(1, "evm.failover", "gw")
        trace.record(2, "evm.fault_detected", "b")
        trace.record(3, "rtos.complete", "a")
        assert trace.count("evm.") == 2

    def test_source_filter(self, trace):
        trace.record(1, "x", "a")
        trace.record(2, "x", "b")
        assert [e.time for e in trace.events("x", source="b")] == [2]

    def test_last(self, trace):
        trace.record(1, "x", "n", v=1)
        trace.record(5, "x", "n", v=2)
        assert trace.last("x").data["v"] == 2
        assert trace.last("missing") is None
