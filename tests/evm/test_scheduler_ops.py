"""The eight EVM node-specific operations (paper section 3.1.1)."""

import random

import pytest

from repro.control.compiler import compile_passthrough
from repro.evm.capsule import Capsule
from repro.evm.runtime import EvmRuntime
from repro.evm.scheduler_ops import NodeOperations, register_parametric_hooks
from repro.evm.tasks import LogicalTask
from repro.evm.virtual_component import VcMember, VirtualComponent
from repro.evm.bytecode import Assembler
from repro.evm.failover import ControllerMode
from repro.evm.interpreter import VmError
from repro.hardware.node import FireFlyNode
from repro.rtos.kernel import NanoRK
from repro.rtos.task import TaskSpec
from repro.sim.clock import MS, SEC
from repro.sim.engine import Engine


class _LoopbackMac:
    """Delivers sends straight back to a peer runtime (no radio)."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.peer = None
        self.handler = None

    def send(self, packet):
        if self.peer is not None and (packet.dst in ("*", self.peer.node_id)):
            self.peer.engine.schedule(1 * MS, self.peer.deliver, packet)
        return True

    def set_receive_handler(self, fn):
        self.handler = fn

    def stop(self):
        pass


def build_node(engine, node_id, capabilities=frozenset({"controller"})):
    node = FireFlyNode(engine, node_id, with_sensors=True,
                       rng=random.Random(1))
    kernel = NanoRK(engine, node)
    mac = _LoopbackMac(node_id)
    kernel.attach_mac(mac)
    vc = VirtualComponent("ops-vc")
    vc.admit(VcMember(node_id, capabilities))
    runtime = EvmRuntime(kernel, vc, capabilities=capabilities)
    runtime.head_id = node_id
    runtime.install_capsule(
        Capsule.from_program(compile_passthrough("law", gain=1.0), 1))
    return node, kernel, mac, runtime


def logical(name="work", wcet=2 * MS, period=100 * MS):
    return LogicalTask(name=name, program_name="law", period_ticks=period,
                       wcet_ticks=wcet,
                       required_capabilities=frozenset({"controller"}))


class TestOps:
    def test_op1_assign_and_replicate(self, engine):
        _, kernel_a, mac_a, runtime_a = build_node(engine, "a")
        _, kernel_b, mac_b, runtime_b = build_node(engine, "b")
        mac_a.peer = runtime_b
        mac_b.peer = runtime_a
        ops = NodeOperations(runtime_a)
        task = logical()
        runtime_a.vc.add_task(task)
        runtime_b.vc.add_task(task)
        ops.assign_task(task)
        assert kernel_a.has_task("work")
        engine.run_until(1 * SEC)
        outcomes = []
        ops.replicate_task("work", "b", on_done=outcomes.append)
        engine.run_until(3 * SEC)
        assert outcomes and outcomes[0].ok
        assert kernel_a.has_task("work")  # replica: source keeps its copy
        assert kernel_b.has_task("work")

    def test_op1_migrate(self, engine):
        _, kernel_a, mac_a, runtime_a = build_node(engine, "a")
        _, kernel_b, mac_b, runtime_b = build_node(engine, "b")
        mac_a.peer = runtime_b
        mac_b.peer = runtime_a
        ops = NodeOperations(runtime_a)
        task = logical()
        runtime_a.vc.add_task(task)
        runtime_b.vc.add_task(task)
        ops.assign_task(task)
        engine.run_until(500 * MS)
        outcomes = []
        ops.migrate_task("work", "b", on_done=outcomes.append)
        engine.run_until(3 * SEC)
        assert outcomes and outcomes[0].ok
        assert not kernel_a.has_task("work")  # migration moves
        assert kernel_b.has_task("work")

    def test_op1_partition(self, engine):
        _, kernel_a, mac_a, runtime_a = build_node(engine, "a")
        _, kernel_b, mac_b, runtime_b = build_node(engine, "b")
        mac_a.peer = runtime_b
        mac_b.peer = runtime_a
        ops = NodeOperations(runtime_a)
        task = logical(wcet=10 * MS)
        runtime_a.vc.add_task(task)
        ops.assign_task(task)
        engine.run_until(200 * MS)
        ops.partition_task("work", "b", fraction=0.5)
        engine.run_until(3 * SEC)
        assert kernel_a.task("work").spec.wcet_ticks == 5 * MS
        assert kernel_b.has_task("work.part")
        assert kernel_b.task("work.part").spec.wcet_ticks == 5 * MS

    def test_op2_resource_allocation(self, engine):
        _, kernel, _, runtime = build_node(engine, "a")
        ops = NodeOperations(runtime)
        task = logical()
        runtime.vc.add_task(task)
        ops.assign_task(task)
        ops.allocate_cpu("work", budget_ticks=1 * MS, period_ticks=100 * MS)
        ops.allocate_network("work", packets=5, period_ticks=1 * SEC)
        ops.allocate_energy("work", joules=0.5, period_ticks=1 * SEC)
        assert "work" in kernel.scheduler.cpu_reservations
        assert "work" in kernel.network_reservations
        assert "work" in kernel.energy_reservations

    def test_op3_schedulability(self, engine):
        _, kernel, _, runtime = build_node(engine, "a")
        ops = NodeOperations(runtime)
        report = ops.analyze_schedulability()
        assert report.schedulable  # just the EVM housekeeping task
        # With the 1 ms / 100 ms EVM task present, 99.5 ms of demand per
        # 100 ms pushes utilization past 1.0.
        assert not ops.can_admit(TaskSpec("huge", wcet_ticks=99_500,
                                          period_ticks=100 * MS,
                                          priority=9))

    def test_op4_priority_assignment(self, engine):
        _, kernel, _, runtime = build_node(engine, "a")
        ops = NodeOperations(runtime)
        slow = logical("slow", period=500 * MS)
        fast = logical("fast", period=50 * MS)
        runtime.vc.add_task(slow)
        runtime.vc.add_task(fast)
        ops.assign_task(slow)
        ops.assign_task(fast)
        priorities = ops.reprioritize_rate_monotonic()
        assert priorities["fast"] < priorities["slow"]
        # The EVM housekeeping task (100 ms) slots between them.
        assert priorities["fast"] < priorities["EVM"] < priorities["slow"]

    def test_op5_fault_adaptation(self, engine):
        _, _, _, runtime = build_node(engine, "a")
        ops = NodeOperations(runtime)
        seen = []
        ops.on_fault(seen.append)
        ops.raise_fault({"kind": "battery_low", "node": "a"})
        assert seen == [{"kind": "battery_low", "node": "a"}]

    def test_op6_membership(self, engine):
        _, _, _, runtime = build_node(engine, "a")
        ops = NodeOperations(runtime)
        runtime.vc.admit(VcMember("b", frozenset()))
        ops.evict_member("b")
        assert "b" not in runtime.vc.members

    def test_op7_optimization(self, engine):
        from repro.evm.optimizer import AssignmentProblem

        _, _, _, runtime = build_node(engine, "a")
        ops = NodeOperations(runtime)
        problem = AssignmentProblem(
            tasks=[logical("x")],
            nodes=[VcMember("a", frozenset({"controller"}))])
        result = ops.optimize_assignment(problem)
        assert result.feasible
        assert result.placement == {"x": "a"}

    def test_op8_attestation(self, engine):
        _, _, _, runtime = build_node(engine, "a")
        ops = NodeOperations(runtime)
        digest = ops.attest(b"code image", b"nonce")
        assert ops.verify(b"code image", b"nonce", digest)
        assert not ops.verify(b"code imagX", b"nonce", digest)


class TestParametricHooks:
    def test_bytecode_reads_kernel_state(self, engine):
        _, kernel, _, runtime = build_node(engine, "a")
        ops = NodeOperations(runtime)
        register_parametric_hooks(ops)
        program = Assembler().assemble("""
            .name probe
            .host get_time
            .host node_util
            .host task_count
            host get_time
            store 0
            host node_util
            store 1
            host task_count
            store 2
            halt
        """)
        engine.run_until(5 * SEC)
        memory = [0.0] * 8
        runtime.interpreter.execute(program, memory)
        assert memory[0] == pytest.approx(5.0)  # seconds
        assert memory[1] > 0.0                  # EVM task utilization
        assert memory[2] >= 1.0

    def test_bytecode_toggles_sensor_driver(self, engine):
        """Remote runtime triggering of sensor drivers (paper sec. 4)."""
        node, _, _, runtime = build_node(engine, "a")
        ops = NodeOperations(runtime)
        register_parametric_hooks(ops)
        program = Assembler().assemble("""
            .name toggle
            .host sensor_disable
            push 0
            host sensor_disable
            halt
        """)
        runtime.interpreter.execute(program, [0.0] * 4)
        first = sorted(node.sensors)[0]
        assert not node.sensors[first].enabled

    @pytest.mark.parametrize("index", [
        "push inf\npush inf\nsub", "push inf", "push -inf"],
        ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("hook", ["sensor_enable", "sensor_disable"])
    def test_non_finite_sensor_index_faults_the_vm(self, engine, hook,
                                                    index):
        """A computed index that ``int()`` cannot convert raises VmError,
        which the runtime contains as a VM fault, and touches no sensor."""
        node, _, _, runtime = build_node(engine, "a")
        register_parametric_hooks(NodeOperations(runtime))
        program = Assembler().assemble(
            f".name bad\n.host {hook}\n{index}\nhost {hook}\nhalt")
        before = {name: s.enabled for name, s in node.sensors.items()}
        with pytest.raises(VmError, match="sensor index .* is not finite"):
            runtime.interpreter.execute(program, [0.0] * 4)
        assert {name: s.enabled for name, s in node.sensors.items()} == before
