"""The EVM's eight node-specific operations (paper section 3.1.1).

A thin, explicit facade over the kernel/runtime/optimizer machinery, mirroring
the paper's enumeration:

1.  runtime task management (assign / migrate / partition / replicate);
2.  runtime resource allocation (reservations);
3.  scheduling and schedulability analysis;
4.  priority assignment;
5.  fault/failure detection and adaptation (handler registration);
6.  node membership and data migration;
7.  run-time optimization (BQP);
8.  software attestation.

The parametric flavor of these operations is also exposed to bytecode
programs as host hooks via :func:`register_parametric_hooks`.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.evm.attestation import attest_digest, verify_attestation
from repro.evm.failover import ControllerMode
from repro.evm.interpreter import VmError
from repro.evm.optimizer import AssignmentProblem, AssignmentResult, bqp_assign
from repro.evm.runtime import EvmRuntime
from repro.evm.tasks import LogicalTask
from repro.rtos.analysis import (
    AnalysisReport,
    assign_rate_monotonic_priorities,
)
from repro.rtos.reservations import (
    CpuReservation,
    EnergyReservation,
    NetworkReservation,
)
from repro.rtos.task import TaskSpec


class NodeOperations:
    """Operation set bound to one node's runtime."""

    def __init__(self, runtime: EvmRuntime) -> None:
        self.runtime = runtime
        self.kernel = runtime.kernel
        self._fault_handlers: list[Callable[[dict], None]] = []

    # -- 1. runtime task management -----------------------------------
    def assign_task(self, logical: LogicalTask,
                    mode: ControllerMode = ControllerMode.ACTIVE):
        """Instantiate a logical task on this node."""
        return self.runtime.host_task(logical, mode)

    def migrate_task(self, task_name: str, dst: str, on_done=None) -> int:
        """Move a task (code reference + full state) to another node."""
        return self.runtime.migrate_task_to(task_name, dst, on_done)

    def replicate_task(self, task_name: str, dst: str, on_done=None) -> int:
        """Invoke a copy of the task on ``dst`` with the same state
        (same image, but the local instance keeps running)."""
        instance = self.runtime.instances[task_name]
        image = instance.tcb.snapshot_image()
        image["data"] = dict(image["data"])
        image["data"]["memory"] = list(instance.memory)
        return self.runtime.migration.initiate(
            image, dst, instance.logical.required_capabilities, on_done)

    def partition_task(self, task_name: str, dst: str,
                       fraction: float = 0.5, on_done=None) -> int:
        """Split a task: keep (1-fraction) of the WCET here, ship a derived
        task carrying ``fraction`` of the work to ``dst``."""
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0,1), got {fraction}")
        instance = self.runtime.instances[task_name]
        spec = instance.tcb.spec
        remote_wcet = max(1, int(spec.wcet_ticks * fraction))
        local_wcet = max(1, spec.wcet_ticks - remote_wcet)
        image = instance.tcb.snapshot_image()
        image["data"] = dict(image["data"])
        image["data"]["memory"] = list(instance.memory)
        image["spec"] = TaskSpec(
            name=f"{spec.name}.part", wcet_ticks=remote_wcet,
            period_ticks=spec.period_ticks, priority=spec.priority,
            stack_bytes=spec.stack_bytes)
        xfer = self.runtime.migration.initiate(
            image, dst, instance.logical.required_capabilities, on_done)
        # Shrink the local half once the remote half is on its way.
        new_spec = TaskSpec(
            name=spec.name, wcet_ticks=local_wcet,
            period_ticks=spec.period_ticks, deadline_ticks=spec.deadline_ticks,
            priority=spec.priority, offset_ticks=spec.offset_ticks,
            stack_bytes=spec.stack_bytes)
        instance.tcb.spec = new_spec
        return xfer

    # -- 2. runtime resource allocation --------------------------------
    def allocate_cpu(self, task_name: str, budget_ticks: int,
                     period_ticks: int) -> None:
        self.kernel.set_cpu_reservation(
            task_name, CpuReservation(budget_ticks, period_ticks))

    def allocate_network(self, task_name: str, packets: int,
                         period_ticks: int) -> None:
        self.kernel.set_network_reservation(
            task_name, NetworkReservation(packets, period_ticks))

    def allocate_energy(self, task_name: str, joules: float,
                        period_ticks: int) -> None:
        self.kernel.set_energy_reservation(
            task_name, EnergyReservation(joules, period_ticks))

    # -- 3. scheduling and schedulability analysis ----------------------
    def analyze_schedulability(self,
                               extra: list[TaskSpec] | None = None,
                               ) -> AnalysisReport:
        return self.kernel.analyze(extra)

    def can_admit(self, spec: TaskSpec) -> bool:
        return self.kernel.can_admit(spec)

    # -- 4. priority assignment -----------------------------------------
    def reprioritize_rate_monotonic(self) -> dict[str, int]:
        """Re-prioritize the local task-set rate-monotonically.

        Returns the new name -> priority map.  (The in-kernel specs are
        updated in place; running jobs keep their current slice.)
        """
        specs = self.kernel.scheduler.specs()
        reassigned = assign_rate_monotonic_priorities(specs)
        priorities = {}
        for new_spec in reassigned:
            tcb = self.kernel.task(new_spec.name)
            tcb.spec = new_spec
            priorities[new_spec.name] = new_spec.priority
        return priorities

    def set_remote_parameter(self, task_name: str, slot: int,
                             value: float) -> bool:
        """Parametric control: write one memory slot of a logical task on
        every node hosting it (setpoints, thresholds, mode flags)."""
        return self.runtime.poke_remote(task_name, slot, value)

    # -- 5. fault/failure detection and adaptation -----------------------
    def on_fault(self, handler: Callable[[dict], None]) -> None:
        """Register an adaptation handler invoked on local fault reports."""
        self._fault_handlers.append(handler)

    def raise_fault(self, fault: dict) -> None:
        """Feed a fault event into the adaptation handlers."""
        for handler in self._fault_handlers:
            handler(fault)

    # -- 6. node membership and data migration ----------------------------
    def join_component(self) -> None:
        self.runtime.say_hello()

    def evict_member(self, node_id: str) -> None:
        if not self.runtime.is_head:
            raise PermissionError("only the head evicts members")
        self.runtime.vc.evict(node_id)

    # -- 7. run-time optimization ------------------------------------------
    def optimize_assignment(self, problem: AssignmentProblem,
                            ) -> AssignmentResult:
        return bqp_assign(problem)

    # -- 8. software attestation ---------------------------------------------
    def attest(self, image: bytes, nonce: bytes) -> bytes:
        return attest_digest(image, nonce)

    def verify(self, image: bytes, nonce: bytes, digest: bytes) -> bool:
        return verify_attestation(image, nonce, digest)


def register_parametric_hooks(ops: NodeOperations) -> None:
    """Expose parametric-control operations to bytecode via HOST hooks.

    Programs can then e.g. ``host get_time`` / ``host node_util`` /
    ``host sensor_enable`` -- the paper's remotely-triggerable parametric
    control library.
    """
    runtime = ops.runtime
    interpreter = runtime.interpreter

    def get_time(ctx) -> None:
        ctx.push(runtime.engine.now / 1_000_000.0)

    def node_util(ctx) -> None:
        ctx.push(runtime.kernel.scheduler.utilization_now())

    def task_count(ctx) -> None:
        ctx.push(float(len(runtime.kernel.task_names())))

    def popped_sensor(ctx):
        """The sensor at the popped index, or None past the node's last
        one (a capsule can reach nodes with fewer sensors).  A non-finite
        index faults the VM; ``int()`` would raise past the runtime's
        VmError containment instead."""
        value = ctx.pop()
        if not math.isfinite(value):
            raise VmError(f"sensor index {value!r} is not finite")
        index = int(value)
        sensors = runtime.kernel.node.sensors
        names = sorted(sensors)
        return sensors[names[index]] if 0 <= index < len(names) else None

    def sensor_enable(ctx) -> None:
        sensor = popped_sensor(ctx)
        if sensor is not None:
            sensor.enable()

    def sensor_disable(ctx) -> None:
        sensor = popped_sensor(ctx)
        if sensor is not None:
            sensor.disable()

    interpreter.register_host("get_time", get_time)
    interpreter.register_host("node_util", node_util)
    interpreter.register_host("task_count", task_count)
    interpreter.register_host("sensor_enable", sensor_enable)
    interpreter.register_host("sensor_disable", sensor_disable)
