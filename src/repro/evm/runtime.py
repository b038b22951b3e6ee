"""The per-node EVM runtime (the "super task").

One :class:`EvmRuntime` runs on every node, layered on its nano-RK kernel
and MAC.  Together the runtimes implement the Virtual Component machinery:

- **hosted instances** -- local copies of logical tasks, installed as kernel
  tasks, executing their control-law bytecode per period according to their
  mode (ACTIVE computes + actuates, BACKUP shadows, INDICATOR/DORMANT idle);
- **object transfers** -- after each ACTIVE job, the producer's declared
  memory slots are broadcast; consumers apply them (subject to temporal /
  causal conditions), the actuator-side *operation switch* accepts commands
  only from the current primary, and monitors overhear them for fault
  detection;
- **health assessment** -- backups compare the primary's published outputs
  with their own shadow computation and report confirmed faults to the head;
- **failover** -- the head arbitrates a replacement, broadcasts mode
  changes, and parks the demoted primary DORMANT after a delay;
- **state sharing** -- passive (periodic snapshots from the primary) or
  active (backups recompute from the same sensor inputs);
- **capsule dissemination** and **task migration** ride the same messaging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.evm.bytecode import Program
from repro.evm.capsule import Capsule, CapsuleStore
from repro.evm.failover import (
    Arbitrator,
    ArbitrationError,
    Candidate,
    ControllerMode,
    FailoverPolicy,
)
from repro.evm.health import HeartbeatMonitor, OutputPlausibilityMonitor
from repro.evm.interpreter import Interpreter, VmError
from repro.evm.migration import MigrationManager
from repro.evm.object_transfer import (
    CausalConditionalTransfer,
    FaultResponse,
    HealthAssessment,
    TemporalConditionalTransfer,
    directional_legs,
)
from repro.evm.tasks import LogicalTask
from repro.evm.virtual_component import VcMember, VirtualComponent
from repro.net.packet import BROADCAST, Packet
from repro.obs import instrument
from repro.rtos.kernel import AdmissionRefused, NanoRK
from repro.rtos.task import TaskSpec, Tcb
from repro.sim.clock import MS, SEC
from repro.sim.trace import Trace

EVM_TASK_NAME = "EVM"
HOUSEKEEPING_PERIOD_TICKS = 100 * MS


@dataclass
class StateSharingPolicy:
    """How backups keep their shadow state aligned with the primary."""

    mode: str = "active"            # "active" (recompute) or "passive"
    snapshot_every_jobs: int = 4    # passive: snapshot cadence
    snapshot_slots: int = 10        # memory slots per snapshot (slot budget)

    def __post_init__(self) -> None:
        if self.mode not in ("active", "passive"):
            raise ValueError(f"state sharing mode must be 'active' or "
                             f"'passive', not {self.mode!r}")


@dataclass
class RuntimeStats:
    """Counters the experiments and benchmarks read."""

    data_published: int = 0
    data_applied: int = 0
    rejected_by_switch: int = 0
    stale_dropped: int = 0
    causal_blocked: int = 0
    snapshots_sent: int = 0
    snapshots_applied: int = 0
    faults_reported: int = 0
    failovers_executed: int = 0
    heartbeats_sent: int = 0
    vm_faults: int = 0
    capsules_installed: int = 0
    messages_handled: int = 0


class HostedInstance:
    """One local copy of a logical task."""

    def __init__(self, logical: LogicalTask, mode: ControllerMode) -> None:
        self.logical = logical
        self.mode = mode
        self.memory = logical.build_memory()
        self.tcb: Tcb | None = None
        self.input_bindings: dict[int, Callable[[], float]] = {}
        self.output_bindings: dict[int, Callable[[float], None]] = {}
        self.forced_outputs: dict[int, float] = {}
        self.failsafe_outputs: dict[int, float] = {}
        self.failsafe_engaged = False
        self.jobs_run = 0
        self.vm_faults = 0
        self.last_job_time: int | None = None

    @property
    def name(self) -> str:
        return self.logical.name

    def published_value(self, slot: int) -> float:
        """What this instance exposes for ``slot`` (fault injection applies)."""
        if slot in self.forced_outputs:
            return self.forced_outputs[slot]
        return self.memory[slot]


class _MonitorState:
    """One health-assessment relationship as held by the monitoring node."""

    def __init__(self, assessment: HealthAssessment,
                 observe_slot: int) -> None:
        self.assessment = assessment
        self.observe_slot = observe_slot
        self.plausibility = OutputPlausibilityMonitor(
            plausible_min=assessment.plausible_min,
            plausible_max=assessment.plausible_max,
            max_rate_per_sec=assessment.max_rate_per_sec,
            max_deviation=assessment.max_deviation,
            threshold=assessment.threshold)
        self.heartbeat = (
            HeartbeatMonitor(assessment.heartbeat_timeout_ticks)
            if assessment.heartbeat_timeout_ticks else None)
        self.reported = False


class EvmRuntime:
    """The EVM super-task for one node."""

    def __init__(
        self,
        kernel: NanoRK,
        vc: VirtualComponent,
        capabilities: frozenset[str] = frozenset(),
        trace: Trace | None = None,
        failover_policy: FailoverPolicy | None = None,
        state_sharing: StateSharingPolicy | None = None,
        arbitration_holdoff_ticks: int = 0,
    ) -> None:
        self.kernel = kernel
        self.engine = kernel.engine
        self.vc = vc
        self.capabilities = capabilities
        self.trace = trace
        self.policy = failover_policy or FailoverPolicy()
        self.state_sharing = state_sharing or StateSharingPolicy()
        self.arbitration_holdoff_ticks = arbitration_holdoff_ticks
        self.stats = RuntimeStats()
        self.interpreter = Interpreter()
        self.capsules = CapsuleStore(rom_bank=kernel.node.mcu.rom,
                                     on_install=self._on_capsule_installed)
        self.instances: dict[str, HostedInstance] = {}
        self.monitors: list[_MonitorState] = []
        self._capsule_buffers: dict[tuple, dict[int, bytes]] = {}
        # Local view of each task's primary (the OS-1 operation switch).
        self.task_primaries: dict[str, tuple[str, int]] = {}
        self.head_id: str | None = None
        self.arbitrator = Arbitrator()
        self._pending_failovers: set[tuple[str, str, int]] = set()
        self._obs = instrument.evm_meters()
        # Sim time each pending failover's report arrived at: the gap to
        # the completed promotion is the failover-latency histogram.
        self._fault_seen_at: dict[tuple[str, str], int] = {}
        self.migration = MigrationManager(
            engine=self.engine, node_id=self.node_id,
            send=self._send_message, can_accept=self._migration_can_accept,
            install=self._migration_install, trace=trace)
        self._install_evm_task()
        if self.kernel.mac is not None:
            self.kernel.mac.set_receive_handler(self.deliver)

    @property
    def node_id(self) -> str:
        return self.kernel.node_id

    @property
    def is_head(self) -> bool:
        return self.head_id == self.node_id

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _install_evm_task(self) -> None:
        spec = TaskSpec(name=EVM_TASK_NAME, wcet_ticks=1 * MS,
                        period_ticks=HOUSEKEEPING_PERIOD_TICKS, priority=0,
                        stack_bytes=512)
        self.kernel.create_task(spec, self._housekeeping, admit=False)

    CAPSULE_FRAGMENT_BYTES = 64

    def install_capsule(self, capsule: Capsule, disseminate: bool = False,
                        ) -> bool:
        """Install a code capsule locally (optionally rebroadcast)."""
        was_new = self.capsules.install(capsule)
        if was_new:
            self.stats.capsules_installed += 1
            if disseminate:
                self._disseminate_capsule(capsule)
        return was_new

    def _disseminate_capsule(self, capsule: Capsule) -> None:
        """Broadcast a capsule in slot-sized fragments (viral update)."""
        chunk_size = self.CAPSULE_FRAGMENT_BYTES
        total = max(1, -(-len(capsule.blob) // chunk_size))
        for index in range(total):
            chunk = capsule.blob[index * chunk_size:(index + 1) * chunk_size]
            self._broadcast("evm.capfrag", {
                "name": capsule.name,
                "version": capsule.version,
                "digest": capsule.digest,
                "index": index,
                "total": total,
                "chunk": chunk,
            }, len(chunk) + 12)

    def _on_capsule_installed(self, capsule: Capsule) -> None:
        self.interpreter.register_word(self.capsules.program(capsule.name))

    def configure_from_vc(self, head_id: str | None = None) -> None:
        """Instantiate this node's share of the VC's task table.

        Reads the (already populated) :class:`VirtualComponent`: installs a
        hosted instance for every task assigned here, wires monitors for the
        health assessments this node performs, and records every task's
        primary for the operation switch.
        """
        self.head_id = head_id or self.vc.elect_head()
        for task_name, assignment in self.vc.assignments.items():
            self.task_primaries[task_name] = (assignment.primary,
                                              assignment.epoch)
            if self.node_id in assignment.hosts:
                self.host_task(assignment.task,
                               assignment.mode_of(self.node_id))
        for assessment in self.vc.health_assessments():
            if assessment.monitor == self.node_id:
                self._add_monitor(assessment)

    def host_task(self, logical: LogicalTask,
                  mode: ControllerMode) -> HostedInstance:
        """Install a local instance of ``logical`` as a kernel task."""
        if logical.name in self.instances:
            raise ValueError(
                f"{self.node_id!r} already hosts {logical.name!r}")
        if not self.capsules.has(logical.program_name):
            raise KeyError(
                f"{self.node_id!r} lacks capsule {logical.program_name!r} "
                f"for task {logical.name!r}")
        instance = HostedInstance(logical, mode)
        instance.tcb = self.kernel.create_task(
            logical.to_spec(), lambda tcb, n=logical.name: self._run_job(n))
        self.instances[logical.name] = instance
        if mode is ControllerMode.DORMANT:
            self.kernel.suspend_task(logical.name)
        self._record("evm.host", task=logical.name, mode=mode.value)
        return instance

    def _add_monitor(self, assessment: HealthAssessment,
                     observe_slot: int | None = None) -> None:
        if observe_slot is None:
            observe_slot = self._default_observe_slot(assessment.task)
        self.monitors.append(_MonitorState(assessment, observe_slot))

    def _default_observe_slot(self, task_name: str) -> int:
        """First published slot of the task's outgoing transfers."""
        for transfer in self.vc.transfers:
            for producer, _consumer, slots in directional_legs(transfer):
                if producer == task_name and slots:
                    return slots[0][0]
        return 0

    # ------------------------------------------------------------------
    # Instance I/O bindings and fault injection
    # ------------------------------------------------------------------
    def bind_input(self, task_name: str, slot: int,
                   fn: Callable[[], float]) -> None:
        """Before each job, ``memory[slot] = fn()`` (plant/sensor input)."""
        self.instances[task_name].input_bindings[slot] = fn

    def bind_output(self, task_name: str, slot: int,
                    fn: Callable[[float], None]) -> None:
        """After each ACTIVE job, ``fn(memory[slot])`` (plant actuation)."""
        self.instances[task_name].output_bindings[slot] = fn

    def set_failsafe(self, task_name: str, slot: int, value: float) -> None:
        self.instances[task_name].failsafe_outputs[slot] = value

    def inject_output_fault(self, task_name: str, slot: int,
                            value: float) -> None:
        """Wedge the task's published output (the case-study fault)."""
        self.instances[task_name].forced_outputs[slot] = value
        self._record("evm.fault_injected", task=task_name, slot=slot,
                     value=value)

    # ------------------------------------------------------------------
    # Job execution
    # ------------------------------------------------------------------
    def _run_job(self, task_name: str) -> None:
        instance = self.instances.get(task_name)
        if instance is None or not instance.mode.computes:
            return
        instance.jobs_run += 1
        instance.last_job_time = self.engine.now
        for slot, fn in instance.input_bindings.items():
            instance.memory[slot] = float(fn())
        program = self._program_of(instance)
        if program is not None:
            try:
                self.interpreter.execute(program, instance.memory)
            except VmError as exc:
                instance.vm_faults += 1
                self.stats.vm_faults += 1
                self._record("evm.vm_fault", task=task_name, error=str(exc))
                return
        if instance.mode.actuates:
            self._drive_outputs(instance)
            self._publish_transfers(instance)
            self._maybe_snapshot(instance)
        elif instance.failsafe_engaged:
            for slot, value in instance.failsafe_outputs.items():
                binding = instance.output_bindings.get(slot)
                if binding is not None:
                    binding(value)

    def _program_of(self, instance: HostedInstance) -> Program | None:
        return self.capsules.program(instance.logical.program_name)

    def _drive_outputs(self, instance: HostedInstance) -> None:
        if instance.failsafe_engaged:
            for slot, value in instance.failsafe_outputs.items():
                binding = instance.output_bindings.get(slot)
                if binding is not None:
                    binding(value)
            return
        for slot, binding in instance.output_bindings.items():
            binding(instance.published_value(slot))

    def _publish_transfers(self, instance: HostedInstance) -> None:
        for transfer in self.vc.transfers:
            for producer, consumer, slots in directional_legs(transfer):
                if producer != instance.name:
                    continue
                if isinstance(transfer, CausalConditionalTransfer):
                    guard = instance.memory[transfer.guard_slot]
                    if guard < transfer.guard_threshold:
                        self.stats.causal_blocked += 1
                        continue
                values = [(src, dst, instance.published_value(src))
                          for src, dst in slots]
                payload = {
                    "task": instance.name,
                    "consumer": consumer,
                    "values": values,
                    "sent_at": self.engine.now,
                    "epoch": self.task_primaries.get(
                        instance.name, (self.node_id, 0))[1],
                }
                if isinstance(transfer, TemporalConditionalTransfer):
                    payload["max_age"] = transfer.max_age_ticks
                self.stats.data_published += 1
                self._broadcast("evm.data", payload, 10 + 10 * len(values))

    def _maybe_snapshot(self, instance: HostedInstance) -> None:
        if self.state_sharing.mode != "passive":
            return
        if instance.jobs_run % self.state_sharing.snapshot_every_jobs != 0:
            return
        shared = instance.memory[:self.state_sharing.snapshot_slots]
        payload = {
            "task": instance.name,
            "memory": list(shared),
            "jobs": instance.jobs_run,
        }
        self.stats.snapshots_sent += 1
        self._broadcast("evm.state", payload, 8 + 8 * len(shared))

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    _BULK_KINDS = ("evm.mig.frag", "evm.capfrag", "evm.state")

    def _send_message(self, dst: str, kind: str, payload: Any,
                      size_bytes: int) -> bool:
        # Bulk payloads (migration/capsule fragments, state snapshots) ride
        # the low-priority queue so they never starve control traffic on
        # the node's TDMA slot.
        priority = 1 if kind in self._BULK_KINDS else 0
        packet = Packet(src=self.node_id, dst=dst, kind=kind,
                        payload=payload, size_bytes=size_bytes,
                        created_at=self.engine.now, priority=priority)
        return self.kernel.send_packet(EVM_TASK_NAME, packet)

    def _broadcast(self, kind: str, payload: Any, size_bytes: int) -> bool:
        return self._send_message(BROADCAST, kind, payload, size_bytes)

    def deliver(self, packet: Packet) -> None:
        """Entry point for every EVM frame arriving at this node."""
        if self.kernel.crashed:
            return
        kind = packet.kind
        if not kind.startswith("evm."):
            return
        self.stats.messages_handled += 1
        self._feed_heartbeats(packet.src)
        if kind == "evm.data":
            self._on_data(packet)
        elif kind == "evm.state":
            self._on_state(packet)
        elif kind == "evm.heartbeat":
            pass  # heartbeat side effect already applied
        elif kind == "evm.fault":
            self._on_fault_report(packet)
        elif kind == "evm.mode":
            self._on_mode_change(packet)
        elif kind == "evm.capsule":
            self._on_capsule(packet)
        elif kind == "evm.capfrag":
            self._on_capsule_fragment(packet)
        elif kind == "evm.hello":
            self._on_hello(packet)
        elif kind == "evm.halt":
            self._on_halt(packet)
        elif kind == "evm.poke":
            self._on_poke(packet)
        elif kind.startswith("evm.mig."):
            self.migration.handle_message(packet.src, kind, packet.payload)

    def _feed_heartbeats(self, src: str) -> None:
        for monitor in self.monitors:
            if monitor.heartbeat is not None and monitor.assessment.subject == src:
                monitor.heartbeat.beat(self.engine.now)

    # -- data ----------------------------------------------------------
    def _on_data(self, packet: Packet) -> None:
        payload = packet.payload
        task_name = payload["task"]
        self._monitor_observation(packet.src, task_name, payload)
        consumer = payload["consumer"]
        instance = self.instances.get(consumer)
        if instance is None:
            return
        # Temporal-conditional: drop stale samples.
        max_age = payload.get("max_age")
        if max_age is not None and (self.engine.now - payload["sent_at"]
                                    > max_age):
            self.stats.stale_dropped += 1
            return
        # The operation switch: accept only the current primary's commands.
        primary, _epoch = self.task_primaries.get(task_name,
                                                  (packet.src, 0))
        if packet.src != primary:
            self.stats.rejected_by_switch += 1
            self._record("evm.switch_reject", task=task_name, src=packet.src,
                         primary=primary)
            return
        for _src_slot, dst_slot, value in payload["values"]:
            if 0 <= dst_slot < len(instance.memory):
                instance.memory[dst_slot] = value
        self.stats.data_applied += 1

    def _monitor_observation(self, src: str, task_name: str,
                             payload: dict) -> None:
        for monitor in self.monitors:
            assessment = monitor.assessment
            if assessment.task != task_name or assessment.subject != src:
                continue
            observed = None
            for src_slot, _dst_slot, value in payload["values"]:
                if src_slot == monitor.observe_slot:
                    observed = value
                    break
            if observed is None:
                continue
            expected = self._shadow_value(task_name, monitor.observe_slot)
            confirmed = monitor.plausibility.observe(
                self.engine.now, observed, expected)
            if confirmed and not monitor.reported:
                monitor.reported = True
                self._report_fault(assessment, reason=(
                    monitor.plausibility.anomalies[-1].reason
                    if monitor.plausibility.anomalies else "implausible"))

    def _shadow_value(self, task_name: str, slot: int) -> float | None:
        instance = self.instances.get(task_name)
        if instance is None or instance.mode is not ControllerMode.BACKUP:
            return None
        if instance.jobs_run == 0:
            return None
        return instance.memory[slot]

    # -- state sharing ---------------------------------------------------
    def _on_state(self, packet: Packet) -> None:
        payload = packet.payload
        instance = self.instances.get(payload["task"])
        if instance is None or instance.mode is not ControllerMode.BACKUP:
            return
        if self.state_sharing.mode != "passive":
            return
        primary, _epoch = self.task_primaries.get(payload["task"],
                                                  (packet.src, 0))
        if packet.src != primary:
            return
        memory = payload["memory"]
        instance.memory[:len(memory)] = memory
        self.stats.snapshots_applied += 1

    # -- fault reporting and failover -------------------------------------
    def _report_fault(self, assessment: HealthAssessment,
                      reason: str) -> None:
        self.stats.faults_reported += 1
        if self._obs is not None:
            self._obs.faults_reported.inc()
        self._record("evm.fault_detected", task=assessment.task,
                     subject=assessment.subject, reason=reason,
                     response=assessment.response.value)
        payload = {
            "task": assessment.task,
            "subject": assessment.subject,
            "reason": reason,
            "response": assessment.response.value,
            "reporter": self.node_id,
            "epoch": self.task_primaries.get(assessment.task, ("", 0))[1],
        }
        if assessment.response is FaultResponse.LOCAL_FAILSAFE:
            self._engage_failsafe(assessment.task)
        if assessment.response is FaultResponse.HALT:
            self._send_message(assessment.subject, "evm.halt",
                               {"task": assessment.task}, 8)
        if self.is_head:
            self._handle_fault_report(payload)
        elif self.head_id is not None:
            self._send_message(self.head_id, "evm.fault", payload, 32)

    def _engage_failsafe(self, task_name: str) -> None:
        instance = self.instances.get(task_name)
        if instance is not None and instance.failsafe_outputs:
            instance.failsafe_engaged = True
            self._record("evm.failsafe", task=task_name)

    def _on_fault_report(self, packet: Packet) -> None:
        if not self.is_head:
            return
        self._handle_fault_report(packet.payload)

    def _handle_fault_report(self, payload: dict) -> None:
        task_name = payload["task"]
        subject = payload["subject"]
        epoch = payload["epoch"]
        if payload["response"] not in ("backup", "halt"):
            self._record("evm.alert", task=task_name, subject=subject,
                         reason=payload["reason"])
            return
        key = (task_name, subject, epoch)
        if key in self._pending_failovers:
            return
        assignment = self.vc.assignments.get(task_name)
        if assignment is None or assignment.primary != subject:
            return  # stale report; failover already happened
        self._pending_failovers.add(key)
        if self._obs is not None:
            self._fault_seen_at.setdefault((task_name, subject),
                                           self.engine.now)
        self._record("evm.failover_pending", task=task_name, subject=subject,
                     holdoff=self.arbitration_holdoff_ticks)
        if self.arbitration_holdoff_ticks > 0:
            self.engine.post(self.arbitration_holdoff_ticks,
                             self._execute_failover, task_name, subject)
        else:
            self._execute_failover(task_name, subject)

    def _execute_failover(self, task_name: str, faulty_node: str) -> None:
        assignment = self.vc.assignments.get(task_name)
        if assignment is None or assignment.primary != faulty_node:
            return
        candidates = []
        for node_id in assignment.backups:
            member = self.vc.members.get(node_id)
            if member is None:
                continue
            headroom = member.cpu_capacity - self.vc.utilization_of(node_id)
            candidates.append(Candidate(
                node_id=node_id,
                capable=member.can_host(assignment.task),
                healthy=member.healthy,
                utilization_headroom=headroom))
        try:
            new_primary = self.arbitrator.select(candidates,
                                                 exclude={faulty_node})
        except ArbitrationError as exc:
            if self._obs is not None:
                self._obs.failovers_failed.inc()
            self._record("evm.failover_failed", task=task_name,
                         reason=str(exc))
            return
        self.vc.mark_unhealthy(faulty_node)
        new_assignment = self.vc.promote(task_name, new_primary,
                                         demote_to=self.policy.demote_mode)
        self.stats.failovers_executed += 1
        if self._obs is not None:
            now = self.engine.now
            seen = self._fault_seen_at.pop((task_name, faulty_node), now)
            self._obs.failovers.inc()
            self._obs.failover_latency.observe((now - seen) / SEC)
        self._record("evm.failover", task=task_name, new_primary=new_primary,
                     demoted=faulty_node, epoch=new_assignment.epoch)
        self._broadcast_modes(task_name, new_assignment)
        if self.policy.dormant_delay_ticks > 0:
            self.engine.post(self.policy.dormant_delay_ticks,
                             self._park_dormant, task_name, faulty_node,
                             new_assignment.epoch)

    def _park_dormant(self, task_name: str, node_id: str,
                      epoch: int) -> None:
        assignment = self.vc.assignments.get(task_name)
        if assignment is None or assignment.epoch != epoch:
            return
        self.vc.set_mode(task_name, node_id, ControllerMode.DORMANT)
        self._record("evm.dormant", task=task_name, node=node_id)
        self._broadcast_modes(task_name, assignment)

    def _broadcast_modes(self, task_name: str, assignment) -> None:
        payload = {
            "task": task_name,
            "primary": assignment.primary,
            "epoch": assignment.epoch,
            "modes": {node: mode.value
                      for node, mode in assignment.modes.items()},
        }
        self._broadcast("evm.mode", payload, 16 + 8 * len(assignment.modes))
        # The head applies the change locally too (no self-delivery on MAC).
        self._apply_mode_change(payload)

    def _on_mode_change(self, packet: Packet) -> None:
        self._apply_mode_change(packet.payload)

    def _apply_mode_change(self, payload: dict) -> None:
        task_name = payload["task"]
        known_primary, known_epoch = self.task_primaries.get(task_name,
                                                             ("", -1))
        if payload["epoch"] < known_epoch:
            return  # stale
        self.task_primaries[task_name] = (payload["primary"],
                                          payload["epoch"])
        if payload["primary"] != known_primary:
            # Watchers of the fresh primary start from a clean slate,
            # including a heartbeat grace beat: the new primary was
            # legitimately silent while it shadowed as a backup.
            for monitor in self.monitors:
                if (monitor.assessment.task == task_name
                        and monitor.assessment.subject == payload["primary"]):
                    monitor.plausibility.reset()
                    monitor.reported = False
                    if monitor.heartbeat is not None:
                        monitor.heartbeat.beat(self.engine.now)
        instance = self.instances.get(task_name)
        if instance is None:
            return
        new_mode_name = payload["modes"].get(self.node_id)
        if new_mode_name is None:
            return
        new_mode = ControllerMode(new_mode_name)
        if new_mode is instance.mode:
            return
        old_mode = instance.mode
        instance.mode = new_mode
        self._record("evm.mode_change", task=task_name,
                     old=old_mode.value, new=new_mode.value,
                     epoch=payload["epoch"])
        if new_mode is ControllerMode.DORMANT:
            if self.kernel.has_task(task_name):
                self.kernel.suspend_task(task_name)
        elif old_mode is ControllerMode.DORMANT:
            if self.kernel.has_task(task_name):
                self.kernel.resume_task(task_name)

    # -- capsules / membership / halt -------------------------------------
    def _on_capsule(self, packet: Packet) -> None:
        self._adopt_capsule(packet.payload)

    def _on_capsule_fragment(self, packet: Packet) -> None:
        payload = packet.payload
        key = (payload["name"], payload["version"])
        if self.capsules.has(payload["name"], payload["version"]):
            return  # already current; ignore the re-broadcast storm
        buffer = self._capsule_buffers.setdefault(key, {})
        buffer[payload["index"]] = payload["chunk"]
        if len(buffer) < payload["total"]:
            return
        blob = b"".join(buffer[i] for i in range(payload["total"]))
        self._capsule_buffers.pop(key, None)
        capsule = Capsule(name=payload["name"], version=payload["version"],
                          blob=blob, digest=payload["digest"])
        self._adopt_capsule(capsule)

    def _adopt_capsule(self, capsule: Capsule) -> None:
        try:
            was_new = self.capsules.install(capsule)
        except Exception as exc:  # noqa: BLE001 - corrupt capsule contained
            self._record("evm.capsule_rejected", name=capsule.name,
                         error=str(exc))
            return
        if was_new:
            self.stats.capsules_installed += 1
            # Viral dissemination: news travels onward.
            self._disseminate_capsule(capsule)

    def _on_hello(self, packet: Packet) -> None:
        if not self.is_head:
            return
        payload = packet.payload
        if packet.src in self.vc.members:
            return
        self.vc.admit(VcMember(
            node_id=packet.src,
            capabilities=frozenset(payload.get("capabilities", ())),
            joined_at=self.engine.now))
        self._record("evm.admitted", node=packet.src)
        self._send_message(packet.src, "evm.welcome",
                           {"vc": self.vc.name, "head": self.node_id}, 16)

    def say_hello(self) -> None:
        """Announce this node to the component head (join protocol)."""
        self._broadcast("evm.hello", {
            "capabilities": sorted(self.capabilities),
            "capsules": self.capsules.summary(),
        }, 24)

    def _on_halt(self, packet: Packet) -> None:
        task_name = packet.payload["task"]
        if self.kernel.has_task(task_name):
            self.kernel.suspend_task(task_name)
            if task_name in self.instances:
                self.instances[task_name].mode = ControllerMode.DORMANT
            self._record("evm.halted", task=task_name, by=packet.src)

    # -- on-line capacity expansion (head only) -----------------------------
    def update_assignment(self, task_name: str, primary: str,
                          backups: list[str]) -> None:
        """Head operation: re-declare a task's placement (e.g. after
        replicating it to a new node) and broadcast the new modes --
        the paper's on-line capacity expansion."""
        if not self.is_head:
            raise PermissionError("only the head updates assignments")
        previous = self.vc.assignments.get(task_name)
        assignment = self.vc.assign(task_name, primary, backups)
        if previous is not None:
            assignment.epoch = previous.epoch + 1
        self._record("evm.assignment_updated", task=task_name,
                     primary=primary, backups=",".join(backups))
        self._broadcast_modes(task_name, assignment)

    # -- parametric control ------------------------------------------------
    def poke_remote(self, task_name: str, slot: int, value: float) -> bool:
        """Write a memory slot of every hosted instance of ``task_name``
        across the component (remote parametric control: setpoint changes,
        mode flags, gains kept in memory).  Applied locally too."""
        self._apply_poke(task_name, slot, value)
        return self._broadcast("evm.poke", {
            "task": task_name, "slot": slot, "value": float(value)}, 16)

    def _on_poke(self, packet: Packet) -> None:
        payload = packet.payload
        self._apply_poke(payload["task"], payload["slot"], payload["value"])

    def _apply_poke(self, task_name: str, slot: int, value: float) -> None:
        instance = self.instances.get(task_name)
        if instance is None:
            return
        if not 0 <= slot < len(instance.memory):
            return
        instance.memory[slot] = float(value)
        self._record("evm.poked", task=task_name, slot=slot, value=value)

    # ------------------------------------------------------------------
    # Migration callbacks
    # ------------------------------------------------------------------
    def _migration_can_accept(self, src: str, spec: TaskSpec,
                              required: frozenset) -> tuple[bool, str]:
        if not required <= self.capabilities:
            missing = sorted(required - self.capabilities)
            return False, f"missing capabilities {missing}"
        if self.kernel.has_task(spec.name):
            return False, f"task {spec.name!r} already present"
        if not self.kernel.can_admit(spec):
            return False, "schedulability admission failed"
        return True, ""

    def _migration_install(self, image: dict) -> tuple[bool, str]:
        spec: TaskSpec = image["spec"]
        task_name = spec.name
        logical = None
        if task_name in self.vc.tasks:
            logical = self.vc.tasks[task_name]
        # A migrated-in instance is ACTIVE only if this node is (or becomes)
        # the task's primary; replicas arrive as shadowing backups.
        primary, _epoch = self.task_primaries.get(task_name,
                                                  (self.node_id, 0))
        mode = (ControllerMode.ACTIVE if primary == self.node_id
                else ControllerMode.BACKUP)
        try:
            if logical is not None and self.capsules.has(logical.program_name):
                instance = HostedInstance(logical, mode)
                instance.tcb = self.kernel.create_task(
                    spec, lambda tcb, n=task_name: self._run_job(n))
                instance.tcb.restore_image(image)
                memory = image["data"].get("memory")
                if memory is not None:
                    instance.memory = list(memory)
                self.instances[task_name] = instance
            else:
                tcb = self.kernel.create_task(spec, None)
                tcb.restore_image(image)
        except AdmissionRefused as exc:
            return False, str(exc)
        except Exception as exc:  # noqa: BLE001 - install must not crash
            return False, repr(exc)
        return True, ""

    def migrate_task_to(self, task_name: str, dst: str,
                        on_done=None) -> int:
        """EVM operation: move a hosted task (with state) to another node."""
        instance = self.instances.get(task_name)
        if instance is None:
            tcb = self.kernel.task(task_name)
            image = tcb.snapshot_image()
        else:
            tcb = instance.tcb
            image = tcb.snapshot_image()
            image["data"] = dict(image["data"])
            image["data"]["memory"] = list(instance.memory)
        required = (instance.logical.required_capabilities
                    if instance is not None else frozenset())

        def _finish(outcome) -> None:
            if outcome.ok:
                if self.kernel.has_task(task_name):
                    self.kernel.kill_task(task_name)
                self.instances.pop(task_name, None)
            if on_done is not None:
                on_done(outcome)

        return self.migration.initiate(image, dst, required, _finish)

    # ------------------------------------------------------------------
    # Housekeeping (the periodic EVM super-task body)
    # ------------------------------------------------------------------
    def _housekeeping(self, _tcb: Tcb) -> None:
        now = self.engine.now
        for monitor in self.monitors:
            if monitor.heartbeat is None or monitor.reported:
                continue
            # Silence only matters for the controller currently in charge;
            # demoted/backup instances are legitimately quiet.
            primary, _epoch = self.task_primaries.get(
                monitor.assessment.task, ("", 0))
            if monitor.assessment.subject != primary:
                continue
            if monitor.heartbeat.is_silent(now):
                monitor.reported = True
                self._report_fault(monitor.assessment,
                                   reason="heartbeat timeout")

    def _record(self, category: str, **data: Any) -> None:
        if self.trace is not None:
            self.trace.record(self.engine.now, category, self.node_id,
                              **data)
