"""Virtual Components: logical node groups with task tables.

A Virtual Component is "a composition of inter-connected communicating
physical components defined by object transfer relationships" -- the unit
that outlives any individual node.  This module is the *data model*: members
with capabilities, logical tasks, per-task assignments (primary + backups +
modes), and the transfer relationships.  The head node's runtime holds the
authoritative copy and replicates relevant slices to members.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.evm.failover import ControllerMode
from repro.evm.object_transfer import HealthAssessment, Transfer
from repro.evm.tasks import LogicalTask


@dataclass
class VcMember:
    """One physical node's standing in the component."""

    node_id: str
    capabilities: frozenset[str]
    cpu_capacity: float = 0.7        # max schedulable utilization offered
    joined_at: int = 0
    healthy: bool = True

    def can_host(self, task: LogicalTask) -> bool:
        return task.required_capabilities <= self.capabilities


@dataclass
class TaskAssignment:
    """Where one logical task currently lives."""

    task: LogicalTask
    primary: str
    backups: list[str] = field(default_factory=list)
    modes: dict[str, ControllerMode] = field(default_factory=dict)
    epoch: int = 0

    def __post_init__(self) -> None:
        if not self.modes:
            self.modes = {self.primary: ControllerMode.ACTIVE}
            for backup in self.backups:
                self.modes[backup] = ControllerMode.BACKUP

    @property
    def hosts(self) -> list[str]:
        return [self.primary] + list(self.backups)

    def mode_of(self, node_id: str) -> ControllerMode:
        return self.modes.get(node_id, ControllerMode.DORMANT)


class MembershipError(RuntimeError):
    """Raised for invalid membership operations."""


class VirtualComponent:
    """The authoritative component state (lives at the head)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.members: dict[str, VcMember] = {}
        self.tasks: dict[str, LogicalTask] = {}
        self.assignments: dict[str, TaskAssignment] = {}
        self.transfers: list[Transfer] = []
        self.epoch = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def admit(self, member: VcMember) -> None:
        """Admit a node (membership is not fixed; see EVM operation 6)."""
        if member.node_id in self.members:
            raise MembershipError(
                f"{member.node_id!r} already a member of {self.name!r}")
        self.members[member.node_id] = member
        self.epoch += 1

    def evict(self, node_id: str) -> VcMember:
        if node_id not in self.members:
            raise MembershipError(f"{node_id!r} not a member of {self.name!r}")
        member = self.members.pop(node_id)
        self.epoch += 1
        return member

    def mark_unhealthy(self, node_id: str) -> None:
        if node_id in self.members:
            self.members[node_id].healthy = False
            self.epoch += 1

    def elect_head(self) -> str:
        """Deterministic head election: lowest id among healthy members."""
        healthy = [m.node_id for m in self.members.values() if m.healthy]
        if not healthy:
            raise MembershipError(f"no healthy members in {self.name!r}")
        return min(healthy)

    # ------------------------------------------------------------------
    # Task table
    # ------------------------------------------------------------------
    def add_task(self, task: LogicalTask) -> None:
        if task.name in self.tasks:
            raise ValueError(f"task {task.name!r} already declared")
        self.tasks[task.name] = task

    def assign(self, task_name: str, primary: str,
               backups: list[str] | None = None) -> TaskAssignment:
        """Install/replace the placement of ``task_name``."""
        if task_name not in self.tasks:
            raise KeyError(f"unknown task {task_name!r}")
        task = self.tasks[task_name]
        backups = backups or []
        for node_id in [primary] + backups:
            member = self.members.get(node_id)
            if member is None:
                raise MembershipError(
                    f"{node_id!r} is not a member of {self.name!r}")
            if not member.can_host(task):
                raise MembershipError(
                    f"{node_id!r} lacks capabilities "
                    f"{sorted(task.required_capabilities - member.capabilities)}"
                    f" for task {task_name!r}")
        previous = self.assignments.get(task_name)
        assignment = TaskAssignment(
            task=task, primary=primary, backups=backups,
            epoch=(previous.epoch + 1) if previous else 0)
        self.assignments[task_name] = assignment
        return assignment

    def promote(self, task_name: str, new_primary: str,
                demote_to: ControllerMode = ControllerMode.INDICATOR,
                ) -> TaskAssignment:
        """Failover: make a backup the primary, demote the old one."""
        assignment = self.assignments[task_name]
        if new_primary not in assignment.hosts:
            raise MembershipError(
                f"{new_primary!r} does not host {task_name!r}")
        old_primary = assignment.primary
        backups = [n for n in assignment.hosts if n != new_primary]
        new_assignment = TaskAssignment(
            task=assignment.task, primary=new_primary,
            backups=[n for n in backups if n != old_primary],
            epoch=assignment.epoch + 1)
        new_assignment.modes[old_primary] = demote_to
        for backup in new_assignment.backups:
            new_assignment.modes[backup] = ControllerMode.BACKUP
        new_assignment.modes[new_primary] = ControllerMode.ACTIVE
        self.assignments[task_name] = new_assignment
        return new_assignment

    def set_mode(self, task_name: str, node_id: str,
                 mode: ControllerMode) -> None:
        assignment = self.assignments[task_name]
        assignment.modes[node_id] = mode

    def active_controller(self, task_name: str) -> str:
        return self.assignments[task_name].primary

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def add_transfer(self, transfer: Transfer) -> None:
        self.transfers.append(transfer)

    def health_assessments(self) -> list[HealthAssessment]:
        return [t for t in self.transfers if isinstance(t, HealthAssessment)]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def utilization_of(self, node_id: str) -> float:
        """Offered load on a node from tasks whose mode there computes."""
        total = 0.0
        for assignment in self.assignments.values():
            mode = assignment.mode_of(node_id)
            if node_id in assignment.hosts and mode.computes:
                total += assignment.task.utilization
        return total

    def describe(self) -> str:
        """Human-readable table (the Fig. 1 / Fig. 6a style summary)."""
        lines = [f"VirtualComponent {self.name!r} (epoch {self.epoch})"]
        lines.append(f"  members: {', '.join(sorted(self.members)) or '-'}")
        for name, assignment in sorted(self.assignments.items()):
            modes = ", ".join(
                f"{n}={assignment.mode_of(n).value}"
                for n in sorted(assignment.modes))
            lines.append(f"  task {name}: primary={assignment.primary} "
                         f"[{modes}] epoch={assignment.epoch}")
        return "\n".join(lines)
