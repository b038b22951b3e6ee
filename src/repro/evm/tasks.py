"""Logical tasks: node-independent units of control work.

The paper's central abstraction shift: tasks are assigned to the Virtual
Component *as a whole*, not bound to physical nodes at compile time.  A
:class:`LogicalTask` declares what the work is (an EVM bytecode program),
what it costs (timing contract), and what a hosting node must provide
(capabilities).  The EVM decides -- and revises at runtime -- which physical
node actually runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rtos.task import TaskSpec


@dataclass(frozen=True)
class LogicalTask:
    """One unit of control functionality owned by a Virtual Component.

    ``program_name`` names the code capsule holding the control law; nodes
    must have that capsule installed (dissemination handles this) before
    they can host the task.  ``required_capabilities`` gate placement: e.g.
    ``{"controller"}`` or ``{"actuate:lts_valve"}``.  ``replicas`` is the
    total number of instances the VC maintains (1 primary + N-1 backups).
    """

    name: str
    program_name: str
    period_ticks: int
    wcet_ticks: int
    priority: int = 10
    stack_bytes: int = 256
    memory_slots: int = 16
    initial_memory: tuple[float, ...] = ()
    required_capabilities: frozenset[str] = frozenset()
    replicas: int = 2

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError(f"task {self.name!r}: replicas must be >= 1")
        if len(self.initial_memory) > self.memory_slots:
            raise ValueError(
                f"task {self.name!r}: initial memory exceeds declared slots")

    def to_spec(self, suffix: str = "") -> TaskSpec:
        """The nano-RK timing contract for one hosted instance."""
        return TaskSpec(
            name=self.name + suffix,
            wcet_ticks=self.wcet_ticks,
            period_ticks=self.period_ticks,
            priority=self.priority,
            stack_bytes=self.stack_bytes,
        )

    def build_memory(self) -> list[float]:
        """A fresh data segment, initial values then zeros."""
        memory = list(self.initial_memory)
        memory.extend(0.0 for _ in range(self.memory_slots - len(memory)))
        return memory

    @property
    def utilization(self) -> float:
        return self.wcet_ticks / self.period_ticks
