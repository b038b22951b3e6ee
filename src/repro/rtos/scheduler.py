"""Event-driven simulation of nano-RK's preemptive fixed-priority scheduler.

Jobs of periodic tasks are released on their period; the highest-priority
ready job runs; releases of strictly higher-priority jobs preempt the running
one mid-slice.  CPU reservations throttle jobs whose budget is exhausted
until the next replenishment (temporal isolation).  Deadline misses are
detected and traced but jobs are allowed to finish (soft-deadline policy; the
EVM's health layer decides what to do about misses).

Task *bodies* (Python callables) run at job completion and take zero extra
simulated time -- the job's WCET already accounts for the computation.
Exceptions raised by bodies are contained and traced as task faults, which is
one of the fault-injection paths the failover experiments use.

Periodic release and reservation-replenishment chains are armed through the
engine's allocation-free ``post`` path with a per-task *generation token*
(the same pattern :class:`~repro.sim.process.Process` uses for resumes):
the chains only ever need cancelling on task removal, suspend-to-crash or
reconfiguration, so "cancel" is a generation bump instead of an
:class:`~repro.sim.engine.EventHandle` allocated every single period.
Slice-end events keep real handles -- preemption cancels them routinely.
"""

from __future__ import annotations

import heapq
import itertools

from repro.obs import instrument
from repro.rtos.reservations import CpuReservation
from repro.rtos.task import TaskSpec, TaskState, Tcb
from repro.sim.engine import Engine, EventHandle
from repro.sim.trace import Trace

_job_seq = itertools.count(1)


class Job:
    """One release of a task."""

    __slots__ = ("tcb", "release_time", "absolute_deadline", "remaining",
                 "seq", "completed", "cancelled", "response_time")

    def __init__(self, tcb: Tcb, release_time: int, remaining: int,
                 absolute_deadline: int) -> None:
        self.tcb = tcb
        self.release_time = release_time
        self.absolute_deadline = absolute_deadline
        self.remaining = remaining
        self.seq = next(_job_seq)
        self.completed = False
        self.cancelled = False
        self.response_time: int | None = None

    def sort_key(self) -> tuple:
        return (self.tcb.spec.priority, self.release_time, self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Job({self.tcb.name}#{self.seq}, rem={self.remaining}, "
                f"rel={self.release_time})")


class Scheduler:
    """Per-node preemptive fixed-priority scheduler with reservations."""

    def __init__(self, engine: Engine, node_id: str = "node",
                 battery=None, active_current_a: float = 6.0e-3,
                 idle_current_a: float = 2.0e-3,
                 trace: Trace | None = None) -> None:
        self.engine = engine
        self.node_id = node_id
        self.battery = battery
        self.active_current_a = active_current_a
        self.idle_current_a = idle_current_a
        self.trace = trace
        self.tasks: dict[str, Tcb] = {}
        self.cpu_reservations: dict[str, CpuReservation] = {}
        self._ready: list[tuple[tuple, Job]] = []
        self._throttled: dict[str, list[Job]] = {}
        self._current: Job | None = None
        self._slice_start = 0
        self._slice_event: EventHandle | None = None
        # Generation tokens for the periodic chains: an in-flight release/
        # replenish event is live iff it carries the current generation for
        # its task; removal/halt/reconfiguration just bump (or drop) the
        # entry and the stale event no-ops when it pops.  Generations are
        # drawn from one scheduler-wide monotonic counter that is NEVER
        # reset, so an event stranded by halt()/remove_task() can never
        # collide with a generation handed out after a restart/re-add.
        self._gen_counter = 0
        self._release_gens: dict[str, int] = {}
        self._replenish_gens: dict[str, int] = {}
        self.context_switches = 0
        self.preemptions = 0
        self.total_busy_ticks = 0
        self._created_at = engine.now
        self._idle_charged_ticks = 0
        self.halted = False
        # Meters touch rare paths only (preempt, miss, fault, slice
        # start); the dispatch fast path pays one None-check.
        self._obs = instrument.scheduler_meters()

    # ------------------------------------------------------------------
    # Task management (driven by the kernel / EVM)
    # ------------------------------------------------------------------
    def add_task(self, tcb: Tcb,
                 reservation: CpuReservation | None = None) -> None:
        if tcb.name in self.tasks:
            raise ValueError(f"task {tcb.name!r} already scheduled")
        self.tasks[tcb.name] = tcb
        self._throttled[tcb.name] = []
        if reservation is not None:
            self.set_cpu_reservation(tcb.name, reservation)
        if tcb.spec.period_ticks is not None:
            tcb.state = TaskState.SLEEPING
            self._arm_release(tcb, tcb.spec.offset_ticks)

    def _arm_release(self, tcb: Tcb, delay: int) -> None:
        self._gen_counter = gen = self._gen_counter + 1
        self._release_gens[tcb.name] = gen
        self.engine.post(delay, self._release, tcb, gen, priority=-5)

    def _arm_replenish(self, name: str, delay: int) -> None:
        self._gen_counter = gen = self._gen_counter + 1
        self._replenish_gens[name] = gen
        self.engine.post(delay, self._replenish, name, gen, priority=-6)

    def rephase_release(self, name: str, offset_ticks: int) -> None:
        """Restart a periodic task's release chain ``offset_ticks`` from
        now (experiment rigs use this to apply release offsets)."""
        self._arm_release(self.tasks[name], offset_ticks)

    def remove_task(self, name: str) -> Tcb:
        """Detach a task entirely (EVM migration source side)."""
        if name not in self.tasks:
            raise KeyError(f"no task {name!r}")
        tcb = self.tasks.pop(name)
        self._release_gens.pop(name, None)
        self._replenish_gens.pop(name, None)
        self.cpu_reservations.pop(name, None)
        for _key, job in self._ready:
            if job.tcb is tcb:
                job.cancelled = True
        for job in self._throttled.pop(name, []):
            job.cancelled = True
        if self._current is not None and self._current.tcb is tcb:
            self._current.cancelled = True
            self._halt_current_slice(requeue=False)
            self._dispatch()
        tcb.state = TaskState.FINISHED
        return tcb

    def suspend_task(self, name: str) -> None:
        """Skip future releases; abandon in-flight jobs (EVM backup mode)."""
        tcb = self.tasks[name]
        tcb.state = TaskState.SUSPENDED
        for _key, job in self._ready:
            if job.tcb is tcb:
                job.cancelled = True
        for job in self._throttled.get(name, []):
            job.cancelled = True
        self._throttled[name] = []
        if self._current is not None and self._current.tcb is tcb:
            self._current.cancelled = True
            self._halt_current_slice(requeue=False)
            self._dispatch()

    def resume_task(self, name: str) -> None:
        tcb = self.tasks[name]
        if tcb.state is TaskState.SUSPENDED:
            tcb.state = TaskState.SLEEPING

    def set_cpu_reservation(self, name: str,
                            reservation: CpuReservation) -> None:
        """Attach/replace a CPU reservation (EVM resource re-allocation)."""
        if name not in self.tasks:
            raise KeyError(f"no task {name!r}")
        self.cpu_reservations[name] = reservation
        # Arming bumps the generation, which also retires any chain armed
        # for a previously attached reservation.
        self._arm_replenish(name, reservation.period_ticks)

    def spawn_job(self, name: str, exec_ticks: int | None = None,
                  deadline_ticks: int | None = None) -> Job:
        """Release one sporadic job of task ``name`` right now."""
        tcb = self.tasks[name]
        remaining = exec_ticks if exec_ticks is not None else tcb.spec.wcet_ticks
        if remaining <= 0:
            raise ValueError(f"job execution time must be positive")
        deadline = (self.engine.now + deadline_ticks
                    if deadline_ticks is not None
                    else self.engine.now + remaining * 1000)
        job = Job(tcb, self.engine.now, remaining, deadline)
        tcb.jobs_released += 1
        self._enqueue(job)
        self._dispatch()
        return job

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def specs(self) -> list[TaskSpec]:
        return [tcb.spec for tcb in self.tasks.values()]

    @property
    def running_task(self) -> str | None:
        return self._current.tcb.name if self._current is not None else None

    def utilization_now(self) -> float:
        return sum(tcb.spec.utilization for tcb in self.tasks.values()
                   if tcb.state is not TaskState.SUSPENDED)

    def halt(self) -> None:
        """Stop all scheduling activity (node crash)."""
        self.halted = True
        # Dropping the generations strands every in-flight periodic event.
        self._release_gens.clear()
        self._replenish_gens.clear()
        if self._current is not None:
            self._halt_current_slice(requeue=False)
        for _key, job in self._ready:
            job.cancelled = True
        self._ready.clear()
        # Throttled jobs die with the crash too -- otherwise the first
        # replenishment after a restart() would resurrect a pre-crash job
        # with its long-expired deadline.
        for jobs in self._throttled.values():
            for job in jobs:
                job.cancelled = True
            jobs.clear()

    def restart(self) -> None:
        """Resume after :meth:`halt` (node reboot).

        Periodic release chains restart from *now* -- a rebooted node has
        lost its old phase -- and reservation replenishment resumes one
        period out.  In-flight jobs from before the crash are gone.
        """
        if not self.halted:
            return
        self.halted = False
        self._current = None
        self._slice_event = None
        for tcb in self.tasks.values():
            if tcb.state is TaskState.SUSPENDED:
                continue
            if tcb.spec.period_ticks is not None:
                tcb.state = TaskState.SLEEPING
                self._arm_release(tcb, tcb.spec.offset_ticks)
        for name, reservation in self.cpu_reservations.items():
            self._arm_replenish(name, reservation.period_ticks)

    def finalize_energy_accounting(self) -> None:
        """Charge idle current for all non-busy time up to now."""
        if self.battery is None:
            return
        elapsed = self.engine.now - self._created_at
        idle = elapsed - self.total_busy_ticks - self._idle_charged_ticks
        if idle > 0:
            self.battery.draw(self.idle_current_a, idle)
            self._idle_charged_ticks += idle

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
    def _release(self, tcb: Tcb, gen: int) -> None:
        if self.halted or gen != self._release_gens.get(tcb.name):
            return  # stale chain: task removed, node crashed, or re-phased
        spec = tcb.spec
        # Chain the next periodic release regardless of suspension.
        self._arm_release(tcb, spec.period_ticks)
        if tcb.state is TaskState.SUSPENDED:
            return
        tcb.jobs_released += 1
        job = Job(tcb, self.engine.now, spec.wcet_ticks,
                  self.engine.now + spec.effective_deadline)
        self.engine.post(spec.effective_deadline, self._check_deadline,
                         job, priority=-4)
        self._enqueue(job)
        self._dispatch()

    def _enqueue(self, job: Job) -> None:
        job.tcb.state = TaskState.READY
        heapq.heappush(self._ready, (job.sort_key(), job))

    def _peek_ready(self) -> Job | None:
        while self._ready:
            _key, job = self._ready[0]
            if job.cancelled:
                heapq.heappop(self._ready)
                continue
            return job
        return None

    def _dispatch(self) -> None:
        if self.halted:
            return
        top = self._peek_ready()
        if self._current is None:
            if top is not None:
                heapq.heappop(self._ready)
                self._start_slice(top)
            return
        if (top is not None
                and top.tcb.spec.priority < self._current.tcb.spec.priority):
            self.preemptions += 1
            if self._obs is not None:
                self._obs.preemptions.inc()
            preempted = self._halt_current_slice(requeue=True)
            if self.trace is not None and preempted is not None:
                self.trace.record(self.engine.now, "rtos.preempt",
                                  self.node_id, task=preempted.tcb.name,
                                  by=top.tcb.name)
            heapq.heappop(self._ready)
            self._start_slice(top)

    def _start_slice(self, job: Job) -> None:
        reservation = self.cpu_reservations.get(job.tcb.name)
        if reservation is not None and reservation.exhausted:
            self._throttle(job)
            self._dispatch()
            return
        slice_ticks = job.remaining
        if reservation is not None:
            slice_ticks = min(slice_ticks, int(reservation.available()))
            if slice_ticks <= 0:
                self._throttle(job)
                self._dispatch()
                return
        self._current = job
        self._slice_start = self.engine.now
        job.tcb.state = TaskState.RUNNING
        self.context_switches += 1
        if self._obs is not None:
            self._obs.context_switches.inc()
        self._slice_event = self.engine.schedule(
            slice_ticks, self._slice_end, job)

    def _slice_end(self, job: Job) -> None:
        if self._current is not job:
            return
        self._account_slice(job)
        self._current = None
        self._slice_event = None
        if job.remaining <= 0:
            self._complete(job)
        else:
            # Budget ran out mid-job: throttle until replenishment.
            self._throttle(job)
        self._dispatch()

    def _halt_current_slice(self, requeue: bool) -> Job | None:
        """Stop the running slice early (preemption, suspension, removal)."""
        job = self._current
        if job is None:
            return None
        self._account_slice(job)
        if self._slice_event is not None:
            self._slice_event.cancel()
            self._slice_event = None
        self._current = None
        if job.cancelled:
            return job
        if job.remaining <= 0:
            # The slice boundary coincided with the job's completion (e.g.
            # a release event at the exact finish tick): complete it now
            # rather than letting the finished job evaporate.
            self._complete(job)
        elif requeue:
            self._enqueue(job)
        return job

    def _account_slice(self, job: Job) -> None:
        executed = self.engine.now - self._slice_start
        if executed <= 0:
            return
        job.remaining -= executed
        job.tcb.total_executed_ticks += executed
        self.total_busy_ticks += executed
        reservation = self.cpu_reservations.get(job.tcb.name)
        if reservation is not None:
            reservation.consume_upto(executed)
        if self.battery is not None:
            self.battery.draw(self.active_current_a, executed)

    def _throttle(self, job: Job) -> None:
        job.tcb.state = TaskState.THROTTLED
        self._throttled.setdefault(job.tcb.name, []).append(job)
        if self.trace is not None:
            self.trace.record(self.engine.now, "rtos.throttle", self.node_id,
                              task=job.tcb.name, remaining=job.remaining)

    def _replenish(self, name: str, gen: int) -> None:
        if self.halted or gen != self._replenish_gens.get(name):
            return  # stale chain: reservation replaced or task removed
        reservation = self.cpu_reservations[name]
        reservation.replenish()
        self._arm_replenish(name, reservation.period_ticks)
        waiting = self._throttled.get(name, [])
        self._throttled[name] = []
        for job in waiting:
            if not job.cancelled:
                self._enqueue(job)
        if waiting:
            self._dispatch()

    def _complete(self, job: Job) -> None:
        job.completed = True
        tcb = job.tcb
        tcb.jobs_completed += 1
        tcb.last_completion_time = self.engine.now
        tcb.state = TaskState.SLEEPING
        job.response_time = self.engine.now - job.release_time
        if self.trace is not None:
            self.trace.record(self.engine.now, "rtos.complete", self.node_id,
                              task=tcb.name, response=job.response_time)
        if tcb.body is not None:
            try:
                tcb.body(tcb)
            except Exception as exc:  # noqa: BLE001 - fault containment
                if self._obs is not None:
                    self._obs.task_faults.inc()
                if self.trace is not None:
                    self.trace.record(self.engine.now, "rtos.task_fault",
                                      self.node_id, task=tcb.name,
                                      error=repr(exc))

    def _check_deadline(self, job: Job) -> None:
        if job.completed or job.cancelled:
            return
        job.tcb.deadline_misses += 1
        if self._obs is not None:
            self._obs.deadline_misses.inc()
        if self.trace is not None:
            self.trace.record(self.engine.now, "rtos.deadline_miss",
                              self.node_id, task=job.tcb.name,
                              release=job.release_time)
