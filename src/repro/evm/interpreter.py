"""The EVM stack interpreter.

Executes :class:`~repro.evm.bytecode.Program` routines against a task's
migratable memory.  The interpreter itself is stateless between runs: all
mutable state lives in the :class:`VmState`, which control tasks keep inside
their TCBs -- so migrating a TCB genuinely transplants a computation.

Extensibility (the paper's departure from Mate): new *words* can be
registered at runtime and invoked by ``WORD`` instructions, and *host hooks*
bind ``HOST``/``IN``/``OUT`` to kernel, sensor and network operations.

Dispatch is direct-threaded: each :class:`~repro.evm.bytecode.Program` is
compiled once per process into a per-instruction list of ``(handler, arg)``
pairs built from a dispatch table, so the inner loop is "index, call"
instead of a 30-way opcode chain.  The code is kept on the program object
and shared by every interpreter that runs it; one slot is one instruction
and one step.  Compile-time work (float coercion of PUSH literals,
jump-range validation, channel/host/word name resolution) is hoisted out of
the loop, but every *runtime-visible* behaviour -- error strings, the
program state at the moment an error is raised, step accounting and budget
pauses, the root-table fallback for empty name tables -- is bit-identical
to the naive dispatcher; the golden-determinism suite pins this against a
reference transcription of the seed's dispatch loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.evm.bytecode import Opcode, Program
from repro.obs import instrument

CYCLES_PER_INSTRUCTION = 80
"""Calibration: interpreted instructions cost ~80 AVR cycles each (Mate
reports ~1:33 vs native; we include dispatch overhead)."""


class VmError(RuntimeError):
    """Raised for stack violations, bad jumps, missing hooks, step overrun."""


@dataclass(slots=True)
class VmState:
    """The complete mutable interpreter state (snapshot-able)."""

    stack: list[float] = field(default_factory=list)
    rstack: list[tuple[str, int]] = field(default_factory=list)
    pc: int = 0
    routine: str = ""
    steps: int = 0
    halted: bool = False

    def snapshot(self) -> dict[str, Any]:
        return {
            "stack": list(self.stack),
            "rstack": list(self.rstack),
            "pc": self.pc,
            "routine": self.routine,
            "steps": self.steps,
            "halted": self.halted,
        }

    @classmethod
    def restore(cls, data: dict[str, Any]) -> "VmState":
        state = cls()
        state.stack = list(data["stack"])
        state.rstack = [tuple(frame) for frame in data["rstack"]]
        state.pc = data["pc"]
        state.routine = data["routine"]
        state.steps = data["steps"]
        state.halted = data["halted"]
        return state


# ----------------------------------------------------------------------
# Threaded-code handlers.
#
# Every handler has the signature ``handler(ctx, state, stack, arg)`` and
# returns a truthy value only when it switched the current routine (RET,
# WORD), telling the run loop to reload its compiled-code pointer.  The
# stack is manipulated inline -- list.append / list.pop on the state's
# stack list -- with the same bound checks and error strings the
# ExecutionContext methods produce.
# ----------------------------------------------------------------------
def _underflow(state) -> VmError:
    return VmError(f"stack underflow in {state.routine!r}")


def _overflow(ctx, state) -> VmError:
    return VmError(f"stack overflow in {state.routine!r} "
                   f"(depth {ctx._max_stack})")


def _h_halt(ctx, state, stack, arg):
    state.halted = True


def _h_nop(ctx, state, stack, arg):
    pass


def _h_push(ctx, state, stack, arg):
    if len(stack) >= ctx._max_stack:
        raise _overflow(ctx, state)
    stack.append(arg)


def _h_dup(ctx, state, stack, arg):
    if not stack:
        raise _underflow(state)
    if len(stack) >= ctx._max_stack:
        raise _overflow(ctx, state)
    stack.append(stack[-1])


def _h_drop(ctx, state, stack, arg):
    if not stack:
        raise _underflow(state)
    stack.pop()


def _h_swap(ctx, state, stack, arg):
    try:
        b = stack.pop()
        a = stack.pop()
    except IndexError:
        raise _underflow(state) from None
    stack.append(b)
    stack.append(a)


def _h_over(ctx, state, stack, arg):
    try:
        b = stack.pop()
        a = stack.pop()
    except IndexError:
        raise _underflow(state) from None
    stack.append(a)
    stack.append(b)
    if len(stack) >= ctx._max_stack:
        raise _overflow(ctx, state)
    stack.append(a)


def _h_rot(ctx, state, stack, arg):
    try:
        c = stack.pop()
        b = stack.pop()
        a = stack.pop()
    except IndexError:
        raise _underflow(state) from None
    stack.append(b)
    stack.append(c)
    stack.append(a)


def _h_add(ctx, state, stack, arg):
    try:
        b = stack.pop()
        a = stack.pop()
    except IndexError:
        raise _underflow(state) from None
    stack.append(a + b)


def _h_sub(ctx, state, stack, arg):
    try:
        b = stack.pop()
        a = stack.pop()
    except IndexError:
        raise _underflow(state) from None
    stack.append(a - b)


def _h_mul(ctx, state, stack, arg):
    try:
        b = stack.pop()
        a = stack.pop()
    except IndexError:
        raise _underflow(state) from None
    stack.append(a * b)


def _h_div(ctx, state, stack, arg):
    try:
        b = stack.pop()
        a = stack.pop()
    except IndexError:
        raise _underflow(state) from None
    if b == 0.0:
        raise VmError(f"division by zero in {state.routine!r}")
    stack.append(a / b)


def _h_neg(ctx, state, stack, arg):
    if not stack:
        raise _underflow(state)
    stack.append(-stack.pop())


def _h_abs(ctx, state, stack, arg):
    if not stack:
        raise _underflow(state)
    stack.append(abs(stack.pop()))


def _h_min(ctx, state, stack, arg):
    try:
        b = stack.pop()
        a = stack.pop()
    except IndexError:
        raise _underflow(state) from None
    # Builtin min/max, not a comparison ternary: NaN propagation and the
    # first-operand-wins tie (-0.0 vs 0.0) must match the seed exactly.
    stack.append(min(a, b))


def _h_max(ctx, state, stack, arg):
    try:
        b = stack.pop()
        a = stack.pop()
    except IndexError:
        raise _underflow(state) from None
    stack.append(max(a, b))


def _h_lt(ctx, state, stack, arg):
    try:
        b = stack.pop()
        a = stack.pop()
    except IndexError:
        raise _underflow(state) from None
    stack.append(1.0 if a < b else 0.0)


def _h_gt(ctx, state, stack, arg):
    try:
        b = stack.pop()
        a = stack.pop()
    except IndexError:
        raise _underflow(state) from None
    stack.append(1.0 if a > b else 0.0)


def _h_le(ctx, state, stack, arg):
    try:
        b = stack.pop()
        a = stack.pop()
    except IndexError:
        raise _underflow(state) from None
    stack.append(1.0 if a <= b else 0.0)


def _h_ge(ctx, state, stack, arg):
    try:
        b = stack.pop()
        a = stack.pop()
    except IndexError:
        raise _underflow(state) from None
    stack.append(1.0 if a >= b else 0.0)


def _h_eq(ctx, state, stack, arg):
    try:
        b = stack.pop()
        a = stack.pop()
    except IndexError:
        raise _underflow(state) from None
    stack.append(1.0 if a == b else 0.0)


def _h_ne(ctx, state, stack, arg):
    try:
        b = stack.pop()
        a = stack.pop()
    except IndexError:
        raise _underflow(state) from None
    stack.append(1.0 if a != b else 0.0)


def _h_and(ctx, state, stack, arg):
    try:
        b = stack.pop()
        a = stack.pop()
    except IndexError:
        raise _underflow(state) from None
    stack.append(1.0 if (a != 0.0 and b != 0.0) else 0.0)


def _h_or(ctx, state, stack, arg):
    try:
        b = stack.pop()
        a = stack.pop()
    except IndexError:
        raise _underflow(state) from None
    stack.append(1.0 if (a != 0.0 or b != 0.0) else 0.0)


def _h_not(ctx, state, stack, arg):
    if not stack:
        raise _underflow(state)
    stack.append(1.0 if stack.pop() == 0.0 else 0.0)


def _h_jmp(ctx, state, stack, arg):
    state.pc = arg


def _h_jmp_bad(ctx, state, stack, arg):
    raise VmError(f"jump target {arg} out of range in {state.routine!r}")


def _h_jz(ctx, state, stack, arg):
    if not stack:
        raise _underflow(state)
    if stack.pop() == 0.0:
        state.pc = arg


def _h_jz_bad(ctx, state, stack, arg):
    # Out-of-range target, validated only when the branch is taken (the
    # naive dispatcher popped first and jumped second).
    if not stack:
        raise _underflow(state)
    if stack.pop() == 0.0:
        raise VmError(f"jump target {arg} out of range in {state.routine!r}")


def _h_call(ctx, state, stack, arg):
    state.rstack.append((state.routine, state.pc))
    state.pc = arg


def _h_call_bad(ctx, state, stack, arg):
    # The return frame is pushed before the jump validates, matching the
    # state observable from the raised error.
    state.rstack.append((state.routine, state.pc))
    raise VmError(f"jump target {arg} out of range in {state.routine!r}")


def _h_ret(ctx, state, stack, arg):
    if not state.rstack:
        state.halted = True
        return None
    state.routine, state.pc = state.rstack.pop()
    return True


def _h_load(ctx, state, stack, arg):
    memory = ctx.memory
    if not 0 <= arg < len(memory):
        raise VmError(f"LOAD slot {arg} out of range")
    if len(stack) >= ctx._max_stack:
        raise _overflow(ctx, state)
    # float() as in ExecutionContext.push: LOAD is the one handler that can
    # otherwise leak a non-float (int-seeded memory) onto the stack.
    stack.append(float(memory[arg]))


def _h_store(ctx, state, stack, arg):
    # The naive dispatcher evaluated ``pop()`` before validating the
    # slot, so the value is consumed even when the slot is bad.
    if not stack:
        raise _underflow(state)
    value = stack.pop()
    memory = ctx.memory
    if not 0 <= arg < len(memory):
        raise VmError(f"STORE slot {arg} out of range")
    memory[arg] = value


def _h_in_named(ctx, state, stack, name):
    fn = ctx.interpreter._channels_in.get(name)
    if fn is None:
        raise VmError(f"no input bound for channel {name!r}")
    value = float(fn())  # the read (and its side effects) precede the push
    if len(stack) >= ctx._max_stack:
        raise _overflow(ctx, state)
    stack.append(value)


def _h_out_named(ctx, state, stack, name):
    # Pop first: OUT consumed its operand before any channel validation.
    if not stack:
        raise _underflow(state)
    value = stack.pop()
    fn = ctx.interpreter._channels_out.get(name)
    if fn is None:
        raise VmError(f"no output bound for channel {name!r}")
    fn(value)


def _h_host_named(ctx, state, stack, name):
    fn = ctx.interpreter._hosts.get(name)
    if fn is None:
        raise VmError(f"no host hook registered for {name!r}")
    fn(ctx)


def _h_word_named(ctx, state, stack, name):
    if name not in ctx.interpreter._words:
        raise VmError(f"word {name!r} not installed")
    state.rstack.append((state.routine, state.pc))
    state.routine = name
    state.pc = 0
    return True


def _h_in_dynamic(ctx, state, stack, arg):
    # Empty channel table at compile time: resolve through the root
    # program's tables at run time, exactly like the naive dispatcher.
    value = ctx.read_channel(arg)
    if len(stack) >= ctx._max_stack:
        raise _overflow(ctx, state)
    stack.append(value)


def _h_out_dynamic(ctx, state, stack, arg):
    if not stack:
        raise _underflow(state)
    ctx.write_channel(arg, stack.pop())


def _h_out_bad(ctx, state, stack, arg):
    # OUT with an out-of-range channel index still pops its operand
    # before the index validation fires.
    if not stack:
        raise _underflow(state)
    stack.pop()
    raise VmError(f"channel index {arg} out of range")


def _h_host_dynamic(ctx, state, stack, arg):
    ctx.call_host(arg)


def _h_word_dynamic(ctx, state, stack, arg):
    ctx.call_word(arg)
    return True


def _h_channel_bad(ctx, state, stack, arg):
    raise VmError(f"channel index {arg} out of range")


def _h_host_bad(ctx, state, stack, arg):
    raise VmError(f"host index {arg} out of range")


def _h_word_bad(ctx, state, stack, arg):
    raise VmError(f"word index {arg} out of range")


_SIMPLE_HANDLERS = {
    Opcode.HALT: _h_halt,
    Opcode.NOP: _h_nop,
    Opcode.DUP: _h_dup,
    Opcode.DROP: _h_drop,
    Opcode.SWAP: _h_swap,
    Opcode.OVER: _h_over,
    Opcode.ROT: _h_rot,
    Opcode.ADD: _h_add,
    Opcode.SUB: _h_sub,
    Opcode.MUL: _h_mul,
    Opcode.DIV: _h_div,
    Opcode.NEG: _h_neg,
    Opcode.ABS: _h_abs,
    Opcode.MIN: _h_min,
    Opcode.MAX: _h_max,
    Opcode.LT: _h_lt,
    Opcode.GT: _h_gt,
    Opcode.LE: _h_le,
    Opcode.GE: _h_ge,
    Opcode.EQ: _h_eq,
    Opcode.NE: _h_ne,
    Opcode.AND: _h_and,
    Opcode.OR: _h_or,
    Opcode.NOT: _h_not,
    Opcode.RET: _h_ret,
    Opcode.LOAD: _h_load,
    Opcode.STORE: _h_store,
}

_NAMED_TABLES = {
    Opcode.IN: ("channels", _h_in_named, _h_in_dynamic, _h_channel_bad),
    Opcode.OUT: ("channels", _h_out_named, _h_out_dynamic, _h_out_bad),
    Opcode.HOST: ("host_names", _h_host_named, _h_host_dynamic, _h_host_bad),
    Opcode.WORD: ("word_names", _h_word_named, _h_word_dynamic, _h_word_bad),
}


def _compile_program(program: Program) -> list[tuple]:
    """Translate ``program`` into its direct-threaded ``(handler, arg)``
    form.  Pure function of the (immutable) program, so the result is
    cached per program object (see :func:`_threaded`)."""
    n = len(program.instructions)
    code: list[tuple] = []
    for ins in program.instructions:
        op = ins.opcode
        simple = _SIMPLE_HANDLERS.get(op)
        if simple is not None:
            code.append((simple, ins.arg))
        elif op is Opcode.PUSH:
            code.append((_h_push, float(ins.arg)))
        elif op is Opcode.JMP:
            code.append((_h_jmp, ins.arg) if 0 <= ins.arg <= n
                        else (_h_jmp_bad, ins.arg))
        elif op is Opcode.JZ:
            code.append((_h_jz, ins.arg) if 0 <= ins.arg <= n
                        else (_h_jz_bad, ins.arg))
        elif op is Opcode.CALL:
            code.append((_h_call, ins.arg) if 0 <= ins.arg <= n
                        else (_h_call_bad, ins.arg))
        else:
            table_attr, named, dynamic, bad = _NAMED_TABLES[op]
            table = getattr(program, table_attr)
            if not table:
                # Empty table: the naive dispatcher falls back to the
                # *root* program's tables, which are only known per run.
                code.append((dynamic, ins.arg))
            elif 0 <= ins.arg < len(table):
                code.append((named, table[ins.arg]))
            else:
                code.append((bad, ins.arg))
    return code


_THREADED_ATTR = "_threaded_code"


def _threaded(program: Program) -> list[tuple]:
    """Threaded code for ``program``, compiled on first use and kept on
    the program object outside its dataclass fields.

    It is shared by every interpreter in the process and dies with the
    program.  The cache is per object, never per value: programs holding
    ``PUSH 0.0`` and ``PUSH -0.0`` compare equal but compute different
    outputs, so each compiles its own.
    """
    attrs = vars(program)
    code = attrs.get(_THREADED_ATTR)
    if code is None:
        # setdefault: a racing thread's code wins, so all callers share it.
        code = attrs.setdefault(_THREADED_ATTR, _compile_program(program))
    return code


class Interpreter:
    """Executes programs; owns the word and host-hook registries."""

    def __init__(self, max_stack: int = 64, max_steps: int = 100_000) -> None:
        self.max_stack = max_stack
        self.max_steps = max_steps
        self._words: dict[str, Program] = {}
        self._hosts: dict[str, Callable[["ExecutionContext"], None]] = {}
        self._channels_in: dict[str, Callable[[], float]] = {}
        self._channels_out: dict[str, Callable[[float], None]] = {}
        # Metered at execute() granularity only -- the threaded-code
        # dispatch loop must never see a per-instruction hook.
        self._obs = instrument.vm_meters()

    # ------------------------------------------------------------------
    # Runtime extensibility
    # ------------------------------------------------------------------
    def register_word(self, program: Program) -> None:
        """Install a user-defined word (new instruction) at runtime."""
        self._words[program.name] = program

    def has_word(self, name: str) -> bool:
        return name in self._words

    def register_host(self, name: str,
                      fn: Callable[["ExecutionContext"], None]) -> None:
        """Bind a ``HOST`` operation to a kernel/EVM function."""
        self._hosts[name] = fn

    def bind_input(self, channel: str, fn: Callable[[], float]) -> None:
        """Bind an ``IN`` channel (sensor read, received value, ...)."""
        self._channels_in[channel] = fn

    def bind_output(self, channel: str, fn: Callable[[float], None]) -> None:
        """Bind an ``OUT`` channel (actuation, transmit, ...)."""
        self._channels_out[channel] = fn

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, program: Program, memory: list[float],
                state: VmState | None = None,
                max_steps: int | None = None,
                pause_on_budget: bool = False) -> VmState:
        """Run ``program`` to HALT (or step bound) against ``memory``.

        ``memory`` is the task's data segment, mutated in place by
        LOAD/STORE.  Pass a prior non-halted ``state`` to resume a paused
        computation.  With ``pause_on_budget=True`` an exhausted step
        budget *pauses* instead of raising: the returned state has
        ``halted=False`` and can be snapshot, migrated, restored and
        resumed elsewhere -- how mid-computation task migration carries
        "register settings" across nodes.  Returns the final state.
        """
        context = ExecutionContext(self, program, memory)
        if state is None:
            state = VmState(routine=program.name)
        context.state = state
        budget = max_steps if max_steps is not None else self.max_steps
        if self._obs is None:
            self._run(context, state.steps + budget, pause_on_budget)
            return state
        before = state.steps
        try:
            self._run(context, state.steps + budget, pause_on_budget)
        except VmError:
            self._obs.faults.inc()
            self._obs.instructions.inc(state.steps - before)
            raise
        self._obs.instructions.inc(state.steps - before)
        return state

    def estimated_cycles(self, state: VmState) -> int:
        """MCU cycles the run consumed (for WCET budgeting)."""
        return state.steps * CYCLES_PER_INSTRUCTION

    def _run(self, context: "ExecutionContext", budget: int,
             pause_on_budget: bool = False) -> None:
        state = context.state
        # The stack list object is stable for the whole run: handlers and
        # host hooks mutate it in place (ctx.push/pop), never rebind it.
        stack = state.stack
        # Code loads lazily so a halted or budget-exhausted state never
        # resolves its routine (the naive loop checked those first).
        code: list[tuple] | None = None
        ncode = 0
        steps = state.steps
        try:
            while not state.halted:
                if steps >= budget:
                    if pause_on_budget:
                        return
                    raise VmError(
                        f"step budget {budget} exhausted in "
                        f"{state.routine!r} (pc={state.pc})")
                if code is None:
                    code = context._load_code()
                    ncode = len(code)
                pc = state.pc
                if pc >= ncode:
                    # Falling off the end returns from a word, halts at
                    # top level.
                    if state.rstack:
                        state.routine, state.pc = state.rstack.pop()
                        code = context._load_code()
                        ncode = len(code)
                        continue
                    state.halted = True
                    break
                handler, arg = code[pc]
                state.pc = pc + 1
                steps += 1
                if handler(context, state, stack, arg):
                    # Routine switch (RET / WORD): reload its code.
                    code = context._load_code()
                    ncode = len(code)
        finally:
            state.steps = steps


class ExecutionContext:
    """Per-run binding of interpreter, program, task memory and VM state."""

    def __init__(self, interpreter: Interpreter, program: Program,
                 memory: list[float]) -> None:
        self.interpreter = interpreter
        self.root_program = program
        self.memory = memory
        self.state: VmState = VmState(routine=program.name)
        self._programs: dict[str, Program] = {program.name: program}
        self._codes: dict[str, list[tuple]] = {}
        self._max_stack = interpreter.max_stack

    def current_program(self) -> Program:
        name = self.state.routine
        if name in self._programs:
            return self._programs[name]
        word = self.interpreter._words.get(name)
        if word is None:
            raise VmError(f"unknown routine {name!r}")
        self._programs[name] = word
        return word

    def _load_code(self) -> list[tuple]:
        """Threaded code for the current routine, cached per run so a
        word re-registered mid-run keeps the version it started with
        (the same pin ``current_program`` provides)."""
        name = self.state.routine
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = _threaded(self.current_program())
        return code

    # ------------------------------------------------------------------
    # Stack
    # ------------------------------------------------------------------
    def push(self, value: float) -> None:
        if len(self.state.stack) >= self.interpreter.max_stack:
            raise VmError(
                f"stack overflow in {self.state.routine!r} "
                f"(depth {self.interpreter.max_stack})")
        self.state.stack.append(float(value))

    def pop(self) -> float:
        if not self.state.stack:
            raise VmError(f"stack underflow in {self.state.routine!r}")
        return self.state.stack.pop()

    # ------------------------------------------------------------------
    # Channels / hosts / words
    # ------------------------------------------------------------------
    def _channel_name(self, index: int) -> str:
        channels = self.current_program().channels or self.root_program.channels
        if not 0 <= index < len(channels):
            raise VmError(f"channel index {index} out of range")
        return channels[index]

    def read_channel(self, index: int) -> float:
        name = self._channel_name(index)
        fn = self.interpreter._channels_in.get(name)
        if fn is None:
            raise VmError(f"no input bound for channel {name!r}")
        return float(fn())

    def write_channel(self, index: int, value: float) -> None:
        name = self._channel_name(index)
        fn = self.interpreter._channels_out.get(name)
        if fn is None:
            raise VmError(f"no output bound for channel {name!r}")
        fn(value)

    def call_host(self, index: int) -> None:
        hosts = self.current_program().host_names or self.root_program.host_names
        if not 0 <= index < len(hosts):
            raise VmError(f"host index {index} out of range")
        name = hosts[index]
        fn = self.interpreter._hosts.get(name)
        if fn is None:
            raise VmError(f"no host hook registered for {name!r}")
        fn(self)

    def call_word(self, index: int) -> None:
        words = self.current_program().word_names or self.root_program.word_names
        if not 0 <= index < len(words):
            raise VmError(f"word index {index} out of range")
        name = words[index]
        if name not in self.interpreter._words:
            raise VmError(f"word {name!r} not installed")
        self.state.rstack.append((self.state.routine, self.state.pc))
        self.state.routine = name
        self.state.pc = 0
