"""The EVM stack interpreter.

Executes :class:`~repro.evm.bytecode.Program` routines against a task's
migratable memory.  The interpreter itself is stateless between runs: all
mutable state lives in the :class:`VmState`, which control tasks keep inside
their TCBs -- so migrating a TCB genuinely transplants a computation.

Extensibility (the paper's departure from Mate): new *words* can be
registered at runtime and invoked by ``WORD`` instructions, and *host hooks*
bind ``HOST``/``IN``/``OUT`` to kernel, sensor and network operations.

A program runs only if it compiles: :func:`compile_program` checks each
program once, when it loads, and translates it into direct-threaded code,
a per-instruction list of ``(handler, arg)`` pairs, so the inner loop is
"index, call" instead of a 30-way opcode chain.  It raises
:class:`VmError` before any instruction runs if a ``JMP``/``JZ``/``CALL``
target lies outside ``0..len(program)`` or an ``IN``/``OUT``/``HOST``/
``WORD`` index outside the program's own table (an empty one included).
The code is kept on the program object and shared by every interpreter
that runs it; one slot is one instruction and one step.  What depends on
the run stays a run-time error: ``LOAD``/``STORE`` slots (memory size is
per instance), unbound channels, hooks and words, stack underflow and
overflow, division by zero and the step budget.  For programs that
compile, all of it is bit-identical to the naive dispatcher; the
golden-determinism suite pins this against a reference transcription of
the seed's dispatch loop.
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
    """Raised when a program does not compile (bad jump target or table
    index) and when a run faults (stack, slot, binding, division, budget)."""


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
# stack list -- with the same bound checks and error strings as
# ExecutionContext.push / pop.
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


def _h_jz(ctx, state, stack, arg):
    if not stack:
        raise _underflow(state)
    if stack.pop() == 0.0:
        state.pc = arg


def _h_call(ctx, state, stack, arg):
    state.rstack.append((state.routine, state.pc))
    state.pc = arg


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


def _h_in(ctx, state, stack, name):
    fn = ctx.interpreter._channels_in.get(name)
    if fn is None:
        raise VmError(f"no input bound for channel {name!r}")
    value = float(fn())  # the read (and its side effects) precede the push
    if len(stack) >= ctx._max_stack:
        raise _overflow(ctx, state)
    stack.append(value)


def _h_out(ctx, state, stack, name):
    # Pop first: OUT consumed its operand before any channel validation.
    if not stack:
        raise _underflow(state)
    value = stack.pop()
    fn = ctx.interpreter._channels_out.get(name)
    if fn is None:
        raise VmError(f"no output bound for channel {name!r}")
    fn(value)


def _h_host(ctx, state, stack, name):
    fn = ctx.interpreter._hosts.get(name)
    if fn is None:
        raise VmError(f"no host hook registered for {name!r}")
    fn(ctx)


def _h_word(ctx, state, stack, name):
    if name not in ctx.interpreter._words:
        raise VmError(f"word {name!r} not installed")
    state.rstack.append((state.routine, state.pc))
    state.routine = name
    state.pc = 0
    return True


_HANDLERS = {
    Opcode.HALT: _h_halt,
    Opcode.NOP: _h_nop,
    Opcode.PUSH: _h_push,
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
    Opcode.JMP: _h_jmp,
    Opcode.JZ: _h_jz,
    Opcode.CALL: _h_call,
    Opcode.RET: _h_ret,
    Opcode.LOAD: _h_load,
    Opcode.STORE: _h_store,
    Opcode.IN: _h_in,
    Opcode.OUT: _h_out,
    Opcode.HOST: _h_host,
    Opcode.WORD: _h_word,
}

_JUMPS = frozenset({Opcode.JMP, Opcode.JZ, Opcode.CALL})

# Opcode -> (the program table its index points into, what it names).
_NAMED_TABLES = {
    Opcode.IN: ("channels", "channel"),
    Opcode.OUT: ("channels", "channel"),
    Opcode.HOST: ("host_names", "host"),
    Opcode.WORD: ("word_names", "word"),
}


def _compile_program(program: Program) -> list[tuple]:
    """Check ``program`` and translate it into its direct-threaded
    ``(handler, arg)`` form.

    Raises :class:`VmError` for a jump target outside ``0..len(program)``
    or a table index outside the program's own table.  Pure function of
    the (immutable) program, so the result is cached per program object
    (see :func:`compile_program`).
    """
    n = len(program.instructions)
    code: list[tuple] = []
    for ins in program.instructions:
        op, arg = ins.opcode, ins.arg
        if op is Opcode.PUSH:
            arg = float(arg)
        elif op in _JUMPS:
            if not 0 <= arg <= n:
                raise VmError(f"jump target {arg} out of range in "
                              f"{program.name!r}")
        elif op in _NAMED_TABLES:
            table_attr, kind = _NAMED_TABLES[op]
            table = getattr(program, table_attr)
            if not 0 <= arg < len(table):
                raise VmError(f"{kind} index {arg} out of range")
            arg = table[arg]
        code.append((_HANDLERS[op], arg))
    return code


_THREADED_ATTR = "_threaded_code"


def compile_program(program: Program) -> list[tuple]:
    """Threaded code for ``program``, checked and compiled on first use and
    kept on the program object outside its dataclass fields.

    Raises :class:`VmError`, and caches nothing, if a jump target or table
    index is out of range.  The code is shared by every interpreter in the
    process and dies with the program.  The cache is per object, never per
    value: programs holding ``PUSH 0.0`` and ``PUSH -0.0`` compare equal
    but compute different outputs, so each compiles its own.
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
        """Install a user-defined word (new instruction) at runtime;
        raises :class:`VmError`, installing nothing, if it does not compile."""
        compile_program(program)
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
        self._program = program
        self.memory = memory
        self.state: VmState = VmState(routine=program.name)
        self._codes: dict[str, list[tuple]] = {}
        self._max_stack = interpreter.max_stack

    def _load_code(self) -> list[tuple]:
        """Threaded code for the current routine (the run's program or a
        registered word), cached per run so a word re-registered mid-run
        keeps the version it started with."""
        name = self.state.routine
        code = self._codes.get(name)
        if code is None:
            program = (self._program if name == self._program.name
                       else self.interpreter._words.get(name))
            if program is None:
                raise VmError(f"unknown routine {name!r}")
            code = self._codes[name] = compile_program(program)
        return code

    # ------------------------------------------------------------------
    # Stack (the host-hook API)
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
