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
and shared by every interpreter that runs it.  A **peephole pass** then
rewrites slots of that threaded code with superinstructions --
``PUSH c``+binop fusion, full constant folding of ``PUSH;PUSH;binop`` triples,
``DUP;DROP`` elimination, ``STORE s;LOAD s`` write-through, ``LOAD;JZ``
fused branches and jump threading -- each accounting for the virtual steps
it absorbs.  Slots covered by a pattern keep their original handlers as
landing pads, so jumps into the middle of a fused pair behave exactly like
the naive dispatcher.  Compile-time work (float coercion of PUSH literals,
jump-range validation, channel/host/word name resolution) is hoisted out of
the loop, but every *runtime-visible* behaviour -- error strings, the
program state at the moment an error is raised, step accounting including
budget pauses mid-pattern, the root-table fallback for empty name tables --
is bit-identical to the naive dispatcher; the golden-determinism suite pins
this.  ``Interpreter(peephole=False)`` disables the pass for A/B checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.evm.bytecode import Opcode, Program, fold_constants
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


# ----------------------------------------------------------------------
# Peephole superinstructions.
#
# The peephole pass rewrites *slots* of the threaded code, never the
# instruction stream: a fused handler at slot ``i`` performs the work of
# instructions ``i..i+k-1`` and returns ``k-1`` extra steps, while slots
# ``i+1..i+k-1`` keep their original single-instruction handlers as
# landing pads for jumps into the middle of a pattern.  Fusions may
# therefore overlap freely -- each slot is an independent view of the
# same virtual instruction stream.
#
# Bit-identical semantics near the edges:
#
# - *Step accounting*: the run loop adds the returned extra cost, so
#   ``state.steps`` counts virtual instructions exactly.  Within
#   ``_FUSED_MAX_COST - 1`` steps of the budget the loop switches to the
#   plain (cost-1) code, so a pause or budget error lands on the exact
#   same instruction boundary as the naive dispatcher.
# - *Errors*: a fault in the middle of a pattern replicates the naive
#   dispatcher's state at the raise -- pc advanced past the completed
#   sub-instructions, their stack effects applied, and the completed
#   count recorded in ``ctx._extra_steps`` (folded into ``state.steps``
#   by the run loop's ``finally``).
# ----------------------------------------------------------------------
_FUSED_MAX_COST = 4  # PUSH/PUSH/binop fold = 3; threaded JMP chain <= 4


def _h_push_add_f(ctx, state, stack, c):
    if len(stack) >= ctx._max_stack:
        raise _overflow(ctx, state)
    try:
        a = stack.pop()
    except IndexError:
        state.pc += 1
        ctx._extra_steps = 1
        raise _underflow(state) from None
    stack.append(a + c)
    state.pc += 1
    return 1


def _h_push_sub_f(ctx, state, stack, c):
    if len(stack) >= ctx._max_stack:
        raise _overflow(ctx, state)
    try:
        a = stack.pop()
    except IndexError:
        state.pc += 1
        ctx._extra_steps = 1
        raise _underflow(state) from None
    stack.append(a - c)
    state.pc += 1
    return 1


def _h_push_mul_f(ctx, state, stack, c):
    if len(stack) >= ctx._max_stack:
        raise _overflow(ctx, state)
    try:
        a = stack.pop()
    except IndexError:
        state.pc += 1
        ctx._extra_steps = 1
        raise _underflow(state) from None
    stack.append(a * c)
    state.pc += 1
    return 1


def _make_push_binop_f(combine):
    """Fused ``PUSH c; <binop>`` handler for the less-hot operators."""

    def handler(ctx, state, stack, c):
        if len(stack) >= ctx._max_stack:
            raise _overflow(ctx, state)
        try:
            a = stack.pop()
        except IndexError:
            state.pc += 1
            ctx._extra_steps = 1
            raise _underflow(state) from None
        stack.append(combine(a, c))
        state.pc += 1
        return 1

    return handler


_PUSH_BINOP_FUSED = {
    Opcode.ADD: _h_push_add_f,
    Opcode.SUB: _h_push_sub_f,
    Opcode.MUL: _h_push_mul_f,
    Opcode.DIV: _make_push_binop_f(lambda a, c: a / c),  # c != 0 at compile
    Opcode.MIN: _make_push_binop_f(min),
    Opcode.MAX: _make_push_binop_f(max),
    Opcode.LT: _make_push_binop_f(lambda a, c: 1.0 if a < c else 0.0),
    Opcode.GT: _make_push_binop_f(lambda a, c: 1.0 if a > c else 0.0),
    Opcode.LE: _make_push_binop_f(lambda a, c: 1.0 if a <= c else 0.0),
    Opcode.GE: _make_push_binop_f(lambda a, c: 1.0 if a >= c else 0.0),
    Opcode.EQ: _make_push_binop_f(lambda a, c: 1.0 if a == c else 0.0),
    Opcode.NE: _make_push_binop_f(lambda a, c: 1.0 if a != c else 0.0),
    Opcode.AND: _make_push_binop_f(
        lambda a, c: 1.0 if (a != 0.0 and c != 0.0) else 0.0),
    Opcode.OR: _make_push_binop_f(
        lambda a, c: 1.0 if (a != 0.0 or c != 0.0) else 0.0),
}


def _h_push2_fold_f(ctx, state, stack, arg):
    # PUSH a; PUSH b; binop, folded to its constant at compile time.
    first, folded = arg
    depth = len(stack)
    if depth >= ctx._max_stack:
        raise _overflow(ctx, state)
    if depth + 1 >= ctx._max_stack:
        # The *second* PUSH is the one that overflows, after the first
        # landed: replicate that exact state.
        stack.append(first)
        state.pc += 1
        ctx._extra_steps = 1
        raise _overflow(ctx, state)
    stack.append(folded)
    state.pc += 2
    return 2


def _h_dup_drop_f(ctx, state, stack, arg):
    # DUP; DROP eliminated -- only the naive pair's bound checks remain.
    if not stack:
        raise _underflow(state)
    if len(stack) >= ctx._max_stack:
        raise _overflow(ctx, state)
    state.pc += 1
    return 1


def _h_store_load_f(ctx, state, stack, slot):
    # STORE s; LOAD s -- write-through without the stack round trip.
    try:
        value = stack.pop()
    except IndexError:
        raise _underflow(state) from None
    memory = ctx.memory
    if not 0 <= slot < len(memory):
        raise VmError(f"STORE slot {slot} out of range")
    memory[slot] = value
    stack.append(float(value))  # LOAD's coercion, bit-for-bit
    state.pc += 1
    return 1


def _h_load_jz_f(ctx, state, stack, arg):
    # LOAD s; JZ t -- the branch consumes the loaded value directly.
    slot, target = arg
    memory = ctx.memory
    if not 0 <= slot < len(memory):
        raise VmError(f"LOAD slot {slot} out of range")
    if len(stack) >= ctx._max_stack:
        raise _overflow(ctx, state)
    if memory[slot] == 0.0:
        state.pc = target
    else:
        state.pc += 1
    return 1


def _h_jmp_thread_f(ctx, state, stack, arg):
    target, extra = arg
    state.pc = target
    return extra


def _h_jz_thread_f(ctx, state, stack, arg):
    if not stack:
        raise _underflow(state)
    if stack.pop() == 0.0:
        target, extra = arg
        state.pc = target
        return extra
    return None


def _thread_jump(instructions, target: int, n: int,
                 cap: int = _FUSED_MAX_COST - 1) -> tuple[int, int]:
    """Follow a chain of in-range JMPs from ``target``; returns the final
    target and the number of collapsed hops (0 = nothing to thread).
    Cycles terminate via the seen-set; ``cap`` bounds the per-dispatch
    step cost so the budget guard stays a small constant."""
    collapsed = 0
    seen = {target}
    while collapsed < cap and target < n:
        ins = instructions[target]
        if ins.opcode is not Opcode.JMP:
            break
        nxt = ins.arg
        if not 0 <= nxt <= n or nxt in seen:
            break
        seen.add(nxt)
        collapsed += 1
        target = nxt
    return target, collapsed


def _optimize_code(program: Program, code: list[tuple]) -> list[tuple]:
    """The peephole pass: fuse adjacent-instruction idioms into
    superinstruction slots of the threaded code.

    Every transform preserves observable semantics instruction-for-
    instruction (checked against the naive dispatcher by the
    golden-determinism property suite); returns ``code`` itself when no
    opportunity exists so the common tiny-program case costs nothing.
    """
    instructions = program.instructions
    n = len(instructions)
    fused = None
    for i, ins in enumerate(instructions):
        op = ins.opcode
        nxt = instructions[i + 1].opcode if i + 1 < n else None
        replacement = None
        if op is Opcode.PUSH:
            if nxt is Opcode.PUSH and i + 2 < n:
                folded = fold_constants(instructions[i + 2].opcode,
                                        float(ins.arg),
                                        float(instructions[i + 1].arg))
                if folded is not None:
                    replacement = (_h_push2_fold_f,
                                   (float(ins.arg), folded))
            if replacement is None:
                handler = _PUSH_BINOP_FUSED.get(nxt)
                if handler is not None:
                    c = float(ins.arg)
                    if not (nxt is Opcode.DIV and c == 0.0):
                        replacement = (handler, c)
        elif op is Opcode.DUP and nxt is Opcode.DROP:
            replacement = (_h_dup_drop_f, None)
        elif (op is Opcode.STORE and nxt is Opcode.LOAD
                and ins.arg == instructions[i + 1].arg):
            replacement = (_h_store_load_f, ins.arg)
        elif op is Opcode.LOAD and nxt is Opcode.JZ:
            target = instructions[i + 1].arg
            if 0 <= target <= n:
                replacement = (_h_load_jz_f, (ins.arg, target))
        elif op in (Opcode.JMP, Opcode.JZ) and 0 <= ins.arg <= n:
            target, collapsed = _thread_jump(instructions, ins.arg, n)
            if collapsed:
                handler = (_h_jmp_thread_f if op is Opcode.JMP
                           else _h_jz_thread_f)
                replacement = (handler, (target, collapsed))
        if replacement is not None:
            if fused is None:
                fused = list(code)
            fused[i] = replacement
    return fused if fused is not None else code


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


def _threaded(program: Program) -> tuple[list[tuple], list[tuple]]:
    """``(plain, fused)`` threaded code for ``program``, compiled on first
    use and kept on the program object outside its dataclass fields.

    It is shared by every interpreter in the process and dies with the
    program.  The cache is per object, never per value: programs holding
    ``PUSH 0.0`` and ``PUSH -0.0`` compare equal but compute different
    outputs, so each compiles its own.
    """
    attrs = vars(program)
    pair = attrs.get(_THREADED_ATTR)
    if pair is None:
        plain = _compile_program(program)
        # setdefault: a racing thread's pair wins, so all callers share it.
        pair = attrs.setdefault(_THREADED_ATTR,
                                (plain, _optimize_code(program, plain)))
    return pair


class Interpreter:
    """Executes programs; owns the word and host-hook registries."""

    def __init__(self, max_stack: int = 64, max_steps: int = 100_000,
                 memory_slots: int = 64, peephole: bool = True) -> None:
        self.max_stack = max_stack
        self.max_steps = max_steps
        self.memory_slots = memory_slots
        self.peephole = peephole
        self._words: dict[str, Program] = {}
        self._hosts: dict[str, Callable[["ExecutionContext"], None]] = {}
        self._channels_in: dict[str, Callable[[], float]] = {}
        self._channels_out: dict[str, Callable[[float], None]] = {}
        self.total_steps = 0
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
    # Compiled code
    # ------------------------------------------------------------------
    def compiled_pair(self, program: Program) -> tuple[list[tuple],
                                                       list[tuple]]:
        """``(plain, fused)`` threaded code, compiled once per program.

        ``plain`` is the cost-1-per-slot form the run loop falls back to
        near the step budget; ``fused`` is the peephole-optimized form
        (the same list when the pass finds nothing, or is disabled).
        """
        pair = _threaded(program)
        return pair if self.peephole else (pair[0], pair[0])

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
        start_steps = steps
        # Fused superinstructions advance ``steps`` by up to
        # _FUSED_MAX_COST per dispatch; within that distance of the
        # budget the loop drops to the plain cost-1 code so pauses and
        # budget errors land on the exact naive instruction boundary.
        guard = budget - (_FUSED_MAX_COST - 1)
        try:
            while not state.halted:
                if steps >= guard:
                    if steps >= budget:
                        if pause_on_budget:
                            return
                        raise VmError(
                            f"step budget {budget} exhausted in "
                            f"{state.routine!r} (pc={state.pc})")
                    if not context._precise:
                        context._precise = True
                        if code is not None:
                            code = context._load_code()
                            ncode = len(code)
                    guard = budget
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
                r = handler(context, state, stack, arg)
                if r:
                    if r is True:
                        # Routine switch (RET / WORD): reload its code.
                        code = context._load_code()
                        ncode = len(code)
                    else:
                        steps += r  # extra virtual steps a fusion absorbed
        finally:
            # _extra_steps records sub-instructions a superinstruction
            # completed before faulting; zero on every non-error path.
            state.steps = steps + context._extra_steps
            self.total_steps += steps + context._extra_steps - start_steps


class ExecutionContext:
    """Per-run binding of interpreter, program, task memory and VM state."""

    def __init__(self, interpreter: Interpreter, program: Program,
                 memory: list[float]) -> None:
        self.interpreter = interpreter
        self.root_program = program
        self.memory = memory
        self.state: VmState = VmState(routine=program.name)
        self._programs: dict[str, Program] = {program.name: program}
        self._codes_fast: dict[str, list[tuple]] = {}
        self._codes_plain: dict[str, list[tuple]] = {}
        self._max_stack = interpreter.max_stack
        # True once the run loop is within a superinstruction's reach of
        # its step budget: code loads switch to the plain cost-1 form.
        self._precise = False
        # Sub-instructions completed by a faulting superinstruction.
        self._extra_steps = 0

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
        codes = self._codes_plain if self._precise else self._codes_fast
        code = codes.get(name)
        if code is None:
            plain, fused = self.interpreter.compiled_pair(
                self.current_program())
            self._codes_plain[name] = plain
            self._codes_fast[name] = fused
            code = plain if self._precise else fused
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
    # Memory / channels / hosts / words
    # ------------------------------------------------------------------
    def load(self, slot: int) -> float:
        if not 0 <= slot < len(self.memory):
            raise VmError(f"LOAD slot {slot} out of range")
        return self.memory[slot]

    def store(self, slot: int, value: float) -> None:
        if not 0 <= slot < len(self.memory):
            raise VmError(f"STORE slot {slot} out of range")
        self.memory[slot] = value

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

    def jump(self, target: int) -> None:
        program = self.current_program()
        if not 0 <= target <= len(program.instructions):
            raise VmError(
                f"jump target {target} out of range in {self.state.routine!r}")
        self.state.pc = target
