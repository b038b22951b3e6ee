"""The peephole pass: every fusion is invisible except for speed.

`Interpreter(peephole=False)` runs the same threaded code without the
pass, which (by the golden-determinism suite) is pinned to the seed
semantics -- so on/off equality here means the fusions are
semantics-preserving instruction for instruction: final states, memory
images, error strings, step accounting, budget pauses and resumes.
"""

import json

import pytest

from repro.evm.bytecode import Assembler, Instruction, Opcode, Program
from repro.evm.bytecode import fold_constants
from repro.evm.interpreter import (
    Interpreter,
    VmError,
    VmState,
    _optimize_code,
)

_asm = Assembler()


def _outcome(interp: Interpreter, program: Program, memory: list[float],
             **kw) -> str:
    mem = list(memory)
    try:
        state = interp.execute(program, mem, **kw)
        payload = {"state": state.snapshot(), "memory": mem,
                   "total": interp.total_steps}
    except VmError as exc:
        payload = {"error": str(exc), "memory": mem,
                   "total": interp.total_steps}
    return json.dumps(payload, sort_keys=True)


def _both(program: Program, memory: list[float], interp_kw=None,
          **kw) -> str:
    interp_kw = interp_kw or {}
    on = _outcome(Interpreter(**interp_kw), program, memory, **kw)
    off = _outcome(Interpreter(peephole=False, **interp_kw), program,
                   memory, **kw)
    assert on == off
    return on


def _fused_slots(program: Program) -> list[int]:
    interp = Interpreter()
    plain, fused = interp.compiled_pair(program)
    if plain is fused:
        return []
    return [i for i, (p, f) in enumerate(zip(plain, fused)) if p != f]


class TestPatternsFuseAndMatch:
    def test_push_binop_fuses(self):
        program = _asm.assemble("push 5\npush 3\nsub\nstore 0\nhalt", name="p")
        # Slot 0 folds the triple; slot 1 fuses push+sub as a landing pad.
        assert _fused_slots(program) == [0, 1]
        out = _both(program, [0.0] * 4)
        assert json.loads(out)["memory"][0] == 2.0

    def test_every_push_binop_operator(self):
        for op in ("add", "sub", "mul", "div", "min", "max", "lt", "gt",
                   "le", "ge", "eq", "ne", "and", "or"):
            program = _asm.assemble(f"load 0\npush 2\n{op}\nstore 1\nhalt",
                                    name=op)
            assert 1 in _fused_slots(program)
            _both(program, [7.0, 0.0])

    def test_constant_fold_matches_runtime_arithmetic(self):
        inf = float("inf")
        for a, b, op in ((1.5, 2.25, Opcode.ADD), (inf, inf, Opcode.SUB),
                         (-0.0, 0.0, Opcode.MIN), (3.0, 0.0, Opcode.DIV),
                         (0.0, 5.0, Opcode.AND)):
            program = Program("fold", (
                Instruction(Opcode.PUSH, a), Instruction(Opcode.PUSH, b),
                Instruction(op), Instruction(Opcode.STORE, 0),
                Instruction(Opcode.HALT)))
            _both(program, [9.0])

    def test_div_by_zero_constant_not_folded(self):
        program = _asm.assemble("push 1\npush 0\ndiv\nhalt", name="dz")
        out = _both(program, [0.0])
        assert "division by zero" in out
        folded = fold_constants(Opcode.DIV, 1.0, 0.0)
        assert folded is None

    def test_dup_drop_eliminated(self):
        program = _asm.assemble("push 4\ndup\ndrop\nstore 0\nhalt", name="dd")
        assert 1 in _fused_slots(program)
        out = _both(program, [0.0])
        assert json.loads(out)["memory"][0] == 4.0

    def test_store_load_write_through(self):
        program = _asm.assemble("push 8\nstore 2\nload 2\nstore 3\nhalt",
                                name="sl")
        assert 1 in _fused_slots(program)
        out = _both(program, [0.0] * 4)
        assert json.loads(out)["memory"][2:4] == [8.0, 8.0]

    def test_store_load_different_slots_not_fused(self):
        program = _asm.assemble("push 8\nstore 2\nload 3\nhalt", name="sl2")
        plain, fused = Interpreter().compiled_pair(program)
        assert plain[1] == fused[1]

    def test_load_jz_fused_branch(self):
        program = _asm.assemble(
            "top:\n load 0\n push 1\n sub\n store 0\n load 0\n jz done\n"
            " jmp top\ndone: halt", name="count")
        assert 4 in _fused_slots(program)  # the load 0 / jz done pair
        out = _both(program, [5.0])
        decoded = json.loads(out)
        assert decoded["memory"][0] == 0.0
        assert decoded["state"]["steps"] == 5 * 7  # virtual steps preserved

    def test_jump_threading_collapses_chains(self):
        program = _asm.assemble(
            "jmp a\nhalt\na: jmp b\nb: jmp c\nc: push 1\nstore 0\nhalt",
            name="chain")
        assert 0 in _fused_slots(program)
        out = _both(program, [0.0])
        decoded = json.loads(out)
        assert decoded["memory"][0] == 1.0
        # Collapsed hops still count as executed instructions.
        assert decoded["state"]["steps"] == 6

    def test_self_jump_cycle_not_threaded(self):
        program = _asm.assemble("top: jmp top", name="spin")
        out = _both(program, [0.0], interp_kw={"max_steps": 50})
        assert "step budget 50 exhausted" in out


class TestMidPatternEdges:
    def test_jump_into_middle_of_fused_pair(self):
        # A jump lands on the `add` that is the second half of a fused
        # push+add: the landing-pad slot must execute the original add.
        program = Program("landing", (
            Instruction(Opcode.LOAD, 0),      # 0 \ fused load+jz
            Instruction(Opcode.JZ, 6),        # 1 /
            Instruction(Opcode.LOAD, 0),      # 2
            Instruction(Opcode.PUSH, 1.0),    # 3 \ fused pair
            Instruction(Opcode.ADD),          # 4 /  (4 is the landing pad)
            Instruction(Opcode.HALT),         # 5
            Instruction(Opcode.PUSH, 20.0),   # 6
            Instruction(Opcode.PUSH, 22.0),   # 7
            Instruction(Opcode.JMP, 4),       # 8 -> into the pair's middle
        ))
        taken = json.loads(_both(program, [0.0]))
        assert taken["state"]["stack"] == [42.0]
        not_taken = json.loads(_both(program, [5.0]))
        assert not_taken["state"]["stack"] == [6.0]

    def test_push_binop_underflow_replicates_seed_state(self):
        program = _asm.assemble("push 3\nadd\nhalt", name="uf")
        out = _both(program, [0.0])
        decoded = json.loads(out)
        assert "stack underflow" in decoded["error"]
        assert decoded["total"] == 2  # PUSH executed, ADD faulted

    def test_fold_second_push_overflow(self):
        program = _asm.assemble("push 1\npush 2\nadd\nhalt", name="of")
        for depth in (0, 1, 2, 3):
            kw = {"max_stack": depth}
            on = _outcome(Interpreter(**kw), program, [0.0])
            off = _outcome(Interpreter(peephole=False, **kw), program, [0.0])
            assert on == off

    def test_store_load_bad_slot(self):
        program = _asm.assemble("push 1\nstore 9\nload 9\nhalt", name="bad")
        out = _both(program, [0.0] * 4)
        assert "STORE slot 9 out of range" in out

    def test_load_jz_bad_slot_and_full_stack(self):
        program = _asm.assemble("load 9\njz 0\nhalt", name="badload")
        out = _both(program, [0.0] * 4)
        assert "LOAD slot 9 out of range" in out
        program = _asm.assemble("push 1\nload 0\njz 0\nhalt", name="full")
        on = _outcome(Interpreter(max_stack=1), program, [0.0])
        off = _outcome(Interpreter(peephole=False, max_stack=1),
                       program, [0.0])
        assert on == off and "stack overflow" in on


class TestBudgetPrecision:
    COUNTDOWN = ("top:\n load 0\n push 1\n sub\n store 0\n load 0\n"
                 " jz done\n jmp top\ndone: halt")

    def test_budget_error_lands_on_exact_step(self):
        program = _asm.assemble(self.COUNTDOWN, name="count")
        for budget in range(1, 40):
            on = _outcome(Interpreter(max_steps=budget), program, [50.0])
            off = _outcome(Interpreter(peephole=False, max_steps=budget),
                           program, [50.0])
            assert on == off, budget

    def test_pause_and_resume_any_budget(self):
        program = _asm.assemble(self.COUNTDOWN, name="count")
        for budget in range(1, 30):
            interp_on = Interpreter()
            interp_off = Interpreter(peephole=False)
            mem_on, mem_off = [9.0] + [0.0] * 3, [9.0] + [0.0] * 3
            st_on = interp_on.execute(program, mem_on, max_steps=budget,
                                      pause_on_budget=True)
            st_off = interp_off.execute(program, mem_off, max_steps=budget,
                                        pause_on_budget=True)
            assert st_on.snapshot() == st_off.snapshot(), budget
            assert mem_on == mem_off
            # Resume the paused state (crossing interpreters, as the
            # migration layer does) and run to completion.
            resumed = VmState.restore(st_on.snapshot())
            final = Interpreter().execute(program, mem_on, state=resumed)
            assert final.halted and mem_on[0] == 0.0

    def test_threaded_jump_chain_budget(self):
        program = _asm.assemble(
            "a: jmp b\nb: jmp c\nc: jmp a", name="cycle")
        for budget in range(1, 12):
            on = _outcome(Interpreter(max_steps=budget), program, [0.0])
            off = _outcome(Interpreter(peephole=False, max_steps=budget),
                           program, [0.0])
            assert on == off, budget


class TestPassMechanics:
    def test_no_opportunity_reuses_plain_list(self):
        program = _asm.assemble("nop\nswap\nhalt", name="plain")
        plain, fused = Interpreter().compiled_pair(program)
        assert plain is fused

    def test_peephole_false_never_rewrites(self):
        program = _asm.assemble("push 1\npush 2\nadd\nhalt", name="p")
        plain, fused = Interpreter(peephole=False).compiled_pair(program)
        assert plain is fused

    def test_code_shared_per_program_whichever_interpreter_asks(self):
        """The compiled code is shared by every interpreter, but the
        reference interpreter still sees only the plain form, in either
        order of first use."""
        source = "push 1\npush 2\nadd\nhalt"
        program = _asm.assemble(source, name="p")
        plain, fused = Interpreter().compiled_pair(program)
        assert plain is not fused
        assert Interpreter().compiled_pair(program) == (plain, fused)
        assert Interpreter().compiled_pair(program)[1] is fused
        off = Interpreter(peephole=False).compiled_pair(program)
        assert off[0] is off[1] is plain

        program = _asm.assemble(source, name="p")
        off = Interpreter(peephole=False).compiled_pair(program)
        assert off[0] is off[1]
        plain, fused = Interpreter().compiled_pair(program)
        assert plain is off[0] and fused is not plain

    def test_optimize_code_is_pure(self):
        program = _asm.assemble("push 1\npush 2\nadd\nhalt", name="p")
        from repro.evm.interpreter import _compile_program

        plain = _compile_program(program)
        before = list(plain)
        fused = _optimize_code(program, plain)
        assert plain == before  # input untouched
        assert fused is not plain


@pytest.mark.parametrize("source,memory", [
    ("push 2\npush 3\nmul\nstore 0\nhalt", [0.0]),
    ("load 0\npush 1\nsub\ndup\ndrop\nstore 0\nload 0\njz 9\njmp 0\nhalt",
     [6.0]),
    ("call w\nhalt\nw: push 2\npush 2\nadd\nstore 1\nret", [0.0, 0.0]),
])
def test_smoke_programs_match(source, memory):
    program = _asm.assemble(source, name="smoke")
    _both(program, memory)
