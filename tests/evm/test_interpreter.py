"""Interpreter: stack semantics, control flow, words, hosts, containment."""

import pytest

from repro.evm.bytecode import Assembler, Instruction, Opcode, Program
from repro.evm.interpreter import Interpreter, VmError, VmState


def run(text, memory=None, interp=None, **kwargs):
    program = Assembler().assemble(text)
    interp = interp or Interpreter()
    memory = memory if memory is not None else [0.0] * 16
    state = interp.execute(program, memory, **kwargs)
    return state, memory


class TestArithmetic:
    def test_add_sub_mul_div(self):
        _, mem = run("push 10\npush 4\nsub\nstore 0\n"
                     "push 3\npush 5\nmul\nstore 1\n"
                     "push 8\npush 2\ndiv\nstore 2\nhalt")
        assert mem[:3] == [6.0, 15.0, 4.0]

    def test_neg_abs_min_max(self):
        _, mem = run("push 5\nneg\nstore 0\n"
                     "push -7\nabs\nstore 1\n"
                     "push 3\npush 9\nmin\nstore 2\n"
                     "push 3\npush 9\nmax\nstore 3\nhalt")
        assert mem[:4] == [-5.0, 7.0, 3.0, 9.0]

    def test_division_by_zero_raises(self):
        with pytest.raises(VmError, match="division by zero"):
            run("push 1\npush 0\ndiv\nhalt")

    def test_comparisons(self):
        _, mem = run("push 1\npush 2\nlt\nstore 0\n"
                     "push 2\npush 2\nle\nstore 1\n"
                     "push 3\npush 2\ngt\nstore 2\n"
                     "push 2\npush 3\nge\nstore 3\n"
                     "push 2\npush 2\neq\nstore 4\n"
                     "push 1\npush 2\nne\nstore 5\nhalt")
        assert mem[:6] == [1.0, 1.0, 1.0, 0.0, 1.0, 1.0]

    def test_logic(self):
        _, mem = run("push 1\npush 0\nand\nstore 0\n"
                     "push 1\npush 0\nor\nstore 1\n"
                     "push 0\nnot\nstore 2\nhalt")
        assert mem[:3] == [0.0, 1.0, 1.0]


class TestStackOps:
    def test_dup_drop_swap_over_rot(self):
        _, mem = run("push 1\ndup\nadd\nstore 0\n"          # 2
                     "push 5\npush 9\ndrop\nstore 1\n"       # 5
                     "push 1\npush 2\nswap\nstore 2\ndrop\n"  # 1 (2 dropped)
                     "push 7\npush 8\nover\nstore 3\ndrop\ndrop\n"  # 7
                     "push 1\npush 2\npush 3\nrot\nstore 4\ndrop\ndrop\n"
                     "halt")
        assert mem[0] == 2.0
        assert mem[1] == 5.0
        assert mem[2] == 1.0
        assert mem[3] == 7.0
        assert mem[4] == 1.0  # rot brings bottom to top

    def test_underflow(self):
        with pytest.raises(VmError, match="underflow"):
            run("add\nhalt")

    def test_overflow(self):
        interp = Interpreter(max_stack=4)
        with pytest.raises(VmError, match="overflow"):
            run("push 1\n" * 5 + "halt", interp=interp)


class TestControlFlow:
    def test_loop_terminates(self):
        _, mem = run("""
            top:
                load 0
                push 1
                sub
                store 0
                load 0
                jz done
                jmp top
            done: halt
        """, memory=[5.0] + [0.0] * 15)
        assert mem[0] == 0.0

    def test_call_ret(self):
        state, mem = run("""
            call sub
            push 100
            store 1
            halt
            sub:
                push 42
                store 0
                ret
        """)
        assert mem[0] == 42.0
        assert mem[1] == 100.0

    def test_infinite_loop_bounded(self):
        with pytest.raises(VmError, match="step budget"):
            run("top: jmp top", max_steps=1000)

    def test_bad_jump_target(self):
        # Refused when it compiles, before its first instruction runs.
        program = Program("bad", (Instruction(Opcode.PUSH, 1.0),
                                  Instruction(Opcode.JMP, 99)))
        state = VmState(routine="bad")
        with pytest.raises(VmError,
                           match="jump target 99 out of range in 'bad'"):
            Interpreter().execute(program, [0.0], state=state)
        assert (state.steps, state.stack) == (0, [])

    def test_fall_off_end_halts(self):
        program = Program("fall", (Instruction(Opcode.PUSH, 1.0),))
        state = Interpreter().execute(program, [0.0])
        assert state.halted


class TestMemory:
    def test_load_store(self):
        _, mem = run("push 3.5\nstore 7\nload 7\npush 2\nmul\nstore 8\nhalt")
        assert mem[7] == 3.5
        assert mem[8] == 7.0

    def test_slot_out_of_range(self):
        with pytest.raises(VmError, match="out of range"):
            run("load 99\nhalt")


class TestChannelsAndHosts:
    def test_input_channel(self):
        interp = Interpreter()
        interp.bind_input("level", lambda: 42.5)
        _, mem = run(".channel level\nin level\nstore 0\nhalt",
                     interp=interp)
        assert mem[0] == 42.5

    def test_output_channel(self):
        interp = Interpreter()
        written = []
        interp.bind_output("valve", written.append)
        run(".channel valve\npush 11.48\nout valve\nhalt", interp=interp)
        assert written == [pytest.approx(11.48)]

    def test_unbound_channel_raises(self):
        with pytest.raises(VmError, match="no input bound"):
            run(".channel ghost\nin ghost\nhalt")

    def test_host_hook(self):
        interp = Interpreter()
        interp.register_host("get_time", lambda ctx: ctx.push(123.0))
        _, mem = run(".host get_time\nhost get_time\nstore 0\nhalt",
                     interp=interp)
        assert mem[0] == 123.0

    def test_missing_host_raises(self):
        with pytest.raises(VmError, match="no host hook"):
            run(".host nothing\nhost nothing\nhalt")


class TestWords:
    def test_word_call(self):
        interp = Interpreter()
        interp.register_word(Assembler().assemble(
            ".name square\ndup\nmul\nret"))
        _, mem = run("""
            .word square
            push 6
            word square
            store 0
            halt
        """, interp=interp)
        assert mem[0] == 36.0

    def test_nested_words(self):
        interp = Interpreter()
        interp.register_word(Assembler().assemble(
            ".name double\npush 2\nmul\nret"))
        interp.register_word(Assembler().assemble(
            ".name quad\n.word double\nword double\nword double\nret"))
        _, mem = run(".word quad\npush 3\nword quad\nstore 0\nhalt",
                     interp=interp)
        assert mem[0] == 12.0

    def test_missing_word_raises(self):
        with pytest.raises(VmError, match="not installed"):
            run(".word ghost\nword ghost\nhalt")

    def test_runtime_extension(self):
        """The instruction set grows at runtime (vs Mate's fixed set)."""
        interp = Interpreter()
        assert not interp.has_word("clamp01")
        interp.register_word(Assembler().assemble(
            ".name clamp01\npush 1\nmin\npush 0\nmax\nret"))
        assert interp.has_word("clamp01")
        _, mem = run(".word clamp01\npush 7\nword clamp01\nstore 0\nhalt",
                     interp=interp)
        assert mem[0] == 1.0


class TestStateSnapshot:
    def test_snapshot_restore_roundtrip(self):
        state = VmState(stack=[1.0, 2.0], rstack=[("main", 3)], pc=7,
                        routine="w", steps=11, halted=False)
        again = VmState.restore(state.snapshot())
        assert again.stack == state.stack
        assert again.rstack == state.rstack
        assert again.pc == state.pc
        assert again.routine == state.routine

    def test_cycle_estimation(self):
        interp = Interpreter()
        state, _ = run("push 1\npush 2\nadd\nstore 0\nhalt", interp=interp)
        assert interp.estimated_cycles(state) == state.steps * 80
