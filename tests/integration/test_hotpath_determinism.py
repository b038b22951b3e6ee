"""Golden-determinism guard for the hot-path optimization.

The threaded-code interpreter, the engine fast path and the indexed
medium are pure performance work: they must be *bit-identical* to the
seed semantics.  This suite pins that down three ways:

1. **Golden digests** -- SHA-256 over the canonical JSON of a fig6
   failover run, a serial campaign grid, and a fixed VM program suite
   (final states, memories, outputs and error strings).  The digests in
   ``golden_hotpath.json`` were captured from the *seed* implementation
   before the optimization landed; any semantic drift changes a digest.

   Recapture (only when semantics change deliberately)::

       PYTHONPATH=src:tests python tests/integration/test_hotpath_determinism.py --capture

2. **Reference-interpreter property** -- random programs that compile
   are executed by both the production interpreter and a straight-line
   reference implementation of the seed dispatch semantics kept in this
   file; final state, memory and error strings must match exactly.  A
   program that does not compile (a jump target or table index out of
   range) never runs: a separate property checks that it is refused
   before its first instruction, by ``execute``, ``register_word`` and
   ``CapsuleStore.install`` alike.

3. **Replay identity** -- the golden workloads also run twice in-process
   and must agree with themselves, so the guard stays meaningful even on
   a platform whose libm produces different float digits than the
   capture host.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.evm.bytecode import Assembler, Instruction, Opcode, Program
from repro.evm.capsule import Capsule, CapsuleInstallError, CapsuleStore
from repro.evm.interpreter import Interpreter, VmError, VmState

GOLDEN_PATH = Path(__file__).parent / "golden_hotpath.json"


# ----------------------------------------------------------------------
# Workload 1: fig6 failover timeline (reduced horizon)
# ----------------------------------------------------------------------
def fig6_payload() -> str:
    from repro.experiments.fig6 import Fig6Config, run_fig6

    config = Fig6Config(t1_fault_sec=30.0, t2_target_sec=60.0,
                        duration_sec=100.0)
    result = run_fig6(config)
    return json.dumps(dataclasses.asdict(result), sort_keys=True)


# ----------------------------------------------------------------------
# Workload 2: a serial campaign grid
# ----------------------------------------------------------------------
def campaign_payload() -> str:
    from repro.scenarios import (
        BabblingInterferer,
        CampaignRunner,
        LinkDegrade,
        NodeCrash,
        Scenario,
        sweep,
    )
    from repro.experiments.hil import CTRL_A, CTRL_B, TASK_ACT, TASK_CTRL
    from repro.scenarios.stock import fast_hil

    crash = Scenario("guard-crash", hil=fast_hil(), seed=0,
                     duration_sec=20.0).at(6.0, NodeCrash(CTRL_A))
    noisy = Scenario("guard-noisy", hil=fast_hil(), seed=0,
                     duration_sec=20.0) \
        .at(4.0, LinkDegrade(prr=0.8)) \
        .at(8.0, BabblingInterferer(node=CTRL_B, task=TASK_CTRL,
                                    consumer=TASK_ACT, value=99.0,
                                    period_ms=900))
    grid = sweep([crash, noisy], seeds=(1, 2))
    result = CampaignRunner(parallel=False).run(grid)
    return json.dumps({"records": result.records, "summary": result.summary},
                      sort_keys=True)


# ----------------------------------------------------------------------
# Workload 3: MAC-heavy trials (slot-wait-dominated)
# ----------------------------------------------------------------------
def mac_heavy_payload() -> str:
    """All three MAC protocols on a small mesh at a high event rate.

    B-MAC and S-MAC run as generator :class:`Process` loops and RT-Link
    as posted slot callbacks, so this run is dominated by token-guarded
    waits -- it pins both (and the batched medium resolution feeding
    them) to the seed semantics, stats, energy accounting and latencies.
    """
    from repro.experiments.mac_comparison import run_mac_trial

    rows = {}
    for protocol in ("rtlink", "bmac", "smac"):
        result = run_mac_trial(protocol, duty_pct=5.0, event_period_sec=0.5,
                               n_members=4, duration_sec=30.0, seed=11)
        rows[protocol] = dataclasses.asdict(result)
    return json.dumps(rows, sort_keys=True)


# ----------------------------------------------------------------------
# Workload 4: fixed VM program suite (states, outputs, errors)
# ----------------------------------------------------------------------
_VM_SUITE = {
    "arith": ("push 10\npush 4\nsub\nstore 0\npush 3\npush 5\nmul\nstore 1\n"
              "push 8\npush 2\ndiv\nstore 2\npush -7\nabs\nneg\nstore 3\nhalt"),
    "stackops": ("push 1\ndup\nadd\nstore 0\npush 5\npush 9\ndrop\nstore 1\n"
                 "push 1\npush 2\nswap\nstore 2\ndrop\n"
                 "push 7\npush 8\nover\nstore 3\ndrop\ndrop\n"
                 "push 1\npush 2\npush 3\nrot\nstore 4\ndrop\ndrop\nhalt"),
    "compare": ("push 1\npush 2\nlt\nstore 0\npush 2\npush 2\nle\nstore 1\n"
                "push 3\npush 2\ngt\nstore 2\npush 2\npush 3\nge\nstore 3\n"
                "push 2\npush 2\neq\nstore 4\npush 1\npush 2\nne\nstore 5\n"
                "push 1\npush 0\nand\nstore 6\npush 1\npush 0\nor\nstore 7\n"
                "push 0\nnot\nstore 8\npush 4\npush 9\nmin\nstore 9\n"
                "push 4\npush 9\nmax\nstore 10\nhalt"),
    "loop": ("top:\n    load 0\n    push 1\n    sub\n    store 0\n    load 0\n"
             "    jz done\n    jmp top\ndone: halt"),
    "callret": ("call sub\npush 100\nstore 1\nhalt\n"
                "sub:\n    push 42\n    store 0\n    ret"),
    "falloff": "push 1\nstore 0",
    "div_zero": "push 1\npush 0\ndiv\nhalt",
    "underflow": "add\nhalt",
    "overflow": "push 1\n" * 70 + "halt",
    "bad_load": "load 99\nhalt",
    "budget": "top: jmp top",
    "no_host": ".host ghost\nhost ghost\nhalt",
    "no_channel": ".channel ghost\nin ghost\nhalt",
    "no_word": ".word ghost\nword ghost\nhalt",
}


def vm_payload() -> str:
    assembler = Assembler()
    rows = {}
    for name, text in _VM_SUITE.items():
        interp = Interpreter(max_steps=2_000)
        outputs: list[float] = []
        interp.bind_input("sensor", lambda: 19.25)
        interp.bind_output("valve", outputs.append)
        interp.register_host("boost", lambda ctx: ctx.push(ctx.pop() * 3.0))
        program = assembler.assemble(text, name=name)
        memory = [5.0] + [0.0] * 15
        try:
            state = interp.execute(program, memory)
            outcome = {"state": state.snapshot(), "memory": memory,
                       "outputs": outputs}
        except VmError as exc:
            outcome = {"error": str(exc), "memory": memory}
        rows[name] = outcome

    # Words, hosts, channels together; exercised through nesting.
    interp = Interpreter()
    outputs = []
    interp.bind_input("sensor", lambda: 19.25)
    interp.bind_output("valve", outputs.append)
    interp.register_host("boost", lambda ctx: ctx.push(ctx.pop() * 3.0))
    interp.register_word(assembler.assemble(".name double\npush 2\nmul\nret"))
    interp.register_word(assembler.assemble(
        ".name quad\n.word double\nword double\nword double\nret"))
    program = assembler.assemble(
        ".channel sensor\n.channel valve\n.host boost\n.word quad\n"
        "in sensor\nword quad\nhost boost\ndup\nout valve\nstore 0\nhalt",
        name="composite")
    memory = [0.0] * 16
    state = interp.execute(program, memory)
    rows["composite"] = {"state": state.snapshot(), "memory": memory,
                         "outputs": outputs}

    # Mid-run pause, snapshot, restore into a *different* interpreter.
    interp_a = Interpreter()
    program = assembler.assemble(_VM_SUITE["loop"], name="loop")
    memory = [64.0] + [0.0] * 15
    state = interp_a.execute(program, memory, max_steps=100,
                             pause_on_budget=True)
    assert not state.halted
    blob = json.dumps(state.snapshot())
    interp_b = Interpreter()
    resumed = VmState.restore(json.loads(blob))
    final = interp_b.execute(program, memory, state=resumed)
    rows["migrate"] = {"paused": json.loads(blob), "state": final.snapshot(),
                       "memory": memory}
    return json.dumps(rows, sort_keys=True)


# ----------------------------------------------------------------------
# Workload 5: plant stepping (scalar/batched equivalence)
# ----------------------------------------------------------------------
def plant_payload() -> str:
    """The gas plant under local control, with a mid-run loop exclusion
    and external actuation -- every branch the batched/compiled step
    path takes.  Captured from the *scalar* (seed) implementation, so
    the vectorized ``NaturalGasPlant.step`` must be numerically
    identical to it."""
    from repro.plant.gas_plant import NaturalGasPlant

    plant = NaturalGasPlant()
    plant.enable_local_control()
    snapshots = []
    for i in range(400):
        plant.step(0.5)
        if i % 100 == 99:
            snapshots.append(plant.flowsheet.snapshot())
    # Hand the case-study loop to an external driver (the HIL shape):
    # the compiled controller pass must rebuild around the exclusion.
    plant.enable_local_control(exclude=("lts_level",))
    for i in range(200):
        plant.flowsheet.write("lts_liquid_valve_pct", 11.0 + (i % 7) * 0.5)
        plant.step(0.5)
        if i % 50 == 49:
            snapshots.append(plant.flowsheet.snapshot())
    plant.enable_local_control()
    for i in range(100):
        plant.step(0.5)
    snapshots.append(plant.flowsheet.snapshot())
    return json.dumps({"snapshots": snapshots,
                       "streams": plant.stream_table()}, sort_keys=True)


# ----------------------------------------------------------------------
# Workload 6: wide-grid failover / placement / MAC-lifetime trials
# ----------------------------------------------------------------------
def widegrid_payload() -> str:
    """A 100-node random-geometric failover trial plus one placement and
    one MAC-lifetime study -- the wide-grid drivers end to end."""
    from repro.experiments.widegrid import (
        WideGridConfig,
        run_widegrid_mac_lifetime,
        run_widegrid_placement,
        run_widegrid_trial,
    )

    trial = run_widegrid_trial(WideGridConfig(
        n_nodes=100, seed=1, duration_sec=20.0, crash_primary_at_sec=8.0))
    placement = run_widegrid_placement(n_nodes=100, seed=3)
    mac = run_widegrid_mac_lifetime("rtlink", WideGridConfig(
        n_nodes=64, seed=5, duration_sec=15.0, report_period_sec=6.0))
    return json.dumps({"trial": dataclasses.asdict(trial),
                       "placement": dataclasses.asdict(placement),
                       "mac": dataclasses.asdict(mac)}, sort_keys=True)


# ----------------------------------------------------------------------
# Workload 7: wide-grid failover with flood suppression forced on
# ----------------------------------------------------------------------
def widegrid_suppressed_payload() -> str:
    """The 100-node failover trial with relay suppression switched on.
    Suppression engages on its own only at
    ``FLOOD_SUPPRESS_AUTO_NODES`` and above, so without this workload
    the suppressed relay path is digested nowhere below 1000 nodes."""
    from repro.experiments.widegrid import WideGridConfig, run_widegrid_trial

    trial = run_widegrid_trial(WideGridConfig(
        n_nodes=100, seed=1, duration_sec=20.0, crash_primary_at_sec=8.0,
        flood_suppress_threshold=2))
    return json.dumps(dataclasses.asdict(trial), sort_keys=True)


WORKLOADS = {
    "fig6": fig6_payload,
    "campaign": campaign_payload,
    "mac_heavy": mac_heavy_payload,
    "vm_suite": vm_payload,
    "plant": plant_payload,
    "widegrid": widegrid_payload,
    "widegrid_suppressed": widegrid_suppressed_payload,
}


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


def _goldens() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


class TestGoldenDigests:
    def test_vm_suite_matches_seed_golden(self):
        assert _digest(vm_payload()) == _goldens()["vm_suite"]

    def test_fig6_matches_seed_golden(self):
        payload = fig6_payload()
        assert _digest(payload) == _goldens()["fig6"]

    def test_campaign_matches_seed_golden_and_replays(self):
        payload = campaign_payload()
        assert payload == campaign_payload()  # replay identity
        assert _digest(payload) == _goldens()["campaign"]

    def test_mac_heavy_matches_seed_golden(self):
        assert _digest(mac_heavy_payload()) == _goldens()["mac_heavy"]

    def test_plant_matches_scalar_golden(self):
        """The batched/compiled plant step is bit-identical to the scalar
        seed path this digest was captured from."""
        assert _digest(plant_payload()) == _goldens()["plant"]

    def test_widegrid_matches_seed_golden_and_replays(self):
        payload = widegrid_payload()
        assert payload == widegrid_payload()  # replay identity
        assert _digest(payload) == _goldens()["widegrid"]

    def test_widegrid_suppressed_matches_golden_and_replays(self):
        payload = widegrid_suppressed_payload()
        assert payload == widegrid_suppressed_payload()  # replay identity
        assert _digest(payload) == _goldens()["widegrid_suppressed"]


class TestObsOnGoldenDigests:
    """Telemetry must be a pure observer: every golden workload digests
    identically with ``repro.obs`` enabled.  This is the guard that the
    instrumentation hooks (engine flush, medium batch counters, VM
    execute() metering, failover latency spans, plant step timing,
    campaign deltas) never perturb seeded semantics -- the run records
    a telemetry-on campaign persists stay byte-identical to obs-off."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_digest_unchanged_with_telemetry(self, name):
        import repro.obs as obs

        obs.enable(obs.MetricsRegistry())
        try:
            payload = WORKLOADS[name]()
        finally:
            obs.disable()
        assert _digest(payload) == _goldens()[name]


# ----------------------------------------------------------------------
# Reference interpreter: the seed dispatch semantics, kept verbatim
# ----------------------------------------------------------------------
class _ReferenceVm:
    """Straight transcription of the seed ``Interpreter._dispatch`` loop,
    for the opcodes the generators below emit (OUT through the program's
    own channel table)."""

    def __init__(self, max_stack: int = 64, max_steps: int = 100_000) -> None:
        self.max_stack = max_stack
        self.max_steps = max_steps
        self._outputs: dict[str, Callable[[float], None]] = {}

    def bind_output(self, channel: str, fn: Callable[[float], None]) -> None:
        self._outputs[channel] = fn

    def execute(self, program: Program, memory: list[float]) -> VmState:
        state = VmState(routine=program.name)
        stack, rstack = state.stack, state.rstack

        def push(value: float) -> None:
            if len(stack) >= self.max_stack:
                raise VmError(f"stack overflow in {state.routine!r} "
                              f"(depth {self.max_stack})")
            stack.append(float(value))

        def pop() -> float:
            if not stack:
                raise VmError(f"stack underflow in {state.routine!r}")
            return stack.pop()

        def jump(target: int) -> None:
            if not 0 <= target <= len(program.instructions):
                raise VmError(f"jump target {target} out of range in "
                              f"{state.routine!r}")
            state.pc = target

        while not state.halted:
            if state.steps >= self.max_steps:
                raise VmError(f"step budget {self.max_steps} exhausted in "
                              f"{state.routine!r} (pc={state.pc})")
            if state.pc >= len(program.instructions):
                if rstack:
                    state.routine, state.pc = rstack.pop()
                    continue
                state.halted = True
                break
            ins = program.instructions[state.pc]
            state.pc += 1
            state.steps += 1
            op = ins.opcode
            if op is Opcode.HALT:
                state.halted = True
            elif op is Opcode.NOP:
                pass
            elif op is Opcode.PUSH:
                push(float(ins.arg))
            elif op is Opcode.DUP:
                v = pop(); push(v); push(v)
            elif op is Opcode.DROP:
                pop()
            elif op is Opcode.SWAP:
                b, a = pop(), pop(); push(b); push(a)
            elif op is Opcode.OVER:
                b, a = pop(), pop(); push(a); push(b); push(a)
            elif op is Opcode.ROT:
                c, b, a = pop(), pop(), pop(); push(b); push(c); push(a)
            elif op is Opcode.ADD:
                b, a = pop(), pop(); push(a + b)
            elif op is Opcode.SUB:
                b, a = pop(), pop(); push(a - b)
            elif op is Opcode.MUL:
                b, a = pop(), pop(); push(a * b)
            elif op is Opcode.DIV:
                b, a = pop(), pop()
                if b == 0.0:
                    raise VmError(f"division by zero in {state.routine!r}")
                push(a / b)
            elif op is Opcode.NEG:
                push(-pop())
            elif op is Opcode.ABS:
                push(abs(pop()))
            elif op is Opcode.MIN:
                b, a = pop(), pop(); push(min(a, b))
            elif op is Opcode.MAX:
                b, a = pop(), pop(); push(max(a, b))
            elif op is Opcode.LT:
                b, a = pop(), pop(); push(1.0 if a < b else 0.0)
            elif op is Opcode.GT:
                b, a = pop(), pop(); push(1.0 if a > b else 0.0)
            elif op is Opcode.LE:
                b, a = pop(), pop(); push(1.0 if a <= b else 0.0)
            elif op is Opcode.GE:
                b, a = pop(), pop(); push(1.0 if a >= b else 0.0)
            elif op is Opcode.EQ:
                b, a = pop(), pop(); push(1.0 if a == b else 0.0)
            elif op is Opcode.NE:
                b, a = pop(), pop(); push(1.0 if a != b else 0.0)
            elif op is Opcode.AND:
                b, a = pop(), pop()
                push(1.0 if (a != 0.0 and b != 0.0) else 0.0)
            elif op is Opcode.OR:
                b, a = pop(), pop()
                push(1.0 if (a != 0.0 or b != 0.0) else 0.0)
            elif op is Opcode.NOT:
                push(1.0 if pop() == 0.0 else 0.0)
            elif op is Opcode.JMP:
                jump(ins.arg)
            elif op is Opcode.JZ:
                if pop() == 0.0:
                    jump(ins.arg)
            elif op is Opcode.CALL:
                rstack.append((state.routine, state.pc))
                jump(ins.arg)
            elif op is Opcode.RET:
                if not rstack:
                    state.halted = True
                else:
                    state.routine, state.pc = rstack.pop()
            elif op is Opcode.LOAD:
                if not 0 <= ins.arg < len(memory):
                    raise VmError(f"LOAD slot {ins.arg} out of range")
                push(memory[ins.arg])
            elif op is Opcode.STORE:
                # Pop precedes slot validation (argument evaluation order
                # of the seed's `context.store(ins.arg, pop())`).
                value = pop()
                if not 0 <= ins.arg < len(memory):
                    raise VmError(f"STORE slot {ins.arg} out of range")
                memory[ins.arg] = value
            elif op is Opcode.OUT:
                # Pop precedes channel validation (the seed's
                # `context.write_channel(ins.arg, pop())`).
                value = pop()
                if not 0 <= ins.arg < len(program.channels):
                    raise VmError(f"channel index {ins.arg} out of range")
                name = program.channels[ins.arg]
                fn = self._outputs.get(name)
                if fn is None:
                    raise VmError(f"no output bound for channel {name!r}")
                fn(value)
            else:  # pragma: no cover - generator never emits the rest
                raise AssertionError(f"unexpected opcode {op!r}")
        return state


_GEN_ARGLESS = [
    Opcode.NOP, Opcode.DUP, Opcode.DROP, Opcode.SWAP, Opcode.OVER,
    Opcode.ROT, Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.NEG,
    Opcode.ABS, Opcode.MIN, Opcode.MAX, Opcode.LT, Opcode.GT, Opcode.LE,
    Opcode.GE, Opcode.EQ, Opcode.NE, Opcode.AND, Opcode.OR, Opcode.NOT,
    Opcode.RET, Opcode.HALT,
]

_JUMPS = (Opcode.JMP, Opcode.JZ, Opcode.CALL)

_raw_ops = st.one_of(
    st.sampled_from(_GEN_ARGLESS).map(lambda op: (op, None)),
    st.tuples(st.just(Opcode.PUSH),
              st.one_of(
                  st.integers(min_value=-4, max_value=4).map(float),
                  # Edge literals: infinities make NaN reachable (inf-inf)
                  # and signed zeros expose min/max tie-breaking.
                  st.sampled_from([float("inf"), float("-inf"), -0.0]))),
    # Memory is 10 slots; 10-12 exercise the out-of-range LOAD/STORE paths.
    st.tuples(st.sampled_from([Opcode.LOAD, Opcode.STORE]),
              st.integers(min_value=0, max_value=12)),
    # Jump targets are patched modulo len+1 below, so every one lands in
    # 0..len (len falls off the end): a program with a target out of range
    # does not compile, so it never runs and has no transcript to compare
    # (test_malformed_program_is_refused_before_it_runs covers it).
    st.tuples(st.sampled_from(_JUMPS), st.integers(min_value=0, max_value=40)),
)


def _build_program(ops: list[tuple[Opcode, float | int | None]],
                   name: str = "fuzz",
                   channels: tuple[str, ...] = ()) -> Program:
    instructions = []
    n = len(ops)
    for op, arg in ops:
        if op in _JUMPS:
            arg = int(arg) % (n + 1)
        instructions.append(Instruction(op, arg))
    return Program(name, instructions=tuple(instructions), channels=channels)


def _transcript(vm, program: Program, memory: list[float],
                outputs: list[float] | None = None) -> str:
    """Final state (or error string), memory image and, when given, the
    OUT transcript -- JSON-canonicalized so NaN results compare equal to
    themselves and -0.0 stays distinguishable from 0.0."""
    try:
        state = vm.execute(program, memory)
        payload = {"state": state.snapshot(), "memory": memory}
    except VmError as exc:
        payload = {"error": str(exc), "memory": memory}
    if outputs is not None:
        payload["outputs"] = outputs
    return json.dumps(payload, sort_keys=True)


# The reference VM's errors for what the interpreter refuses at compile.
_COMPILE_TIME_ERRORS = re.compile(
    r"jump target \d+ out of range|(channel|host|word) index \d+ out of range")


def _accepted(transcript: str) -> str:
    """A reference transcript of a program that compiles: it never holds
    an error that compilation would have raised first."""
    error = json.loads(transcript).get("error", "")
    assert not _COMPILE_TIME_ERRORS.search(error), error
    return transcript


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(_raw_ops, min_size=1, max_size=24),
       seed_mem=st.lists(st.integers(min_value=-3, max_value=3).map(float),
                         min_size=10, max_size=10))
def test_interpreter_matches_reference_semantics(ops, seed_mem):
    """Production interpreter == seed-semantics reference, byte for byte."""
    program = _build_program(ops)
    expected = _accepted(_transcript(_ReferenceVm(max_steps=400), program,
                                     list(seed_mem)))
    # Twice through the production interpreter: the second run hits the
    # threaded-code cache, which must not change anything.
    interp = Interpreter(max_steps=400)
    actual_cold = _transcript(interp, program, list(seed_mem))
    actual_warm = _transcript(interp, program, list(seed_mem))
    assert actual_cold == expected
    assert actual_warm == expected


# ----------------------------------------------------------------------
# Idiom properties: idiom-dense programs match the reference transcript
# ----------------------------------------------------------------------
# Chunks of common stack-code idioms (constant arithmetic, a write then a
# read of one slot, load-and-branch, jump chains), so generated programs
# contain them densely instead of by uniform accident.
_consts = st.one_of(
    st.integers(min_value=-3, max_value=3).map(float),
    st.sampled_from([float("inf"), -0.0]))
_binops = st.sampled_from([
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.MIN, Opcode.MAX,
    Opcode.LT, Opcode.GT, Opcode.LE, Opcode.GE, Opcode.EQ, Opcode.NE,
    Opcode.AND, Opcode.OR])

_idiom_chunks = st.one_of(
    # PUSH c; binop (DIV 0 exercises the division-by-zero path)
    st.tuples(_consts, _binops).map(
        lambda t: [(Opcode.PUSH, t[0]), (t[1], None)]),
    # PUSH a; PUSH b; binop
    st.tuples(_consts, _consts, _binops).map(
        lambda t: [(Opcode.PUSH, t[0]), (Opcode.PUSH, t[1]), (t[2], None)]),
    st.just([(Opcode.DUP, None), (Opcode.DROP, None)]),
    # STORE s; LOAD s (11-12 exercise bad slots)
    st.integers(min_value=0, max_value=12).map(
        lambda s: [(Opcode.STORE, s), (Opcode.LOAD, s)]),
    # LOAD s; JZ t
    st.tuples(st.integers(min_value=0, max_value=12),
              st.integers(min_value=0, max_value=40)).map(
        lambda t: [(Opcode.LOAD, t[0]), (Opcode.JZ, t[1])]),
    # JMP chains
    st.integers(min_value=0, max_value=40).map(
        lambda t: [(Opcode.JMP, t)]),
    # Interleaved singles keep the patterns from aligning trivially.
    _raw_ops.map(lambda op: [op]),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chunks=st.lists(_idiom_chunks, min_size=1, max_size=8),
       seed_mem=st.lists(st.integers(min_value=-2, max_value=2).map(float),
                         min_size=10, max_size=10),
       budget=st.integers(min_value=1, max_value=400))
def test_idioms_match_reference_transcript(chunks, seed_mem, budget):
    """Threaded and seed-reference execution of idiom-dense programs
    agree instruction for instruction -- final state, memory image, error
    string -- at *every* step budget."""
    ops = [op for chunk in chunks for op in chunk]
    program = _build_program(ops)
    expected = _accepted(_transcript(_ReferenceVm(max_steps=budget), program,
                                     list(seed_mem)))
    actual = _transcript(Interpreter(max_steps=budget), program,
                         list(seed_mem))
    assert actual == expected


def _with_outputs(ops):
    """``ops`` with an ``OUT 0`` spliced in after every third op, so
    effects interleave with the idioms; channel 0 resolves through the
    program's channel table."""
    spliced = []
    for i, op in enumerate(ops):
        spliced.append(op)
        if i % 3 == 2:
            spliced.append((Opcode.OUT, 0))
    return spliced


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chunks=st.lists(_idiom_chunks, min_size=1, max_size=8),
       seed_mem=st.lists(st.integers(min_value=-2, max_value=2).map(float),
                         min_size=10, max_size=10))
def test_output_transcript_matches_reference(chunks, seed_mem):
    """The OUT-channel effect transcript (every value written, in order)
    matches the reference's, along with the final state or error."""
    ops = [op for chunk in chunks for op in chunk]
    program = _build_program(_with_outputs(ops), name="fuzz-out",
                             channels=("tap",))

    def run(vm):
        outputs: list[float] = []
        vm.bind_output("tap", outputs.append)
        return _transcript(vm, program, list(seed_mem), outputs)

    assert (run(Interpreter(max_steps=400))
            == _accepted(run(_ReferenceVm(max_steps=400))))


# ----------------------------------------------------------------------
# Load-time contract: a malformed program is refused before it runs
# ----------------------------------------------------------------------
_INDEXED_TABLES = {Opcode.IN: ("channels", "channel"),
                   Opcode.OUT: ("channels", "channel"),
                   Opcode.HOST: ("host_names", "host"),
                   Opcode.WORD: ("word_names", "word")}

# One malformed instruction: an opcode and how far past the last valid
# target or table index its operand lies.
_malformed = st.tuples(st.sampled_from(_JUMPS + tuple(_INDEXED_TABLES)),
                       st.integers(min_value=0, max_value=3))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chunks=st.lists(_idiom_chunks, min_size=1, max_size=8),
       bad=_malformed, where=st.integers(min_value=0, max_value=64),
       with_channel=st.booleans(),
       seed_mem=st.lists(st.integers(min_value=-2, max_value=2).map(float),
                         min_size=10, max_size=10))
def test_malformed_program_is_refused_before_it_runs(chunks, bad, where,
                                                      with_channel,
                                                      seed_mem):
    """One jump target or table index pushed out of range (empty tables
    included) in an otherwise valid program: the interpreter refuses it
    before its first step, a word of it is never registered, and a capsule
    of it never replaces the installed version."""
    ops = [op for chunk in chunks for op in chunk]
    if with_channel:
        valid = _build_program(_with_outputs(ops), name="fuzz-bad",
                               channels=("tap",))
    else:
        valid = _build_program(ops, name="fuzz-bad")
    op, beyond = bad
    n = len(valid.instructions) + 1
    if op in _JUMPS:
        arg = n + 1 + beyond
        message = f"jump target {arg} out of range in 'fuzz-bad'"
    else:
        table_attr, kind = _INDEXED_TABLES[op]
        arg = len(getattr(valid, table_attr)) + beyond
        message = f"{kind} index {arg} out of range"
    instructions = list(valid.instructions)
    instructions.insert(where % n, Instruction(op, arg))
    program = dataclasses.replace(valid, instructions=tuple(instructions))

    interp = Interpreter(max_steps=400)
    outputs: list[float] = []
    interp.bind_output("tap", outputs.append)
    memory = list(seed_mem)
    state = VmState(routine=program.name)
    with pytest.raises(VmError) as refused:
        interp.execute(program, memory, state=state)
    assert str(refused.value) == message
    assert (state.steps, state.stack, state.pc) == (0, [], 0)
    assert memory == seed_mem
    assert outputs == []

    with pytest.raises(VmError, match="out of range"):
        interp.register_word(program)
    assert not interp.has_word(program.name)

    store = CapsuleStore()
    assert store.install(Capsule.from_program(valid, version=1))
    with pytest.raises(CapsuleInstallError, match="out of range"):
        store.install(Capsule.from_program(program, version=2))
    assert store.version_of(program.name) == 1
    assert store.rejected_invalid == 1


class TestSeedEdgeSemantics:
    """Edge cases the random generator is unlikely to hit, pinned against
    the reference interpreter explicitly."""

    def _both(self, instructions, memory):
        program = Program("edge", instructions=tuple(instructions))
        expected = _transcript(_ReferenceVm(max_steps=400), program,
                               list(memory))
        actual = _transcript(Interpreter(max_steps=400), program,
                             list(memory))
        assert actual == expected
        return actual

    def test_min_max_propagate_nan(self):
        # inf - inf produces NaN; min/max must propagate it like the seed.
        inf = float("inf")
        for op in (Opcode.MIN, Opcode.MAX):
            out = self._both([
                Instruction(Opcode.PUSH, inf), Instruction(Opcode.PUSH, inf),
                Instruction(Opcode.SUB), Instruction(Opcode.PUSH, 1.0),
                Instruction(op), Instruction(Opcode.STORE, 0),
                Instruction(Opcode.HALT)], [0.0])
            assert "NaN" in out

    def test_min_max_signed_zero_tie(self):
        out = self._both([
            Instruction(Opcode.PUSH, -0.0), Instruction(Opcode.PUSH, 0.0),
            Instruction(Opcode.MIN), Instruction(Opcode.STORE, 0),
            Instruction(Opcode.PUSH, 0.0), Instruction(Opcode.PUSH, -0.0),
            Instruction(Opcode.MAX), Instruction(Opcode.STORE, 1),
            Instruction(Opcode.HALT)], [9.0, 9.0])
        # min/max return their *first* operand on ties, preserving sign.
        assert json.loads(out)["memory"] == [-0.0, 0.0]

    def test_load_coerces_int_memory_to_float(self):
        # Int-seeded memory (the float type hint is unchecked) must not
        # leak ints onto the stack: the seed's push() coerced via float().
        out = self._both([Instruction(Opcode.LOAD, 0),
                          Instruction(Opcode.HALT)], [5])
        assert json.loads(out)["state"]["stack"] == [5.0]
        assert "5.0" in out


def _capture(names: list[str] | None = None) -> None:
    """(Re)capture golden digests.  With ``names``, only those workloads
    are recaptured and merged over the existing file -- digests captured
    from an earlier seed stay byte-for-byte untouched."""
    existing = (json.loads(GOLDEN_PATH.read_text())
                if GOLDEN_PATH.exists() else {"digests": {}})
    targets = names or list(WORKLOADS)
    digests = dict(existing.get("digests", {}))
    for name in targets:
        digests[name] = _digest(WORKLOADS[name]())
    GOLDEN_PATH.write_text(json.dumps(
        {"captured_from": "seed implementation (pre hot-path optimization)",
         "digests": digests}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    for name in targets:
        print(f"  {name}: {digests[name]}")


if __name__ == "__main__":
    import sys

    if "--capture" in sys.argv:
        names = [a for a in sys.argv[1:] if not a.startswith("--")]
        _capture(names or None)
    else:
        print(__doc__)
