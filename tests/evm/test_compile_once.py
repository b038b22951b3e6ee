"""Capsules decode once and compile once per process.

A node verifies and links a capsule when it arrives and afterwards only
runs the control law.  Here: every store that installs the same blob
shares one decoded :class:`Program`, and every interpreter shares the
threaded code compiled for it, so jobs pay neither cost again.  The
caches are keyed by bytes and by object, never by ``Program`` value, so
programs that compare equal but encode apart stay apart.
"""

import copy
import math
import pickle

import pytest

from repro.evm import capsule as capsule_mod
from repro.evm import interpreter as interpreter_mod
from repro.evm.bytecode import Assembler, Instruction, Opcode, Program
from repro.evm.capsule import Capsule
from repro.evm.interpreter import Interpreter
from repro.evm.runtime import EvmRuntime
from repro.evm.tasks import LogicalTask
from repro.evm.virtual_component import VcMember, VirtualComponent
from repro.experiments.hil import GATEWAY
from repro.hardware.node import FireFlyNode
from repro.rtos.kernel import NanoRK
from repro.scenarios import CampaignRunner, Scenario
from repro.scenarios.faults import CapsuleUpgrade
from repro.scenarios.stock import fast_hil
from repro.sim.clock import MS
from repro.sim.engine import Engine

PERIOD = 100 * MS
NODES = ("n1", "n2", "n3")


def _law(gain: float) -> Program:
    # memory[1] = gain * memory[0]; the gain is in the blob, so each
    # gain is a distinct capsule.
    return Assembler().assemble(
        f"load 0\npush {gain}\nmul\nstore 1\nhalt", name="compile-once-law")


@pytest.fixture
def calls(monkeypatch):
    """Counts of Program.decode and _compile_program calls (and the
    blobs decoded), starting from an empty decode memo."""
    capsule_mod._decode.cache_clear()
    counts = {"decode": 0, "compile": 0, "blobs": []}
    real_decode = Program.decode.__func__
    real_compile = interpreter_mod._compile_program

    def decode(cls, blob):
        counts["decode"] += 1
        counts["blobs"].append(bytes(blob))
        return real_decode(cls, blob)

    def compile_program(program):
        counts["compile"] += 1
        return real_compile(program)

    monkeypatch.setattr(Program, "decode", classmethod(decode))
    monkeypatch.setattr(interpreter_mod, "_compile_program", compile_program)
    yield counts
    capsule_mod._decode.cache_clear()


def _runtimes(capsule: Capsule, engine: Engine) -> list[EvmRuntime]:
    """One runtime per node, each hosting its own single-replica task
    that runs ``capsule``'s program every PERIOD."""
    vc = VirtualComponent("compile-once")
    for node_id in NODES:
        vc.admit(VcMember(node_id, frozenset({"x"})))
        vc.add_task(LogicalTask(
            name=f"task-{node_id}", program_name=capsule.name,
            period_ticks=PERIOD, wcet_ticks=1 * MS, memory_slots=4,
            initial_memory=(2.0,), required_capabilities=frozenset({"x"}),
            replicas=1))
        vc.assign(f"task-{node_id}", node_id)
    runtimes = []
    for node_id in NODES:
        kernel = NanoRK(engine, FireFlyNode(engine, node_id,
                                            with_sensors=False))
        runtime = EvmRuntime(kernel, vc, frozenset({"x"}))
        runtime.install_capsule(capsule)
        runtime.configure_from_vc(head_id=NODES[0])
        runtimes.append(runtime)
    return runtimes


def _instances(runtimes):
    return [rt.instances[f"task-{rt.node_id}"] for rt in runtimes]


class TestCompileOnce:
    def test_jobs_across_runtimes_decode_and_compile_once(self, calls):
        capsule = Capsule.from_program(_law(3.0), version=1)
        engine = Engine()
        first = _runtimes(capsule, engine)
        engine.run_until(10 * PERIOD)
        engine = Engine()
        second = _runtimes(Capsule.from_program(_law(3.0), version=1),
                           engine)
        engine.run_until(10 * PERIOD)
        instances = _instances(first) + _instances(second)
        assert all(inst.jobs_run >= 9 for inst in instances)
        assert all(inst.memory[1] == 6.0 for inst in instances)
        assert (calls["decode"], calls["compile"]) == (1, 1)
        programs = {id(rt.capsules.program(capsule.name))
                    for rt in first + second}
        assert len(programs) == 1

        # A different blob (a new control law) decodes and compiles once
        # more, however many runtimes adopt it.
        for runtime in second:
            assert runtime.install_capsule(
                Capsule.from_program(_law(5.0), version=2))
        engine.run_until(20 * PERIOD)
        assert all(inst.memory[1] == 10.0 for inst in _instances(second))
        assert (calls["decode"], calls["compile"]) == (2, 2)

        # The same blob under a newer version reuses both.
        for runtime in second:
            assert runtime.install_capsule(
                Capsule.from_program(_law(5.0), version=3))
        engine.run_until(30 * PERIOD)
        assert all(rt.capsules.version_of(capsule.name) == 3
                   for rt in second)
        assert (calls["decode"], calls["compile"]) == (2, 2)

    def test_serial_hil_campaign_compiles_each_blob_once(self, calls):
        grid = [
            Scenario("plain", hil=fast_hil(), seed=1, duration_sec=6.0),
            # The stock upgrade recompiles the same law into the same
            # bytes: installing it decodes and compiles nothing.
            Scenario("upgrade", hil=fast_hil(), seed=2, duration_sec=6.0)
            .at(2.0, CapsuleUpgrade(version=2, from_node=GATEWAY)),
        ]
        result = CampaignRunner(parallel=False).run(grid)
        assert not result.failed
        distinct = set(calls["blobs"])
        assert len(calls["blobs"]) == len(distinct)
        assert calls["compile"] == len(distinct) == 3


class TestSignedZero:
    """``Program``s pushing 0.0 and -0.0 are ``==`` and hash alike, but
    their blobs differ and so do their outputs."""

    @staticmethod
    def _capsule(zero: float) -> Capsule:
        program = Program("zero", (Instruction(Opcode.PUSH, zero),
                                   Instruction(Opcode.STORE, 1),
                                   Instruction(Opcode.HALT)))
        return Capsule.from_program(program, version=1)

    @pytest.mark.parametrize("order", [(0.0, -0.0), (-0.0, 0.0)])
    def test_each_capsule_outputs_its_own_zero(self, calls, order):
        capsules = [self._capsule(zero) for zero in order]
        assert capsules[0].program() == capsules[1].program()
        assert capsules[0].blob != capsules[1].blob
        for zero, capsule in zip(order, capsules):
            engine = Engine()
            runtimes = _runtimes(capsule, engine)
            engine.run_until(2 * PERIOD)
            for inst in _instances(runtimes):
                assert inst.jobs_run >= 1
                assert math.copysign(1.0, inst.memory[1]) == \
                    math.copysign(1.0, zero)
        assert (calls["decode"], calls["compile"]) == (2, 2)


def test_cached_code_stays_off_the_program_value():
    """The code rides on the object only: ==, hash, repr, encode(),
    pickles and copies are those of a never-run program."""
    source = "load 0\npush 2\nmax\nstore 1\nhalt"
    program = Assembler().assemble(source, name="p")
    fresh = Assembler().assemble(source, name="p")
    before = (repr(program), program.encode(), hash(program))
    memory = [1.0, 0.0]
    Interpreter().execute(program, memory)
    assert memory[1] == 2.0
    assert (repr(program), program.encode(), hash(program)) == before
    assert program == fresh
    for clone in (pickle.loads(pickle.dumps(program)),
                  copy.deepcopy(program)):
        assert clone == program
        assert vars(clone) == vars(fresh)
