"""The EVM instruction set: a FORTH-like stack machine.

Like Mate, programs are tiny stack-machine routines; unlike Mate, the
instruction set is **extensible at runtime** (user-defined words install as
new opcodes via code capsules) and instructions exist for node-to-node
control rather than PC-to-node scripting (host hooks bind ``HOST``/``IN``/
``OUT`` instructions to kernel and network operations).

A :class:`Program` is a sequence of :class:`Instruction` plus the name tables
for host hooks and words it references.  Programs encode to compact bytes --
the unit of attestation, dissemination and migration sizing.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, fields


class Opcode(enum.IntEnum):
    """Fixed numbering; the wire format depends on these values."""

    HALT = 0
    NOP = 1
    # Stack manipulation
    PUSH = 2      # arg: float constant
    DUP = 3
    DROP = 4
    SWAP = 5
    OVER = 6
    ROT = 7
    # Arithmetic
    ADD = 8
    SUB = 9
    MUL = 10
    DIV = 11
    NEG = 12
    ABS = 13
    MIN = 14
    MAX = 15
    # Comparison / logic (push 1.0 or 0.0)
    LT = 16
    GT = 17
    LE = 18
    GE = 19
    EQ = 20
    NE = 21
    AND = 22
    OR = 23
    NOT = 24
    # Control flow
    JMP = 25      # arg: absolute instruction index
    JZ = 26       # arg: absolute instruction index; pops condition
    CALL = 27     # arg: absolute instruction index; pushes return address
    RET = 28
    # Task memory (the migratable data segment), by integer slot
    LOAD = 29     # arg: slot
    STORE = 30    # arg: slot
    # I/O channels, resolved through host hooks
    IN = 31       # arg: channel index into Program.channels
    OUT = 32      # arg: channel index into Program.channels
    # Host operations (kernel / EVM library calls), by name table index
    HOST = 33     # arg: index into Program.host_names
    # User-defined words (runtime-extensible instructions)
    WORD = 34     # arg: index into Program.word_names


_ARGLESS = {
    Opcode.HALT, Opcode.NOP, Opcode.DUP, Opcode.DROP, Opcode.SWAP,
    Opcode.OVER, Opcode.ROT, Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV,
    Opcode.NEG, Opcode.ABS, Opcode.MIN, Opcode.MAX, Opcode.LT, Opcode.GT,
    Opcode.LE, Opcode.GE, Opcode.EQ, Opcode.NE, Opcode.AND, Opcode.OR,
    Opcode.NOT, Opcode.RET,
}
_FLOAT_ARG = {Opcode.PUSH}
_INT_ARG = {Opcode.JMP, Opcode.JZ, Opcode.CALL, Opcode.LOAD, Opcode.STORE,
            Opcode.IN, Opcode.OUT, Opcode.HOST, Opcode.WORD}


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction."""

    opcode: Opcode
    arg: float | int | None = None

    def __post_init__(self) -> None:
        if self.opcode in _ARGLESS and self.arg is not None:
            raise ValueError(f"{self.opcode.name} takes no argument")
        if self.opcode in _INT_ARG:
            if not isinstance(self.arg, int) or self.arg < 0:
                raise ValueError(
                    f"{self.opcode.name} needs a non-negative int argument, "
                    f"got {self.arg!r}")
        if self.opcode in _FLOAT_ARG and not isinstance(self.arg, (int, float)):
            raise ValueError(f"{self.opcode.name} needs a numeric argument")

    def __str__(self) -> str:
        if self.arg is None:
            return self.opcode.name.lower()
        return f"{self.opcode.name.lower()} {self.arg}"


@dataclass(frozen=True)
class Program:
    """An immutable, encodable EVM routine.

    ``channels`` names the I/O channels ``IN``/``OUT`` address;
    ``host_names`` the kernel operations ``HOST`` may call;
    ``word_names`` the user-defined words ``WORD`` may invoke.
    """

    name: str
    instructions: tuple[Instruction, ...]
    channels: tuple[str, ...] = ()
    host_names: tuple[str, ...] = ()
    word_names: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.instructions)

    def __getstate__(self) -> dict:
        # Pickles and copies carry the fields only, never the threaded
        # code an interpreter caches on the instance for this process.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        """Compact byte encoding (attestation + migration payloads).

        Layout: header with name/tables (length-prefixed UTF-8), then one
        record per instruction: opcode byte, then a 4-byte float32 for PUSH
        or a 2-byte unsigned for int-arg opcodes.
        """
        out = bytearray()
        out += _encode_str(self.name)
        for table in (self.channels, self.host_names, self.word_names):
            out.append(len(table))
            for entry in table:
                out += _encode_str(entry)
        out += struct.pack(">H", len(self.instructions))
        for ins in self.instructions:
            out.append(int(ins.opcode))
            if ins.opcode in _FLOAT_ARG:
                out += struct.pack(">f", float(ins.arg))
            elif ins.opcode in _INT_ARG:
                out += struct.pack(">H", int(ins.arg))
        return bytes(out)

    @classmethod
    def decode(cls, blob: bytes) -> "Program":
        view = memoryview(blob)
        offset = 0
        name, offset = _decode_str(view, offset)
        tables: list[tuple[str, ...]] = []
        for _ in range(3):
            count = view[offset]
            offset += 1
            entries = []
            for _ in range(count):
                entry, offset = _decode_str(view, offset)
                entries.append(entry)
            tables.append(tuple(entries))
        (count,) = struct.unpack_from(">H", view, offset)
        offset += 2
        instructions = []
        for _ in range(count):
            opcode = Opcode(view[offset])
            offset += 1
            arg: float | int | None = None
            if opcode in _FLOAT_ARG:
                (arg,) = struct.unpack_from(">f", view, offset)
                offset += 4
            elif opcode in _INT_ARG:
                (arg,) = struct.unpack_from(">H", view, offset)
                offset += 2
            instructions.append(Instruction(opcode, arg))
        return cls(name=name, instructions=tuple(instructions),
                   channels=tables[0], host_names=tables[1],
                   word_names=tables[2])

    @property
    def size_bytes(self) -> int:
        return len(self.encode())

    def disassemble(self) -> str:
        """Readable listing that :class:`Assembler` can re-assemble."""
        lines = []
        for table, directive in ((self.channels, ".channel"),
                                 (self.host_names, ".host"),
                                 (self.word_names, ".word")):
            for entry in table:
                lines.append(f"{directive} {entry}")
        for i, ins in enumerate(self.instructions):
            lines.append(f"    {ins}    ; {i}")
        return "\n".join(lines)


def _encode_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 255:
        raise ValueError(f"string too long to encode: {text[:32]!r}...")
    return bytes([len(raw)]) + raw


def _decode_str(view: memoryview, offset: int) -> tuple[str, int]:
    length = view[offset]
    offset += 1
    text = bytes(view[offset:offset + length]).decode("utf-8")
    return text, offset + length


class AssemblyError(ValueError):
    """Raised on malformed assembly text."""


class Assembler:
    """Two-pass assembler for the textual form.

    Syntax, one statement per line (``;`` or ``#`` starts a comment)::

        .name lowpass            ; program name
        .channel level_in        ; declares channel 0
        .host get_time           ; declares host op 0
        .word pid_step           ; declares word 0

        start:                   ; labels end with ':'
            in level_in          ; channels/hosts/words by name
            push 0.5
            mul
            store 0
            jz start             ; jump targets by label or index
            halt
    """

    def assemble(self, text: str, name: str = "program") -> Program:
        statements, labels, channels, hosts, words, declared_name = (
            self._parse(text))
        if declared_name:
            name = declared_name
        instructions = []
        for line_no, mnemonic, operand in statements:
            instructions.append(self._encode_statement(
                line_no, mnemonic, operand, labels, channels, hosts, words))
        return Program(name=name, instructions=tuple(instructions),
                       channels=tuple(channels), host_names=tuple(hosts),
                       word_names=tuple(words))

    def _parse(self, text: str):
        statements: list[tuple[int, str, str | None]] = []
        labels: dict[str, int] = {}
        channels: list[str] = []
        hosts: list[str] = []
        words: list[str] = []
        name = ""
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split(";")[0].split("#")[0].strip()
            if not line:
                continue
            if line.startswith(".name"):
                name = line.split(None, 1)[1].strip()
                continue
            if line.startswith(".channel"):
                channels.append(line.split(None, 1)[1].strip())
                continue
            if line.startswith(".host"):
                hosts.append(line.split(None, 1)[1].strip())
                continue
            if line.startswith(".word"):
                words.append(line.split(None, 1)[1].strip())
                continue
            while line.endswith(":") or ":" in line.split()[0]:
                label, _, rest = line.partition(":")
                label = label.strip()
                if not label.isidentifier():
                    raise AssemblyError(
                        f"line {line_no}: bad label {label!r}")
                if label in labels:
                    raise AssemblyError(
                        f"line {line_no}: duplicate label {label!r}")
                labels[label] = len(statements)
                line = rest.strip()
                if not line:
                    break
            if not line:
                continue
            parts = line.split(None, 1)
            mnemonic = parts[0].lower()
            operand = parts[1].strip() if len(parts) > 1 else None
            statements.append((line_no, mnemonic, operand))
        return statements, labels, channels, hosts, words, name

    def _encode_statement(self, line_no: int, mnemonic: str,
                          operand: str | None, labels: dict[str, int],
                          channels: list[str], hosts: list[str],
                          words: list[str]) -> Instruction:
        try:
            opcode = Opcode[mnemonic.upper()]
        except KeyError:
            raise AssemblyError(
                f"line {line_no}: unknown mnemonic {mnemonic!r}") from None
        if opcode in _ARGLESS:
            if operand is not None:
                raise AssemblyError(
                    f"line {line_no}: {mnemonic} takes no operand")
            return Instruction(opcode)
        if operand is None:
            raise AssemblyError(f"line {line_no}: {mnemonic} needs an operand")
        if opcode in _FLOAT_ARG:
            try:
                return Instruction(opcode, float(operand))
            except ValueError:
                raise AssemblyError(
                    f"line {line_no}: bad number {operand!r}") from None
        if opcode in (Opcode.JMP, Opcode.JZ, Opcode.CALL):
            if operand in labels:
                return Instruction(opcode, labels[operand])
            if operand.isdigit():
                return Instruction(opcode, int(operand))
            raise AssemblyError(
                f"line {line_no}: unknown label {operand!r}")
        if opcode in (Opcode.LOAD, Opcode.STORE):
            if not operand.isdigit():
                raise AssemblyError(
                    f"line {line_no}: {mnemonic} needs a slot number")
            return Instruction(opcode, int(operand))
        table = {Opcode.IN: channels, Opcode.OUT: channels,
                 Opcode.HOST: hosts, Opcode.WORD: words}[opcode]
        if operand.isdigit():
            return Instruction(opcode, int(operand))
        try:
            return Instruction(opcode, table.index(operand))
        except ValueError:
            raise AssemblyError(
                f"line {line_no}: {operand!r} not declared "
                f"(missing .channel/.host/.word?)") from None
