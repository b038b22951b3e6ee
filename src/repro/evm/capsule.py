"""Versioned code capsules and their per-node store.

A :class:`Capsule` wraps an encoded EVM program with a version number and an
integrity digest.  Nodes keep a :class:`CapsuleStore`; installing a capsule
verifies the digest, enforces monotone versions, decodes and verifies the
program once (it must compile), charges ROM budget, and makes the program
available to the local interpreter (registering words).  A capsule that
fails a check changes nothing: the installed version keeps running.

Dissemination is viral, Mate-style: the runtime rebroadcasts any capsule
that was news to it, so new control laws proliferate through a Virtual
Component without per-node flashing.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.evm.bytecode import Program
from repro.evm.interpreter import VmError, compile_program


@dataclass(frozen=True)
class Capsule:
    """One disseminable unit of code."""

    name: str
    version: int
    blob: bytes
    digest: bytes = b""

    @classmethod
    def from_program(cls, program: Program, version: int) -> "Capsule":
        blob = program.encode()
        return cls(name=program.name, version=version, blob=blob,
                   digest=_capsule_digest(blob))

    def program(self) -> Program:
        return _decode(self.blob)

    def verify(self) -> bool:
        return _capsule_digest(self.blob) == self.digest

    @property
    def size_bytes(self) -> int:
        return len(self.blob) + len(self.digest) + 8

    def corrupted_copy(self, byte_index: int) -> "Capsule":
        """A copy with one flipped byte (fault-injection helper)."""
        mutated = bytearray(self.blob)
        mutated[byte_index % len(mutated)] ^= 0xFF
        return Capsule(name=self.name, version=self.version,
                       blob=bytes(mutated), digest=self.digest)


def _capsule_digest(blob: bytes) -> bytes:
    return hashlib.sha256(blob).digest()[:8]


@lru_cache(maxsize=256)
def _decode(blob: bytes) -> Program:
    """The one decode path, memoised per process by the blob's bytes.

    Every store that installs the same bytes gets the same immutable
    :class:`Program`, so the interpreter compiles it once for all of
    them.  The key is the bytes, never the decoded value: ``PUSH 0.0``
    and ``PUSH -0.0`` programs compare equal but encode apart.
    """
    return Program.decode(blob)


class CapsuleInstallError(RuntimeError):
    """Raised when a capsule fails its digest or its program does not
    decode or compile (ROM overflow raises ``MemoryExhausted``)."""


class CapsuleStore:
    """Per-node capsule registry with version control and ROM accounting."""

    def __init__(self, rom_bank=None,
                 on_install: Callable[[Capsule], None] | None = None) -> None:
        self.rom_bank = rom_bank
        self.on_install = on_install
        self._capsules: dict[str, Capsule] = {}
        # Decoded once at install: jobs run the installed Program as is.
        self._programs: dict[str, Program] = {}
        self.rejected_corrupt = 0
        self.rejected_invalid = 0
        self.rejected_stale = 0

    def version_of(self, name: str) -> int:
        capsule = self._capsules.get(name)
        return capsule.version if capsule is not None else -1

    def has(self, name: str, version: int | None = None) -> bool:
        capsule = self._capsules.get(name)
        if capsule is None:
            return False
        return version is None or capsule.version >= version

    def install(self, capsule: Capsule) -> bool:
        """Install if newer, intact and well formed.  Returns True if it
        was news; silently refuses stale versions (returns False).

        Decodes and compiles the program once, before touching ROM or the
        installed version.  Raises :class:`CapsuleInstallError` on a digest
        mismatch (the sender should retransmit) or a program that does not
        decode or compile (counted in ``rejected_invalid``).
        """
        if not capsule.verify():
            self.rejected_corrupt += 1
            raise CapsuleInstallError(
                f"capsule {capsule.name!r} v{capsule.version} failed "
                f"integrity verification")
        if capsule.version <= self.version_of(capsule.name):
            self.rejected_stale += 1
            return False
        try:
            program = capsule.program()
            compile_program(program)
        except (ValueError, IndexError, struct.error, VmError) as exc:
            self.rejected_invalid += 1
            raise CapsuleInstallError(
                f"capsule {capsule.name!r} v{capsule.version} is not a "
                f"valid program: {exc}") from exc
        if self.rom_bank is not None:
            region = f"capsule:{capsule.name}"
            existing = self._capsules.get(capsule.name)
            if existing is not None:
                self.rom_bank.resize(region, capsule.size_bytes)
            else:
                self.rom_bank.allocate(region, capsule.size_bytes)
        self._capsules[capsule.name] = capsule
        self._programs[capsule.name] = program
        if self.on_install is not None:
            self.on_install(capsule)
        return True

    def get(self, name: str) -> Capsule:
        if name not in self._capsules:
            raise KeyError(f"no capsule {name!r} installed")
        return self._capsules[name]

    def program(self, name: str) -> Program | None:
        """The Program decoded when ``name`` was installed, or None."""
        return self._programs.get(name)

    def names(self) -> list[str]:
        return sorted(self._capsules)

    def summary(self) -> dict[str, int]:
        """name -> version map (gossiped in membership beacons)."""
        return {name: c.version for name, c in self._capsules.items()}
