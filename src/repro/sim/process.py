"""Generator-based simulation processes.

Long-lived stateful behaviours (the B-MAC/S-MAC/RT-Link state machines)
read naturally as generators that yield *wait requests*:

    def beacon(node):
        while True:
            yield Delay(100 * MS)
            node.radio.transmit(...)

A :class:`Process` drives such a generator on the engine.  Processes wait
only on time: the one wait request is :class:`Delay`, which resumes the
process after a fixed number of ticks.

Resumes are **allocation-free**: instead of holding a cancellable
:class:`~repro.sim.engine.EventHandle` per wait, the process carries a
monotonically increasing *generation* counter and arms every ``Delay``
through the engine's fire-and-forget ``post`` path with the generation
baked into the callback arguments.  ``kill`` just bumps the generation,
which turns the in-flight resume into a no-op when it pops -- the MAC
inner loops allocate nothing per ``Delay`` resume.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.sim.engine import Engine, SimulationError


class Delay:
    """Wait request: resume the process after ``ticks`` of simulated time."""

    __slots__ = ("ticks",)

    def __init__(self, ticks: int) -> None:
        if ticks < 0:
            raise ValueError(f"negative delay {ticks}")
        self.ticks = int(ticks)


class Process:
    """Drives a generator of :class:`Delay` requests on an :class:`Engine`.

    The process starts on the next engine dispatch (never synchronously), so
    construction order in user code does not affect event order subtleties.

    ``_generation`` identifies the currently-armed wait: every arm bumps it
    and bakes the new value into the posted resume's arguments, so a resume
    whose generation no longer matches (killed process) falls through as a
    no-op instead of needing a cancellable handle.
    """

    __slots__ = ("engine", "name", "_gen", "alive", "result", "_generation",
                 "_post", "_resume_cb")

    def __init__(self, engine: Engine, generator: Generator, name: str = "") -> None:
        self.engine = engine
        self.name = name or getattr(generator, "__name__", "process")
        self._gen = generator
        self.alive = True
        self.result: Any = None
        self._generation = 1
        # Bound once: the resume path would otherwise re-create the bound
        # method (and re-resolve engine.post) on every single wait.
        self._post = engine.post
        self._resume_cb = self._resume_if
        self._post(0, self._resume_cb, 1)

    def kill(self) -> None:
        """Stop the process; its generator is closed and never resumed."""
        if not self.alive:
            return
        self.alive = False
        self._generation += 1  # any in-flight resume is now stale
        self._gen.close()

    def _resume_if(self, gen: int) -> None:
        """Resume the generator iff ``gen`` is still the armed wait."""
        if gen != self._generation or not self.alive:
            return
        try:
            request = self._gen.send(None)
        except StopIteration as stop:
            self.alive = False
            self.result = stop.value
            return
        if isinstance(request, Delay):
            # The hot path: no handle, no closure -- one heap entry
            # carrying the next generation.
            self._generation = gen = self._generation + 1
            self._post(request.ticks, self._resume_cb, gen)
        else:
            self._fail_request(request)

    def _fail_request(self, request: Any) -> None:
        # Tear down fully before raising: the generator is closed (its
        # finally blocks run) and no stale resume can resurrect us.
        self.alive = False
        self._generation += 1
        self._gen.close()
        raise SimulationError(
            f"process {self.name!r} yielded unsupported request "
            f"{request!r}; expected Delay"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "dead"
        return f"Process({self.name!r}, {state})"
