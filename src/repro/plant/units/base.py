"""Process-unit interface.

Units are wired functionally: each consumes upstream streams via callables
(bound at flowsheet construction) and exposes its outputs as attributes.
The flowsheet steps units in topological order; recycle loops (the gas/gas
exchanger's cold return) read the *previous* step's value, the standard
one-step-lag tearing for dynamic simulation.
"""

from __future__ import annotations

from typing import Callable

from repro.plant.components import Stream

StreamSource = Callable[[], Stream]


class ProcessUnit:
    """Base class: a named unit advanced by ``step(dt_sec)``."""

    def __init__(self, name: str) -> None:
        self.name = name

    def step(self, dt_sec: float) -> None:
        """Advance the unit's state by ``dt_sec`` seconds of plant time."""
        raise NotImplementedError

    def compile_kernel(self):
        """Optional fused step for the flowsheet's ``"auto"`` backend.

        Returns a ``kernel(dt_sec)`` closure bit-identical to
        :meth:`step`, or ``None`` to keep stepping this unit through
        :meth:`step`.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r})"
