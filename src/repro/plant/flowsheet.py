"""Dynamic flowsheet solver.

A :class:`Flowsheet` owns an ordered list of units and advances them
sequentially each time step -- upstream first, with recycle loops torn by
one-step lags (units read last step's value of any downstream stream).
Named sensor taps and actuator taps give the HIL bridge and local
controllers a uniform surface.
"""

from __future__ import annotations

from typing import Callable

from repro.plant.units.base import ProcessUnit


_BACKENDS = ("auto", "py")


class Flowsheet:
    """Ordered units + named signal taps.

    ``backend`` selects how the per-step unit sweep runs; both choices
    are bit-identical (held to by the golden digests and the
    backend-conformance tests):

    - ``"auto"`` (default): fused kernels where a unit provides one
      (``compile_kernel``); raw fields flow between
      :class:`~repro.plant.ports.StreamPort` cells and streams
      materialize only when a sensor or test asks for one.
    - ``"py"``: the reference path -- each unit's scalar ``step()``,
      building ``Stream``/``Composition`` objects for every hop.
    """

    def __init__(self, name: str, backend: str = "auto") -> None:
        self.name = name
        if backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose one of {_BACKENDS}")
        self.backend = backend
        self.units: list[ProcessUnit] = []
        self._sensors: dict[str, Callable[[], float]] = {}
        self._actuators: dict[str, Callable[[float], None]] = {}
        self.time_sec = 0.0
        self.steps = 0
        # Prebound per-unit step callables (fused kernels or bound
        # unit.step methods), rebuilt lazily after add_unit(): the
        # per-step unit sweep is the hottest loop in every HIL run.
        self._unit_steps: tuple[Callable[[float], None], ...] | None = None

    def add_unit(self, unit: ProcessUnit) -> ProcessUnit:
        self.units.append(unit)
        self._unit_steps = None
        return unit

    def add_sensor(self, name: str, fn: Callable[[], float]) -> None:
        if name in self._sensors:
            raise ValueError(f"sensor {name!r} already registered")
        self._sensors[name] = fn

    def add_actuator(self, name: str, fn: Callable[[float], None]) -> None:
        if name in self._actuators:
            raise ValueError(f"actuator {name!r} already registered")
        self._actuators[name] = fn

    # ------------------------------------------------------------------
    def read(self, sensor: str) -> float:
        if sensor not in self._sensors:
            raise KeyError(
                f"no sensor {sensor!r}; have {sorted(self._sensors)}")
        return float(self._sensors[sensor]())

    def write(self, actuator: str, value: float) -> None:
        if actuator not in self._actuators:
            raise KeyError(
                f"no actuator {actuator!r}; have {sorted(self._actuators)}")
        self._actuators[actuator](value)

    def sensor_tap(self, name: str) -> Callable[[], float]:
        """The raw sensor callable -- for hot paths that prebind their
        reads (the HIL bridge's per-step PV publish).  Callers coerce the
        result with ``float()`` exactly as :meth:`read` does."""
        if name not in self._sensors:
            raise KeyError(f"no sensor {name!r}; have {sorted(self._sensors)}")
        return self._sensors[name]

    def actuator_tap(self, name: str) -> Callable[[float], None]:
        """The raw actuator callable (see :meth:`sensor_tap`)."""
        if name not in self._actuators:
            raise KeyError(
                f"no actuator {name!r}; have {sorted(self._actuators)}")
        return self._actuators[name]

    def sensor_names(self) -> list[str]:
        return sorted(self._sensors)

    # ------------------------------------------------------------------
    def _compiled_steps(self) -> tuple[Callable[[float], None], ...]:
        if self.backend == "py":
            return tuple(u.step for u in self.units)
        compiled = []
        for unit in self.units:
            kernel = unit.compile_kernel()
            compiled.append(kernel if kernel is not None else unit.step)
        return tuple(compiled)

    def step(self, dt_sec: float) -> None:
        """Advance every unit by ``dt_sec`` (construction order)."""
        steps = self._unit_steps
        if steps is None:
            steps = self._unit_steps = self._compiled_steps()
        for step in steps:
            step(dt_sec)
        self.time_sec += dt_sec
        self.steps += 1

    def run(self, duration_sec: float, dt_sec: float,
            on_step: Callable[[float], None] | None = None) -> None:
        """Step for ``duration_sec``; ``on_step(time)`` after each step."""
        steps = int(round(duration_sec / dt_sec))
        for _ in range(steps):
            self.step(dt_sec)
            if on_step is not None:
                on_step(self.time_sec)

    def snapshot(self) -> dict[str, float]:
        """All sensor readings at once (stream tables, steady-state checks)."""
        return {name: self.read(name) for name in self.sensor_names()}
