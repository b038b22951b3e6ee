"""Lazy stream cells connecting fused flowsheet kernels.

A :class:`StreamPort` is one unit-output slot that can hold *either* a
materialized :class:`~repro.plant.components.Stream` (the scalar
``step()`` path stores what it built) *or* the raw
``(molar_flow, fractions, temperature, pressure)`` fields a fused
kernel produced.  Downstream kernels read the raw tuple straight off
the cell; a ``Stream`` object is only constructed when somebody
actually asks for one (sensor lambdas, ``stream_table``, tests) -- and
is cached, so repeated reads in the same step materialize once.

Ports are callables returning the materialized stream, so a port *is*
a ``StreamSource`` and can be wired wherever a ``lambda: unit.out``
used to go.
"""

from __future__ import annotations

from repro.plant.components import Composition, Stream, _PURE_C1


class StreamPort:
    """One stream-valued output cell; raw fields or a cached Stream."""

    __slots__ = ("mf", "fr", "t", "p", "stream")

    def __init__(self) -> None:
        self.mf = 0.0
        self.fr = _PURE_C1
        self.t = 25.0
        self.p = 101.3
        self.stream: Stream | None = None

    def __call__(self) -> Stream:
        return self.get()

    def set_stream(self, stream: Stream) -> None:
        """Store a materialized stream (the scalar ``step()`` path)."""
        self.stream = stream

    def set_raw(self, mf: float, fr, t: float, p: float) -> None:
        """Store raw fields from a fused kernel."""
        self.mf = mf
        self.fr = fr
        self.t = t
        self.p = p
        self.stream = None

    def raw(self):
        """``(molar_flow, fractions, temperature_c, pressure_kpa)``
        without materializing anything."""
        s = self.stream
        if s is None:
            return self.mf, self.fr, self.t, self.p
        return (s.molar_flow, s.composition.fractions, s.temperature_c,
                s.pressure_kpa)

    def molar_flow(self) -> float:
        s = self.stream
        return float(self.mf) if s is None else s.molar_flow

    def get(self) -> Stream:
        """The cell's stream, materialized (and cached) on demand."""
        s = self.stream
        if s is None:
            s = Stream.__new__(Stream)
            s.molar_flow = float(self.mf)
            s.composition = Composition._from_fractions(list(self.fr))
            # A tracking separator's initial empty stream carries
            # temperature None until the first feed arrives; preserve
            # it the way the scalar path does.
            t = self.t
            s.temperature_c = float(t) if t is not None else None
            s.pressure_kpa = float(self.p)
            self.stream = s
        return s

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "stream" if self.stream is not None else "raw"
        return f"StreamPort({state}, mf={self.molar_flow():.3f})"
