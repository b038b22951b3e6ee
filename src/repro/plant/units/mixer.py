"""Stream mixers."""

from __future__ import annotations

from repro.plant.components import Stream
from repro.plant.ports import StreamPort
from repro.plant.units.base import ProcessUnit, StreamSource


class Mixer(ProcessUnit):
    """Combines any number of inlet streams into :attr:`outlet`."""

    def __init__(self, name: str, inlets: list[StreamSource]) -> None:
        super().__init__(name)
        self.inlets = list(inlets)
        self.outlet_port = StreamPort()
        self.outlet = Stream.empty()

    def add_inlet(self, source: StreamSource) -> None:
        self.inlets.append(source)

    @property
    def outlet(self) -> Stream:
        return self.outlet_port.get()

    @outlet.setter
    def outlet(self, stream: Stream) -> None:
        self.outlet_port.set_stream(stream)

    def compile_kernel(self):
        from repro.plant.kernels import mixer_kernel
        return mixer_kernel(self)

    def step(self, dt_sec: float) -> None:
        self.outlet = Stream.mix([source() for source in self.inlets])
