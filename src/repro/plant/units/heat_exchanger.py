"""Heat exchange: the gas/gas exchanger and the propane chiller.

The gas/gas exchanger pre-cools inlet gas against the LTS's cold overhead
return (effectiveness-NTU with the minimum capacity stream).  The recycle
this creates is torn with a one-step lag: the cold side reads last step's
LTS overhead.

The chiller stands in for the propane refrigeration loop: its outlet
temperature tracks a setpoint through a first-order lag whose command is the
refrigeration duty actuator (0..100 % maps onto an outlet-temperature
range), which gives the chiller-temperature control loop a realistic handle.
"""

from __future__ import annotations

from repro.plant.components import Stream
from repro.plant.ports import StreamPort
from repro.plant.thermo import sensible_duty_watts
from repro.plant.units.base import ProcessUnit, StreamSource


class GasGasExchanger(ProcessUnit):
    """Counter-current effectiveness model; equal molar cp assumed."""

    def __init__(self, name: str, hot_inlet: StreamSource,
                 cold_inlet: StreamSource, effectiveness: float = 0.65,
                 ) -> None:
        super().__init__(name)
        if not 0.0 < effectiveness <= 1.0:
            raise ValueError(
                f"effectiveness must be in (0,1], got {effectiveness}")
        self.hot_inlet = hot_inlet
        self.cold_inlet = cold_inlet
        self.effectiveness = effectiveness
        self.hot_out_port = StreamPort()
        self.cold_out_port = StreamPort()
        self.hot_out = Stream.empty()
        self.cold_out = Stream.empty()
        self.duty_watts = 0.0

    @property
    def hot_out(self) -> Stream:
        return self.hot_out_port.get()

    @hot_out.setter
    def hot_out(self, stream: Stream) -> None:
        self.hot_out_port.set_stream(stream)

    @property
    def cold_out(self) -> Stream:
        return self.cold_out_port.get()

    @cold_out.setter
    def cold_out(self, stream: Stream) -> None:
        self.cold_out_port.set_stream(stream)

    def compile_kernel(self):
        from repro.plant.kernels import gasgas_kernel
        return gasgas_kernel(self)

    def step(self, dt_sec: float) -> None:
        hot = self.hot_inlet()
        cold = self.cold_inlet()
        if hot.molar_flow <= 1e-9 or cold.molar_flow <= 1e-9:
            self.hot_out = hot.copy()
            self.cold_out = cold.copy()
            self.duty_watts = 0.0
            return
        c_min = min(hot.molar_flow, cold.molar_flow)
        q_max = c_min * (hot.temperature_c - cold.temperature_c)
        q = self.effectiveness * max(0.0, q_max)
        hot_out = hot.copy()
        hot_out.temperature_c = hot.temperature_c - q / hot.molar_flow
        cold_out = cold.copy()
        cold_out.temperature_c = cold.temperature_c + q / cold.molar_flow
        self.hot_out = hot_out
        self.cold_out = cold_out
        self.duty_watts = sensible_duty_watts(
            hot, hot.temperature_c - hot_out.temperature_c)


class Chiller(ProcessUnit):
    """Refrigerated cooler with a duty actuator.

    ``duty_pct`` (0..100) commands the outlet temperature between
    ``t_min_c`` (full duty) and ``t_max_c`` (no duty); the metal/refrigerant
    time constant smooths the response.
    """

    def __init__(self, name: str, inlet: StreamSource,
                 t_min_c: float = -35.0, t_max_c: float = 10.0,
                 initial_duty_pct: float = 60.0,
                 tau_sec: float = 20.0) -> None:
        super().__init__(name)
        if t_min_c >= t_max_c:
            raise ValueError("t_min_c must be below t_max_c")
        self.inlet = inlet
        self.t_min_c = t_min_c
        self.t_max_c = t_max_c
        self.duty_pct = initial_duty_pct
        self.tau_sec = tau_sec
        self.outlet_temperature_c = self._target()
        self.outlet_port = StreamPort()
        self.outlet = Stream.empty()
        self.duty_watts = 0.0

    @property
    def outlet(self) -> Stream:
        return self.outlet_port.get()

    @outlet.setter
    def outlet(self, stream: Stream) -> None:
        self.outlet_port.set_stream(stream)

    def compile_kernel(self):
        from repro.plant.kernels import chiller_kernel
        return chiller_kernel(self)

    def set_duty(self, duty_pct: float) -> None:
        self.duty_pct = min(100.0, max(0.0, float(duty_pct)))

    def _target(self) -> float:
        span = self.t_max_c - self.t_min_c
        return self.t_max_c - span * self.duty_pct / 100.0

    def step(self, dt_sec: float) -> None:
        alpha = dt_sec / (self.tau_sec + dt_sec)
        self.outlet_temperature_c += alpha * (
            self._target() - self.outlet_temperature_c)
        inlet = self.inlet()
        outlet = inlet.copy()
        outlet.temperature_c = self.outlet_temperature_c
        self.outlet = outlet
        self.duty_watts = abs(sensible_duty_watts(
            inlet, inlet.temperature_c - self.outlet_temperature_c))
