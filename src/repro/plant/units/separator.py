"""Two-phase separators with liquid holdup dynamics.

The heart of the case study: the Low-Temperature Separator's liquid level is
the controlled variable, and its liquid outlet valve is the manipulated
variable.  The model:

- flash the feed at the vessel's (T, P) into vapor and liquid;
- vapor leaves immediately through the overhead;
- liquid accumulates in a per-component molar holdup;
- the liquid outlet valve drains the holdup, limited by what is there;
- when the vessel runs dry while the valve is open, *gas blow-by* passes
  vapor into the liquid header -- the mechanism that couples the LTS fault
  into the separator and tower-feed flows in Fig. 6(b).
"""

from __future__ import annotations

from repro.plant.components import Composition, N_SPECIES, Stream
from repro.plant.ports import StreamPort
from repro.plant.thermo import flash
from repro.plant.units.base import ProcessUnit, StreamSource
from repro.plant.units.valve import ControlValve


class TwoPhaseSeparator(ProcessUnit):
    """Flash drum with level dynamics and a valve on the liquid outlet."""

    def __init__(
        self,
        name: str,
        feed: StreamSource,
        liquid_valve: ControlValve,
        temperature_c: float | None,
        pressure_kpa: float,
        holdup_capacity_mol: float,
        initial_level_pct: float = 50.0,
        blow_by_fraction: float = 0.5,
        drain_backpressure=None,
    ) -> None:
        """``temperature_c=None`` makes the vessel track its feed
        temperature (the LTS operates at whatever the chiller delivers).

        ``drain_backpressure`` is an optional callable returning a 0..1
        multiplier on the liquid valve's deliverable flow -- vessels draining
        into a shared liquid header see reduced flow when the header is
        pressured up (e.g. by another vessel's gas blow-by).
        """
        super().__init__(name)
        if holdup_capacity_mol <= 0:
            raise ValueError("holdup capacity must be positive")
        self.feed = feed
        self.liquid_valve = liquid_valve
        self.drain_backpressure = drain_backpressure
        self._fixed_temperature_c = temperature_c
        self.temperature_c = (temperature_c if temperature_c is not None
                              else 25.0)
        self.pressure_kpa = pressure_kpa
        self.holdup_capacity_mol = holdup_capacity_mol
        self.blow_by_fraction = blow_by_fraction
        # Per-component liquid holdup; composition starts as a placeholder
        # and is replaced by condensed liquid as the simulation runs.
        initial_total = holdup_capacity_mol * initial_level_pct / 100.0
        self.holdup = [0.0] * N_SPECIES
        self._seed_holdup(initial_total)
        self.vapor_out_port = StreamPort()
        self.liquid_out_port = StreamPort()
        self.vapor_out = Stream.empty(temperature_c, pressure_kpa)
        self.liquid_out = Stream.empty(temperature_c, pressure_kpa)
        self.blow_by_flow = 0.0
        self.overflow_mol = 0.0

    def _seed_holdup(self, total: float) -> None:
        if total <= 0:
            return
        # Seed with a generic heavy-liquid composition; flushed quickly.
        seed = Composition({"C3": 0.6, "iC4": 0.2, "nC4": 0.2})
        self.holdup = [total * f for f in seed.fractions]

    # ------------------------------------------------------------------
    # Stream outputs live in ports so the fused kernels can hand raw
    # fields downstream; the scalar path stores streams through the
    # setters and nothing changes shape for callers.
    @property
    def vapor_out(self) -> Stream:
        return self.vapor_out_port.get()

    @vapor_out.setter
    def vapor_out(self, stream: Stream) -> None:
        self.vapor_out_port.set_stream(stream)

    @property
    def liquid_out(self) -> Stream:
        return self.liquid_out_port.get()

    @liquid_out.setter
    def liquid_out(self, stream: Stream) -> None:
        self.liquid_out_port.set_stream(stream)

    def compile_kernel(self):
        from repro.plant.kernels import separator_kernel
        return separator_kernel(self)

    # ------------------------------------------------------------------
    @property
    def holdup_mol(self) -> float:
        return sum(self.holdup)

    @property
    def level_pct(self) -> float:
        return 100.0 * self.holdup_mol / self.holdup_capacity_mol

    def step(self, dt_sec: float) -> None:
        self.liquid_valve.step(dt_sec)
        feed = self.feed()
        if self._fixed_temperature_c is None:
            self.temperature_c = feed.temperature_c
        vapor, liquid = flash(feed, self.temperature_c, self.pressure_kpa)
        # Condensed liquid accumulates (inlined component flows; the
        # arithmetic matches `component_flows()` element for element).
        holdup = self.holdup
        liquid_mf = liquid.molar_flow
        liquid_fr = liquid.composition.fractions
        for i in range(N_SPECIES):
            holdup[i] += (liquid_mf * liquid_fr[i]) * dt_sec
        # Drain through the valve, limited by available liquid and any
        # back-pressure on the downstream liquid header.
        requested = self.liquid_valve.requested_flow
        if self.drain_backpressure is not None:
            requested *= max(0.0, min(1.0, self.drain_backpressure()))
        holdup_total = self.holdup_mol
        available_rate = holdup_total / dt_sec
        drained = min(requested, available_rate)
        if drained > 0 and holdup_total > 0:
            fraction = min(1.0, drained * dt_sec / holdup_total)
            out_flows = [h * fraction / dt_sec for h in holdup]
            self.holdup = [h * (1.0 - fraction) for h in holdup]
            out_total = sum(out_flows)
            self.liquid_out = Stream(out_total,
                                     Composition._normalized(out_flows)
                                     if out_total > 1e-12
                                     else liquid.composition,
                                     self.temperature_c, self.pressure_kpa)
        else:
            self.liquid_out = Stream.empty(self.temperature_c,
                                           self.pressure_kpa)
        # Gas blow-by: unmet valve demand pulls vapor into the liquid line.
        shortfall = max(0.0, requested - drained)
        self.blow_by_flow = shortfall * self.blow_by_fraction
        if self.blow_by_flow > 1e-9 and vapor.molar_flow > 1e-9:
            taken = min(self.blow_by_flow, vapor.molar_flow)
            self.blow_by_flow = taken
            blow_by = Stream(taken, vapor.composition, self.temperature_c,
                             self.pressure_kpa)
            vapor = Stream(vapor.molar_flow - taken, vapor.composition,
                           vapor.temperature_c, vapor.pressure_kpa)
            self.liquid_out = Stream.mix([self.liquid_out, blow_by])
        else:
            self.blow_by_flow = 0.0
        # Overflow protection: liquid carried over with the vapor.
        if self.holdup_mol > self.holdup_capacity_mol:
            excess = self.holdup_mol - self.holdup_capacity_mol
            scale = self.holdup_capacity_mol / self.holdup_mol
            self.holdup = [h * scale for h in self.holdup]
            self.overflow_mol += excess
        self.vapor_out = vapor
