"""The depropanizer distillation column (lumped model).

Unisim runs a rigorous tray-by-tray column; the EVM only needs four
realistic control handles, so we model the column as a component splitter
with holdup and pressure dynamics:

- **split**: C3 and lighter report to the overhead with high recovery
  (sharpened by reboiler temperature), butanes to the bottoms -- yielding
  the "low-propane-content bottoms product" of the paper;
- **reflux drum** and **sump** holdups integrate the internal flows, drained
  by the distillate and bottoms valves (drum/sump level loops);
- **pressure** integrates vapor generation minus the overhead gas valve
  draw (pressure loop);
- **stage temperature** first-order toward a reboiler-duty target
  (temperature loop).
"""

from __future__ import annotations

from repro.plant.components import Composition, N_SPECIES, SPECIES, Stream
from repro.plant.ports import StreamPort
from repro.plant.units.base import ProcessUnit, StreamSource
from repro.plant.units.valve import ControlValve

# Base recovery of each species to the overhead (distillate) at nominal
# reboil; lighter than propane go essentially completely overhead.
_BASE_OVERHEAD_RECOVERY = {
    "N2": 1.0, "CO2": 0.995, "C1": 0.999, "C2": 0.985,
    "C3": 0.955, "iC4": 0.06, "nC4": 0.02,
}

# Index-aligned views for the per-step split sweep (the dict/formula
# lookups dominated `step`); the math stays in `_overhead_recovery`'s
# exact operation order.
from repro.plant.components import SPECIES_INDEX as _SPECIES_INDEX  # noqa: E402

_BASE_RECOVERY = tuple(_BASE_OVERHEAD_RECOVERY[s.formula] for s in SPECIES)
_C3_I = _SPECIES_INDEX["C3"]
_IC4_I = _SPECIES_INDEX["iC4"]
_NC4_I = _SPECIES_INDEX["nC4"]


class Depropanizer(ProcessUnit):
    """Splitter column with drum/sump/pressure/temperature dynamics."""

    def __init__(
        self,
        name: str,
        feed: StreamSource,
        distillate_valve: ControlValve,
        bottoms_valve: ControlValve,
        overhead_gas_valve: ControlValve,
        drum_capacity_mol: float = 6000.0,
        sump_capacity_mol: float = 9000.0,
        pressure_kpa: float = 1500.0,
        pressure_volume_mol_per_kpa: float = 3.0,
        temperature_c: float = 95.0,
        reboiler_tau_sec: float = 30.0,
    ) -> None:
        super().__init__(name)
        self.feed = feed
        self.distillate_valve = distillate_valve
        self.bottoms_valve = bottoms_valve
        self.overhead_gas_valve = overhead_gas_valve
        self.drum_capacity_mol = drum_capacity_mol
        self.sump_capacity_mol = sump_capacity_mol
        self.drum_holdup = [0.0] * N_SPECIES
        self.sump_holdup = [0.0] * N_SPECIES
        self._seed()
        self.pressure_kpa = pressure_kpa
        self.pressure_volume_mol_per_kpa = pressure_volume_mol_per_kpa
        self.temperature_c = temperature_c
        self.reboil_duty_pct = 50.0
        self.reboiler_tau_sec = reboiler_tau_sec
        self.distillate_out_port = StreamPort()
        self.bottoms_out_port = StreamPort()
        self.overhead_gas_out_port = StreamPort()
        self.distillate_out = Stream.empty()
        self.bottoms_out = Stream.empty()
        self.overhead_gas_out = Stream.empty()

    def _seed(self) -> None:
        light = Composition({"C2": 0.25, "C3": 0.70, "iC4": 0.05})
        heavy = Composition({"C3": 0.04, "iC4": 0.46, "nC4": 0.50})
        for i, f in enumerate(light.fractions):
            self.drum_holdup[i] = 0.5 * self.drum_capacity_mol * f
        for i, f in enumerate(heavy.fractions):
            self.sump_holdup[i] = 0.5 * self.sump_capacity_mol * f

    # ------------------------------------------------------------------
    # Stream outputs (port-backed; see TwoPhaseSeparator)
    # ------------------------------------------------------------------
    @property
    def distillate_out(self) -> Stream:
        return self.distillate_out_port.get()

    @distillate_out.setter
    def distillate_out(self, stream: Stream) -> None:
        self.distillate_out_port.set_stream(stream)

    @property
    def bottoms_out(self) -> Stream:
        return self.bottoms_out_port.get()

    @bottoms_out.setter
    def bottoms_out(self, stream: Stream) -> None:
        self.bottoms_out_port.set_stream(stream)

    @property
    def overhead_gas_out(self) -> Stream:
        return self.overhead_gas_out_port.get()

    @overhead_gas_out.setter
    def overhead_gas_out(self, stream: Stream) -> None:
        self.overhead_gas_out_port.set_stream(stream)

    def compile_kernel(self):
        from repro.plant.kernels import column_kernel
        return column_kernel(self)

    # ------------------------------------------------------------------
    # Control handles (PVs and MVs)
    # ------------------------------------------------------------------
    @property
    def drum_level_pct(self) -> float:
        return 100.0 * sum(self.drum_holdup) / self.drum_capacity_mol

    @property
    def sump_level_pct(self) -> float:
        return 100.0 * sum(self.sump_holdup) / self.sump_capacity_mol

    def set_reboil_duty(self, duty_pct: float) -> None:
        self.reboil_duty_pct = min(100.0, max(0.0, float(duty_pct)))

    # ------------------------------------------------------------------
    def _overhead_recovery(self, formula: str) -> float:
        """Recovery sharpens with stage temperature (reboil effect)."""
        base = _BASE_OVERHEAD_RECOVERY[formula]
        # +/-10 degC around 95 shifts C3/C4 recovery a few points.
        shift = (self.temperature_c - 95.0) / 10.0 * 0.02
        if formula in ("C3",):
            return min(0.999, max(0.5, base + shift))
        if formula in ("iC4", "nC4"):
            return min(0.5, max(0.0, base + shift))
        return base

    def step(self, dt_sec: float) -> None:
        for valve in (self.distillate_valve, self.bottoms_valve,
                      self.overhead_gas_valve):
            valve.step(dt_sec)
        # Reboiler temperature dynamics: duty 0..100 % -> 80..110 degC.
        target = 80.0 + 30.0 * self.reboil_duty_pct / 100.0
        alpha = dt_sec / (self.reboiler_tau_sec + dt_sec)
        self.temperature_c += alpha * (target - self.temperature_c)
        feed = self.feed()
        # Split the feed into internal overhead/bottoms traffic.  The
        # recovery shift is constant across one step, so the sweep runs
        # index-based with `_overhead_recovery`'s arithmetic inlined.
        overhead_flows = [0.0] * N_SPECIES
        bottoms_flows = [0.0] * N_SPECIES
        shift = (self.temperature_c - 95.0) / 10.0 * 0.02
        feed_mf = feed.molar_flow
        feed_fr = feed.composition.fractions
        for i in range(N_SPECIES):
            base = _BASE_RECOVERY[i]
            if i == _C3_I:
                recovery = min(0.999, max(0.5, base + shift))
            elif i == _IC4_I or i == _NC4_I:
                recovery = min(0.5, max(0.0, base + shift))
            else:
                recovery = base
            flow = feed_mf * feed_fr[i]
            overhead_flows[i] = flow * recovery
            bottoms_flows[i] = flow * (1.0 - recovery)
        overhead_total = sum(overhead_flows)
        # Pressure: vapor arrives overhead, leaves via the gas valve.
        gas_out_flow = min(self.overhead_gas_valve.requested_flow,
                           overhead_total * 0.35
                           + max(0.0, self.pressure_kpa - 1200.0) * 0.02)
        self.pressure_kpa += (overhead_total * 0.3 - gas_out_flow) \
            * dt_sec / self.pressure_volume_mol_per_kpa
        self.pressure_kpa = max(200.0, self.pressure_kpa)
        if overhead_total > 1e-9:
            overhead_comp = Composition._normalized(overhead_flows, copy=True)
        else:
            overhead_comp = Composition({"C3": 1.0})
        self.overhead_gas_out = Stream(gas_out_flow, overhead_comp,
                                       40.0, self.pressure_kpa)
        # Condensed overhead (the rest) accumulates in the reflux drum.
        condensed = max(0.0, overhead_total - gas_out_flow)
        if overhead_total > 1e-9:
            for i, flow in enumerate(overhead_flows):
                self.drum_holdup[i] += (flow / overhead_total) * condensed \
                    * dt_sec
        for i, flow in enumerate(bottoms_flows):
            self.sump_holdup[i] += flow * dt_sec
        self.distillate_out = self._drain(self.drum_holdup,
                                          self.distillate_valve, dt_sec,
                                          40.0)
        self.bottoms_out = self._drain(self.sump_holdup, self.bottoms_valve,
                                       dt_sec, self.temperature_c)
        self._clamp(self.drum_holdup, self.drum_capacity_mol)
        self._clamp(self.sump_holdup, self.sump_capacity_mol)

    def _drain(self, holdup: list[float], valve: ControlValve,
               dt_sec: float, temperature_c: float) -> Stream:
        total = sum(holdup)
        requested = valve.requested_flow
        drained = min(requested, total / dt_sec)
        if drained <= 1e-12 or total <= 1e-12:
            return Stream.empty(temperature_c, self.pressure_kpa)
        fraction = min(1.0, drained * dt_sec / total)
        out_flows = [h * fraction / dt_sec for h in holdup]
        for i in range(N_SPECIES):
            holdup[i] *= (1.0 - fraction)
        return Stream(sum(out_flows), Composition._normalized(out_flows),
                      temperature_c,
                      self.pressure_kpa)

    def _clamp(self, holdup: list[float], capacity: float) -> None:
        total = sum(holdup)
        if total > capacity:
            scale = capacity / total
            for i in range(N_SPECIES):
                holdup[i] *= scale

    def bottoms_propane_fraction(self) -> float:
        """C3 mole fraction of the bottoms product (the quality spec)."""
        if self.bottoms_out.molar_flow <= 1e-12:
            total = sum(self.sump_holdup)
            if total <= 0:
                return 0.0
            from repro.plant.components import SPECIES_INDEX
            return self.sump_holdup[SPECIES_INDEX["C3"]] / total
        return self.bottoms_out.composition["C3"]
