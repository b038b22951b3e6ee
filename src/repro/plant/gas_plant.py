"""The Fig. 4 natural gas plant, with its eight control loops.

Raw gas feeds -> inlet separator -> gas/gas exchanger -> chiller -> LTS;
inlet-separator liquids + LTS liquids -> depropanizer.  Eight controllers,
as in the paper: four top-level (inlet-sep level, **LTS level** -- the case
study's loop -- chiller temperature, sales-gas pressure) and four on the
depropanizer (drum level, sump level, pressure, stage temperature).

Each loop can run on a *local* regulator (plant-side PID, used for every
loop the wireless experiment is not exercising) or be driven externally
through the actuator taps (the HIL bridge / EVM path).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.control.controller import ControlLawConfig, FilteredPidController
from repro.obs import instrument
from repro.plant.components import Composition, Stream
from repro.plant.flowsheet import Flowsheet
from repro.plant.ports import StreamPort
from repro.plant.units.base import ProcessUnit
from repro.plant.units.column import Depropanizer
from repro.plant.units.heat_exchanger import Chiller, GasGasExchanger
from repro.plant.units.mixer import Mixer
from repro.plant.units.separator import TwoPhaseSeparator
from repro.plant.units.valve import ControlValve


class VaporHeader(ProcessUnit):
    """Sales-gas header: pressure integrates inflow minus valve draw."""

    def __init__(self, name: str, inlet, valve: ControlValve,
                 pressure_kpa: float = 3800.0,
                 volume_mol_per_kpa: float = 5.0) -> None:
        super().__init__(name)
        self.inlet = inlet
        self.valve = valve
        self.pressure_kpa = pressure_kpa
        self.volume_mol_per_kpa = volume_mol_per_kpa
        self.outlet_port = StreamPort()
        self.outlet = Stream.empty()

    @property
    def outlet(self) -> Stream:
        return self.outlet_port.get()

    @outlet.setter
    def outlet(self, stream: Stream) -> None:
        self.outlet_port.set_stream(stream)

    def compile_kernel(self):
        from repro.plant.kernels import vapor_header_kernel
        return vapor_header_kernel(self)

    def step(self, dt_sec: float) -> None:
        self.valve.step(dt_sec)
        inlet = self.inlet()
        out_flow = min(self.valve.requested_flow,
                       inlet.molar_flow
                       + max(0.0, self.pressure_kpa - 1000.0) * 0.05)
        self.pressure_kpa += (inlet.molar_flow - out_flow) * dt_sec \
            / self.volume_mol_per_kpa
        self.pressure_kpa = max(200.0, self.pressure_kpa)
        outlet = inlet.copy() if inlet.molar_flow > 0 else Stream.empty()
        outlet.molar_flow = out_flow
        outlet.pressure_kpa = self.pressure_kpa
        self.outlet = outlet


@dataclass
class ControlLoop:
    """One control loop: PV sensor name, MV actuator name, and tuning."""

    name: str
    pv: str
    mv: str
    config: ControlLawConfig
    nominal_output: float


class NaturalGasPlant:
    """The composed plant.  See module docstring for the topology."""

    LTS_LEVEL_SETPOINT = 50.0
    PLANT_DT_SEC = 0.5

    def __init__(self, local_control_dt_sec: float = 0.5,
                 backend: str = "auto") -> None:
        self.local_control_dt_sec = local_control_dt_sec
        self.flowsheet = Flowsheet("natural-gas-plant", backend=backend)
        self._build_units()
        self._register_taps()
        self.loops = self._build_loops()
        self._local_controllers: dict[str, FilteredPidController] = {}
        self._local_enabled: set[str] = set()
        # Prebound (controller.step, pv tap, mv tap) triples for every
        # enabled loop, rebuilt lazily when the enabled set changes: the
        # regulator sweep runs every plant step and name-resolved taps
        # dominated it.
        self._local_compiled: list[tuple] | None = None
        self._obs = instrument.plant_meters()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_units(self) -> None:
        fs = self.flowsheet
        self.feed1 = Stream(80.0, Composition({
            "N2": 0.02, "CO2": 0.02, "C1": 0.70, "C2": 0.12,
            "C3": 0.08, "iC4": 0.03, "nC4": 0.03}), 25.0, 4000.0)
        self.feed2 = Stream(40.0, Composition({
            "N2": 0.01, "CO2": 0.03, "C1": 0.60, "C2": 0.15,
            "C3": 0.12, "iC4": 0.045, "nC4": 0.045}), 25.0, 4000.0)
        self.feed_mixer = fs.add_unit(Mixer(
            "feed-mixer", [lambda: self.feed1, lambda: self.feed2]))
        self.inlet_sep_valve = ControlValve("inlet-sep-liquid-valve",
                                            cv_mol_s=55.0,
                                            initial_opening_pct=12.0)
        self.inlet_sep = fs.add_unit(TwoPhaseSeparator(
            "InletSep", feed=lambda: self.feed_mixer.outlet,
            liquid_valve=self.inlet_sep_valve, temperature_c=25.0,
            pressure_kpa=4000.0, holdup_capacity_mol=20000.0,
            initial_level_pct=50.0, blow_by_fraction=0.3,
            drain_backpressure=self._liquid_header_backpressure))
        # Gas/gas exchanger: cold side reads the LTS overhead with a
        # one-step lag (the LTS is stepped after the exchanger).
        self.gas_gas = fs.add_unit(GasGasExchanger(
            "gas-gas-exchanger", hot_inlet=lambda: self.inlet_sep.vapor_out,
            cold_inlet=lambda: self.lts.vapor_out, effectiveness=0.65))
        self.chiller = fs.add_unit(Chiller(
            "chiller", inlet=lambda: self.gas_gas.hot_out,
            t_min_c=-35.0, t_max_c=10.0, initial_duty_pct=66.7,
            tau_sec=20.0))
        self.lts_valve = ControlValve("lts-liquid-valve", cv_mol_s=110.4,
                                      initial_opening_pct=11.5,
                                      actuator_tau_sec=2.0)
        self.lts = fs.add_unit(TwoPhaseSeparator(
            "LTS", feed=lambda: self.chiller.outlet,
            liquid_valve=self.lts_valve, temperature_c=None,
            pressure_kpa=3900.0, holdup_capacity_mol=12000.0,
            initial_level_pct=50.0, blow_by_fraction=0.6))
        self.sales_valve = ControlValve("sales-gas-valve", cv_mol_s=200.0,
                                        initial_opening_pct=50.0)
        self.sales_header = fs.add_unit(VaporHeader(
            "sales-header", inlet=lambda: self.gas_gas.cold_out,
            valve=self.sales_valve))
        self.liquids_mixer = fs.add_unit(Mixer(
            "liquids-mixer", [lambda: self.inlet_sep.liquid_out,
                              lambda: self.lts.liquid_out]))
        self.distillate_valve = ControlValve("deprop-distillate-valve",
                                             cv_mol_s=30.0,
                                             initial_opening_pct=23.0)
        self.bottoms_valve = ControlValve("deprop-bottoms-valve",
                                          cv_mol_s=40.0,
                                          initial_opening_pct=21.0)
        self.deprop_gas_valve = ControlValve("deprop-gas-valve",
                                             cv_mol_s=20.0,
                                             initial_opening_pct=16.0)
        self.depropanizer = fs.add_unit(Depropanizer(
            "DePropanizer", feed=lambda: self.liquids_mixer.outlet,
            distillate_valve=self.distillate_valve,
            bottoms_valve=self.bottoms_valve,
            overhead_gas_valve=self.deprop_gas_valve))
        # Port-direct wiring: the lambdas above keep construction order
        # flexible (the exchanger's cold side references the LTS before
        # it exists); with every unit built, point the inputs straight
        # at the upstream output ports so the fused kernels read raw
        # fields with no stream materialization.  The feed mixer keeps
        # its lambdas -- feed1/feed2 are reassignable plain streams.
        self.inlet_sep.feed = self.feed_mixer.outlet_port
        self.gas_gas.hot_inlet = self.inlet_sep.vapor_out_port
        self.gas_gas.cold_inlet = self.lts.vapor_out_port
        self.chiller.inlet = self.gas_gas.hot_out_port
        self.lts.feed = self.chiller.outlet_port
        self.sales_header.inlet = self.gas_gas.cold_out_port
        self.liquids_mixer.inlets = [self.inlet_sep.liquid_out_port,
                                     self.lts.liquid_out_port]
        self.depropanizer.feed = self.liquids_mixer.outlet_port

    def _liquid_header_backpressure(self) -> float:
        """Shared liquid-header coupling: LTS gas blow-by pressures up the
        header and chokes the inlet separator's drainage -- the mechanism
        behind the SepLiq disturbance in Fig. 6(b)."""
        nominal = 25.0
        excess = max(0.0,
                     self.liquids_mixer.outlet_port.molar_flow() - nominal)
        return 1.0 / (1.0 + 0.012 * excess)

    def _register_taps(self) -> None:
        fs = self.flowsheet
        # The four Fig. 6(b) series.
        fs.add_sensor("lts_level_pct", lambda: self.lts.level_pct)
        fs.add_sensor("sep_liq_flow",
                      lambda: self.inlet_sep.liquid_out.molar_flow)
        fs.add_sensor("lts_liq_flow",
                      lambda: self.lts.liquid_out.molar_flow)
        fs.add_sensor("tower_feed_flow",
                      lambda: self.liquids_mixer.outlet.molar_flow)
        # Remaining loop PVs and diagnostics.
        fs.add_sensor("inlet_sep_level_pct", lambda: self.inlet_sep.level_pct)
        fs.add_sensor("chiller_temp_c",
                      lambda: self.chiller.outlet_temperature_c)
        fs.add_sensor("sales_pressure_kpa",
                      lambda: self.sales_header.pressure_kpa)
        fs.add_sensor("deprop_drum_level_pct",
                      lambda: self.depropanizer.drum_level_pct)
        fs.add_sensor("deprop_sump_level_pct",
                      lambda: self.depropanizer.sump_level_pct)
        fs.add_sensor("deprop_pressure_kpa",
                      lambda: self.depropanizer.pressure_kpa)
        fs.add_sensor("deprop_temp_c", lambda: self.depropanizer.temperature_c)
        fs.add_sensor("bottoms_c3_frac",
                      lambda: self.depropanizer.bottoms_propane_fraction())
        fs.add_sensor("lts_valve_pct", lambda: self.lts_valve.opening_pct)
        fs.add_sensor("sales_gas_flow",
                      lambda: self.sales_header.outlet.molar_flow)
        # Actuators (MVs).
        fs.add_actuator("lts_liquid_valve_pct", self.lts_valve.set_command)
        fs.add_actuator("inlet_sep_valve_pct",
                        self.inlet_sep_valve.set_command)
        fs.add_actuator("chiller_duty_pct", self.chiller.set_duty)
        fs.add_actuator("sales_valve_pct", self.sales_valve.set_command)
        fs.add_actuator("deprop_distillate_valve_pct",
                        self.distillate_valve.set_command)
        fs.add_actuator("deprop_bottoms_valve_pct",
                        self.bottoms_valve.set_command)
        fs.add_actuator("deprop_gas_valve_pct",
                        self.deprop_gas_valve.set_command)
        fs.add_actuator("deprop_reboil_duty_pct",
                        self.depropanizer.set_reboil_duty)

    def _build_loops(self) -> list[ControlLoop]:
        dt = self.local_control_dt_sec
        return [
            ControlLoop(
                name="lts_level", pv="lts_level_pct",
                mv="lts_liquid_valve_pct",
                config=ControlLawConfig(
                    kp=-3.0, ki=-0.01, kd=0.0, dt_sec=dt,
                    setpoint=self.LTS_LEVEL_SETPOINT, filter_cutoff_hz=0.05,
                    out_min=0.0, out_max=100.0,
                    integral_min=-10000.0, integral_max=10000.0),
                nominal_output=11.48),
            ControlLoop(
                name="inlet_sep_level", pv="inlet_sep_level_pct",
                mv="inlet_sep_valve_pct",
                config=ControlLawConfig(
                    kp=-3.0, ki=-0.008, kd=0.0, dt_sec=dt, setpoint=50.0,
                    filter_cutoff_hz=0.05, integral_min=-10000.0,
                    integral_max=10000.0),
                nominal_output=12.0),
            ControlLoop(
                name="chiller_temp", pv="chiller_temp_c",
                mv="chiller_duty_pct",
                config=ControlLawConfig(
                    kp=-4.0, ki=-0.15, kd=0.0, dt_sec=dt, setpoint=-20.0,
                    filter_cutoff_hz=0.1, integral_min=-5000.0,
                    integral_max=5000.0),
                nominal_output=66.7),
            ControlLoop(
                name="sales_pressure", pv="sales_pressure_kpa",
                mv="sales_valve_pct",
                config=ControlLawConfig(
                    kp=-0.08, ki=-0.01, kd=0.0, dt_sec=dt, setpoint=3800.0,
                    filter_cutoff_hz=0.1, integral_min=-100000.0,
                    integral_max=100000.0),
                nominal_output=50.0),
            ControlLoop(
                name="deprop_drum_level", pv="deprop_drum_level_pct",
                mv="deprop_distillate_valve_pct",
                config=ControlLawConfig(
                    kp=-2.0, ki=-0.008, kd=0.0, dt_sec=dt, setpoint=50.0,
                    filter_cutoff_hz=0.05, integral_min=-10000.0,
                    integral_max=10000.0),
                nominal_output=23.0),
            ControlLoop(
                name="deprop_sump_level", pv="deprop_sump_level_pct",
                mv="deprop_bottoms_valve_pct",
                config=ControlLawConfig(
                    kp=-2.0, ki=-0.008, kd=0.0, dt_sec=dt, setpoint=50.0,
                    filter_cutoff_hz=0.05, integral_min=-10000.0,
                    integral_max=10000.0),
                nominal_output=21.0),
            ControlLoop(
                name="deprop_pressure", pv="deprop_pressure_kpa",
                mv="deprop_gas_valve_pct",
                config=ControlLawConfig(
                    kp=-0.2, ki=-0.02, kd=0.0, dt_sec=dt, setpoint=1500.0,
                    filter_cutoff_hz=0.1, integral_min=-50000.0,
                    integral_max=50000.0),
                nominal_output=16.0),
            ControlLoop(
                name="deprop_temp", pv="deprop_temp_c",
                mv="deprop_reboil_duty_pct",
                config=ControlLawConfig(
                    kp=3.0, ki=0.1, kd=0.0, dt_sec=dt, setpoint=95.0,
                    filter_cutoff_hz=0.1, integral_min=-5000.0,
                    integral_max=5000.0),
                nominal_output=50.0),
        ]

    def loop(self, name: str) -> ControlLoop:
        for loop in self.loops:
            if loop.name == name:
                return loop
        raise KeyError(f"no loop {name!r}; have {[l.name for l in self.loops]}")

    # ------------------------------------------------------------------
    # Local (plant-side) regulators
    # ------------------------------------------------------------------
    def enable_local_control(self, exclude: tuple[str, ...] = ()) -> None:
        """Run plant-side regulators for every loop not in ``exclude``.

        The HIL experiments exclude the loop(s) the wireless EVM controls.
        """
        for loop in self.loops:
            if loop.name in exclude:
                self._local_enabled.discard(loop.name)
                continue
            if loop.name not in self._local_controllers:
                pv = self.flowsheet.read(loop.pv)
                controller = FilteredPidController(
                    loop.config,
                    list(loop.config.initial_memory(pv, loop.nominal_output)))
                self._local_controllers[loop.name] = controller
            self._local_enabled.add(loop.name)
        self._local_compiled = None

    def disable_local_control(self, name: str) -> None:
        self._local_enabled.discard(name)
        self._local_compiled = None

    def _run_local_controllers(self) -> None:
        compiled = self._local_compiled
        if compiled is None:
            compiled = self._local_compiled = [
                (self._local_controllers[loop.name].step,
                 self.flowsheet.sensor_tap(loop.pv),
                 self.flowsheet.actuator_tap(loop.mv))
                for loop in self.loops if loop.name in self._local_enabled]
        for ctrl_step, pv_tap, mv_tap in compiled:
            mv_tap(ctrl_step(float(pv_tap())))

    # ------------------------------------------------------------------
    # Advancing
    # ------------------------------------------------------------------
    def step(self, dt_sec: float | None = None) -> None:
        dt = dt_sec if dt_sec is not None else self.PLANT_DT_SEC
        obs = self._obs
        if obs is None:
            self._run_local_controllers()
            self.flowsheet.step(dt)
            return
        start = time.perf_counter()
        self._run_local_controllers()
        self.flowsheet.step(dt)
        obs.steps.inc()
        obs.step_seconds.observe(time.perf_counter() - start)

    def settle(self, duration_sec: float = 1500.0) -> dict[str, float]:
        """Run to (near) steady state under full local control."""
        self.enable_local_control()
        steps = int(duration_sec / self.local_control_dt_sec)
        for _ in range(steps):
            self.step(self.local_control_dt_sec)
        return self.flowsheet.snapshot()

    def stream_table(self) -> dict[str, dict[str, float]]:
        """Key streams for the Fig. 4 reproduction."""
        def describe(stream: Stream) -> dict[str, float]:
            return {
                "molar_flow": round(stream.molar_flow, 3),
                "temperature_c": round(stream.temperature_c, 2),
                "pressure_kpa": round(stream.pressure_kpa, 1),
                "C3_frac": round(stream.composition["C3"], 4),
            }

        return {
            "feed": describe(self.feed_mixer.outlet),
            "inlet_sep_vapor": describe(self.inlet_sep.vapor_out),
            "inlet_sep_liquid": describe(self.inlet_sep.liquid_out),
            "chiller_out": describe(self.chiller.outlet),
            "lts_vapor": describe(self.lts.vapor_out),
            "lts_liquid": describe(self.lts.liquid_out),
            "tower_feed": describe(self.liquids_mixer.outlet),
            "sales_gas": describe(self.sales_header.outlet),
            "distillate": describe(self.depropanizer.distillate_out),
            "bottoms": describe(self.depropanizer.bottoms_out),
        }
