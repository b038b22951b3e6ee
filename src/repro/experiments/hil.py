"""The six-node wireless hardware-in-loop rig (paper Fig. 5).

Physical layout: a gateway node (ModBus to the plant, Virtual Component
head), a sensor node wired to the LTS level transmitter, two controller
nodes (primary Ctrl-A and backup Ctrl-B), an actuator node wired to the LTS
liquid valve, and a spare controller -- six FireFly motes on RT-Link with
AM time synchronization.

Data path each 250 ms control cycle (one TDMA frame = 50 x 5 ms slots):

1. the sensor task samples the level (HIL register copy + noise), its node
   transmits in slot 2;
2. both controllers (offset 30 ms) run the second-order-filter + PID
   bytecode; the ACTIVE one publishes the valve command in its slot
   (A: slot 10, B: slot 12); the BACKUP shadows and monitors;
3. the actuator task (offset 60 ms) applies the accepted command through
   its analog output (ModBus write latency applies);
4. the gateway transmits VC control traffic (mode changes, etc.) in slot 30.

End-to-end sensing-to-actuation latency is ~65 ms, within the paper's
objective of 1/3 of the 250 ms control cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.control.compiler import (
    SLOT_INPUT,
    SLOT_OUTPUT,
    SLOT_SETPOINT,
    compile_passthrough,
)
from repro.control.controller import ControlLawConfig
from repro.evm.capsule import Capsule
from repro.evm.failover import ControllerMode, FailoverPolicy
from repro.evm.object_transfer import (
    DirectionalTransfer,
    FaultResponse,
    HealthAssessment,
)
from repro.evm.runtime import EvmRuntime, StateSharingPolicy
from repro.evm.tasks import LogicalTask
from repro.evm.virtual_component import VcMember, VirtualComponent
from repro.hardware.node import FireFlyNode
from repro.hardware.timesync import AmTimeSync, TimeSyncSpec
from repro.net.mac.rtlink import RtLinkConfig, RtLinkMac, RtLinkSchedule
from repro.net.medium import Medium
from repro.net.modbus import ModbusGatewayService
from repro.net.topology import full_mesh
from repro.plant.gas_plant import NaturalGasPlant
from repro.plant.hil import HilBridge
from repro.sim.clock import MS, SEC
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.trace import Trace

GATEWAY = "gw"
SENSOR = "s1"
CTRL_A = "ctrl_a"
CTRL_B = "ctrl_b"
CTRL_C = "ctrl_c"
ACTUATOR = "act1"

NODE_IDS = [GATEWAY, SENSOR, CTRL_A, CTRL_B, CTRL_C, ACTUATOR]

TASK_SENSOR = "lts_sensor"
TASK_CTRL = "lts_ctrl"
TASK_ACT = "lts_act"


@dataclass
class HilConfig:
    """Scenario knobs (ablated across benchmarks)."""

    seed: int = 1
    control_period_ticks: int = 250 * MS
    slots_per_frame: int = 50
    slot_ticks: int = 5 * MS
    detection_threshold: int = 3
    max_deviation: float = 5.0
    heartbeat_timeout_ticks: int = 2 * SEC
    arbitration_holdoff_ticks: int = 0
    dormant_delay_ticks: int = 200 * SEC
    state_sharing_mode: str = "active"
    sensor_noise_std: float = 0.15
    settle_sec: float = 1500.0
    plant_dt_ticks: int = 500 * MS
    trace_medium: bool = False
    link_prr: float | None = None  # per-frame reception ratio (None = ideal)


class HilRig:
    """Builds and owns the full stack for one scenario run.

    Accepts either a bare :class:`HilConfig` or a declarative
    :class:`repro.scenarios.spec.Scenario` (positionally or via the
    ``scenario`` keyword).  With a scenario, the rig derives its config
    from the spec (the scenario seed wins) and arms a
    :class:`~repro.scenarios.injector.FaultInjector` so the fault
    schedule fires as engine events during the run -- experiments,
    examples, integration tests, and campaign sweeps all drive this one
    entry point.
    """

    def __init__(self, config: HilConfig | None = None, *,
                 scenario=None) -> None:
        if scenario is None and config is not None:
            # Deferred import (as below): repro.scenarios.spec imports
            # this module, so it cannot be imported at module load.
            from repro.scenarios.spec import Scenario

            if isinstance(config, Scenario):
                scenario, config = config, None
        if scenario is not None:
            if config is not None:
                raise ValueError("pass either a config or a scenario")
            config = scenario.build_config()
        self.scenario = scenario
        self.config = config or HilConfig()
        self.engine = Engine()
        self.trace = Trace()
        self.rng = RngRegistry(self.config.seed)
        self._build_plant()
        self._build_network()
        self._build_vc()
        self._build_runtimes()
        self._wire_io()
        self.injector = None
        if scenario is not None:
            from repro.scenarios.injector import FaultInjector

            self.injector = FaultInjector(self, scenario)
            self.injector.arm()
        self._started = False

    # ------------------------------------------------------------------
    # Plant
    # ------------------------------------------------------------------
    def _build_plant(self) -> None:
        cfg = self.config
        self.plant = NaturalGasPlant()
        self.plant.settle(cfg.settle_sec)
        # The wireless Virtual Component takes over the LTS level loop;
        # the remaining seven loops stay on plant-side regulators.
        self.plant.enable_local_control(exclude=("lts_level",))
        self.bridge = HilBridge(self.engine, self.plant,
                                plant_dt_ticks=cfg.plant_dt_ticks)
        self.loop = self.plant.loop("lts_level")

    # ------------------------------------------------------------------
    # Network
    # ------------------------------------------------------------------
    def _build_network(self) -> None:
        cfg = self.config
        self.topology = full_mesh(NODE_IDS, spacing_m=12.0)
        link_model = None
        if cfg.link_prr is not None:
            from repro.net.link_quality import FixedPrr

            link_model = FixedPrr(cfg.link_prr)
        self.medium = Medium(
            self.engine, self.topology, link_model=link_model,
            rng=self.rng.stream("medium"),
            trace=self.trace if cfg.trace_medium else None)
        self.sync = AmTimeSync(self.engine, self.rng.stream("timesync"),
                               TimeSyncSpec())
        self.mac_config = RtLinkConfig(slots_per_frame=cfg.slots_per_frame,
                                       slot_ticks=cfg.slot_ticks)
        self.schedule = RtLinkSchedule(self.mac_config)
        listeners = {
            SENSOR: {CTRL_A, CTRL_B, CTRL_C, GATEWAY},
            CTRL_A: {ACTUATOR, CTRL_B, CTRL_C, GATEWAY},
            CTRL_B: {ACTUATOR, CTRL_A, CTRL_C, GATEWAY},
            # The spare is a full peer: its replies (migration accepts,
            # future shadow traffic) must reach the other controllers and
            # the actuator.
            CTRL_C: {ACTUATOR, CTRL_A, CTRL_B, GATEWAY},
            ACTUATOR: {GATEWAY},
            GATEWAY: {SENSOR, CTRL_A, CTRL_B, CTRL_C, ACTUATOR},
        }
        # Slot phases as fractions of the frame, so alternative control
        # periods (and hence frame lengths) keep the sense->control->act
        # pipeline ordering: sensor early, controllers mid, actuator after,
        # gateway late.
        fractions = {SENSOR: 0.04, CTRL_A: 0.20, CTRL_B: 0.24,
                     CTRL_C: 0.28, ACTUATOR: 0.40, GATEWAY: 0.60}
        used: set[int] = set()
        for node_id, fraction in fractions.items():
            slot = min(cfg.slots_per_frame - 1,
                       max(0, int(round(fraction * cfg.slots_per_frame))))
            while slot in used:
                slot = (slot + 1) % cfg.slots_per_frame
            used.add(slot)
            self.schedule.assign(slot, node_id, listeners[node_id])
        self.nodes: dict[str, FireFlyNode] = {}
        self.macs: dict[str, RtLinkMac] = {}
        for node_id in NODE_IDS:
            node = FireFlyNode(
                self.engine, node_id,
                position=self.topology.position(node_id),
                drift_ppm=10.0,
                rng=self.rng.stream(f"node:{node_id}"))
            node.join_timesync(self.sync)
            port = self.medium.attach(node)
            mac = RtLinkMac(self.engine, node, port, self.schedule,
                            queue_capacity=32)
            self.nodes[node_id] = node
            self.macs[node_id] = mac

    # ------------------------------------------------------------------
    # Virtual Component
    # ------------------------------------------------------------------
    def _build_vc(self) -> None:
        cfg = self.config
        self.vc = VirtualComponent("lts-level-vc")
        capabilities = {
            GATEWAY: frozenset({"gateway", "head"}),
            SENSOR: frozenset({"sensor:lts_level"}),
            CTRL_A: frozenset({"controller"}),
            CTRL_B: frozenset({"controller"}),
            CTRL_C: frozenset({"controller"}),
            ACTUATOR: frozenset({"actuate:lts_valve"}),
        }
        self.capabilities = capabilities
        for node_id in NODE_IDS:
            self.vc.admit(VcMember(node_id, capabilities[node_id],
                                   cpu_capacity=0.7))
        control_config = ControlLawConfig(
            kp=self.loop.config.kp, ki=self.loop.config.ki,
            kd=self.loop.config.kd,
            dt_sec=cfg.control_period_ticks / SEC,
            setpoint=self.loop.config.setpoint,
            filter_cutoff_hz=self.loop.config.filter_cutoff_hz,
            out_min=self.loop.config.out_min,
            out_max=self.loop.config.out_max,
            integral_min=self.loop.config.integral_min,
            integral_max=self.loop.config.integral_max)
        self.control_config = control_config
        nominal = self.loop.nominal_output
        level0 = self.plant.flowsheet.read("lts_level_pct")
        ctrl_memory = control_config.initial_memory(level0, nominal)
        period = cfg.control_period_ticks
        self.sensor_program = compile_passthrough("lts_sensor_law")
        self.ctrl_program = control_config.compile("lts_ctrl_law")
        self.act_program = compile_passthrough("lts_act_law")
        self.vc.add_task(LogicalTask(
            name=TASK_SENSOR, program_name="lts_sensor_law",
            period_ticks=period, wcet_ticks=2 * MS, priority=5,
            memory_slots=16,
            required_capabilities=frozenset({"sensor:lts_level"}),
            replicas=1))
        self.vc.add_task(LogicalTask(
            name=TASK_CTRL, program_name="lts_ctrl_law",
            period_ticks=period, wcet_ticks=2 * MS, priority=5,
            memory_slots=16, initial_memory=ctrl_memory,
            required_capabilities=frozenset({"controller"}),
            replicas=2))
        self.vc.add_task(LogicalTask(
            name=TASK_ACT, program_name="lts_act_law",
            period_ticks=period, wcet_ticks=2 * MS, priority=5,
            memory_slots=16,
            required_capabilities=frozenset({"actuate:lts_valve"}),
            replicas=1))
        self.vc.assign(TASK_SENSOR, SENSOR)
        self.vc.assign(TASK_CTRL, CTRL_A, backups=[CTRL_B])
        self.vc.assign(TASK_ACT, ACTUATOR)
        # Object transfers: sensor -> controller -> actuator (Fig. 6(a)).
        self.vc.add_transfer(DirectionalTransfer(
            producer=TASK_SENSOR, consumer=TASK_CTRL,
            slots=((SLOT_OUTPUT, SLOT_INPUT),)))
        self.vc.add_transfer(DirectionalTransfer(
            producer=TASK_CTRL, consumer=TASK_ACT,
            slots=((SLOT_OUTPUT, SLOT_INPUT),)))
        # Health assessment: each controller watches the other (OS-1's
        # trigger-backup response).
        for monitor, subject in ((CTRL_B, CTRL_A), (CTRL_A, CTRL_B)):
            self.vc.add_transfer(HealthAssessment(
                monitor=monitor, subject=subject, task=TASK_CTRL,
                response=FaultResponse.TRIGGER_BACKUP,
                plausible_min=-1.0, plausible_max=101.0,
                max_deviation=cfg.max_deviation,
                threshold=cfg.detection_threshold,
                heartbeat_timeout_ticks=cfg.heartbeat_timeout_ticks))

    # ------------------------------------------------------------------
    # Kernels + runtimes
    # ------------------------------------------------------------------
    def _build_runtimes(self) -> None:
        from repro.rtos.kernel import NanoRK

        cfg = self.config
        self.kernels: dict[str, NanoRK] = {}
        self.runtimes: dict[str, EvmRuntime] = {}
        for node_id in NODE_IDS:
            kernel = NanoRK(self.engine, self.nodes[node_id],
                            trace=self.trace)
            kernel.attach_mac(self.macs[node_id])
            self.kernels[node_id] = kernel
            runtime = EvmRuntime(
                kernel, self.vc,
                capabilities=self.capabilities[node_id],
                trace=self.trace,
                failover_policy=FailoverPolicy(
                    demote_mode=ControllerMode.INDICATOR,
                    dormant_delay_ticks=cfg.dormant_delay_ticks),
                state_sharing=StateSharingPolicy(
                    mode=cfg.state_sharing_mode),
                arbitration_holdoff_ticks=cfg.arbitration_holdoff_ticks)
            self.runtimes[node_id] = runtime
        # The gateway fronts its MAC with the ModBus service; EVM frames
        # fall through to the runtime.
        self.gateway_service = ModbusGatewayService(
            self.engine, self.macs[GATEWAY], self.bridge.image)
        self.gateway_service.set_fallthrough(self.runtimes[GATEWAY].deliver)
        # Distribute code capsules and instantiate each node's share.
        capsules = [Capsule.from_program(p, version=1)
                    for p in (self.sensor_program, self.ctrl_program,
                              self.act_program)]
        for node_id in NODE_IDS:
            for capsule in capsules:
                self.runtimes[node_id].install_capsule(capsule)
        self._stagger_offsets()
        for node_id in NODE_IDS:
            self.runtimes[node_id].configure_from_vc(head_id=GATEWAY)

    def _stagger_offsets(self) -> None:
        """Phase task releases inside the frame: sense -> control -> act.

        Offsets scale with the control period (12 % and 24 %), keeping the
        sensing-to-actuation pipeline inside a third of the cycle at any
        rate.  Applied after hosting (in :meth:`_wire_io`) by restarting
        each kernel task's release chain at its offset.
        """
        period = self.config.control_period_ticks
        self._task_offsets = {TASK_SENSOR: 0,
                              TASK_CTRL: int(period * 0.12),
                              TASK_ACT: int(period * 0.24)}

    # ------------------------------------------------------------------
    # I/O wiring
    # ------------------------------------------------------------------
    def _wire_io(self) -> None:
        cfg = self.config
        noise_rng = self.rng.stream("sensor-noise")
        level_address = self.bridge.sensor_address("lts_level_pct")
        valve_address = self.bridge.actuator_address("lts_liquid_valve_pct")
        # Sensing-to-actuation latency instrumentation (claim C1).
        self.io_latencies: list[int] = []
        self._last_sample_time: int | None = None

        def read_level() -> float:
            self._last_sample_time = self.engine.now
            value = self.bridge.image.read(level_address)
            if cfg.sensor_noise_std > 0:
                value += noise_rng.gauss(0.0, cfg.sensor_noise_std)
            return value

        def write_valve(value: float) -> None:
            if self._last_sample_time is not None:
                self.io_latencies.append(
                    self.engine.now - self._last_sample_time)
            self.bridge.link.write_async(valve_address, value)

        sensor_rt = self.runtimes[SENSOR]
        sensor_rt.bind_input(TASK_SENSOR, SLOT_INPUT, read_level)
        act_rt = self.runtimes[ACTUATOR]
        act_rt.bind_output(TASK_ACT, SLOT_OUTPUT, write_valve)
        # Apply the release offsets by re-phasing the kernel tasks.
        for node_id, runtime in self.runtimes.items():
            for task_name, offset in self._task_offsets.items():
                if runtime.kernel.has_task(task_name) and offset > 0:
                    runtime.kernel.scheduler.rephase_release(task_name,
                                                             offset)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.sync.start()
        for mac in self.macs.values():
            mac.start()
        self.bridge.start()

    def run_for_seconds(self, seconds: float) -> None:
        self.start()
        self.engine.run_until(self.engine.now + int(seconds * SEC))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def active_controller(self) -> str:
        """The actuator's current view of who commands the valve."""
        return self.runtimes[ACTUATOR].task_primaries[TASK_CTRL][0]

    def commanded_setpoint(self) -> float:
        """The setpoint the active controller is regulating to right now
        (parametric retunes move it mid-run; control-quality metrics must
        score against the commanded value, not the pre-run default)."""
        instance = self.runtimes[self.active_controller()] \
            .instances.get(TASK_CTRL)
        if instance is not None and len(instance.memory) > SLOT_SETPOINT:
            return instance.memory[SLOT_SETPOINT]
        return self.loop.config.setpoint

    def read(self, sensor: str) -> float:
        return self.plant.flowsheet.read(sensor)
