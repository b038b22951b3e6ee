"""Wide-grid scale-out experiments: 100-256 node random geometric meshes.

The paper demonstrates EVM failover on a six-node testbed; the ROADMAP's
scale-out direction asks whether the same machinery holds up on grids two
orders of magnitude wider.  This driver reproduces the repo's headline
experiment shapes on :func:`repro.net.topology.random_geometric` layouts:

- :func:`run_widegrid_trial` -- a **fig6-style failover trial**: a Virtual
  Component control cluster (sensor -> primary/backup controller ->
  actuator) placed in the densest neighborhood of the mesh, every node
  running RT-Link over implicit-tree routing toward the cluster head, the
  rest of the grid generating report traffic that funnels to the head.
  Optionally crashes the primary controller mid-run (``NodeCrash``
  semantics: kernel halted, radio off) and records the
  detection/failover timeline alongside network-health counters.
- :func:`run_widegrid_placement` -- a **fig1-style placement study**: a
  capability-annotated wide grid, BQP task assignment versus the greedy
  baseline, reporting both costs (the degradation claim at scale).
- :func:`run_widegrid_mac_lifetime` -- the **MAC lifetime study** on a
  wide mesh: reporters over tree routing on RT-Link / B-MAC / S-MAC,
  projecting battery lifetime from measured average current.

All trials are deterministic in their config (every stochastic draw comes
from the config seed), so they golden-digest cleanly and campaign records
reproduce bit-identically.  :func:`run_widegrid_campaign` fans a mixed
list of trial specs across the scenario subsystem's
:class:`~repro.scenarios.runner.CampaignRunner` worker pool.
"""

from __future__ import annotations

import dataclasses
import gc
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.control.compiler import SLOT_INPUT, SLOT_OUTPUT, compile_passthrough
from repro.evm.capsule import Capsule
from repro.evm.failover import FailoverPolicy
from repro.evm.object_transfer import (
    DirectionalTransfer,
    FaultResponse,
    HealthAssessment,
)
from repro.evm.optimizer import (
    AssignmentProblem,
    bqp_assign,
    greedy_assign,
)
from repro.evm.runtime import EvmRuntime
from repro.evm.tasks import LogicalTask
from repro.evm.virtual_component import VcMember, VirtualComponent
from repro.experiments.metrics import project_node_energy
from repro.hardware.node import FireFlyNode
from repro.hardware.timesync import AmTimeSync, TimeSyncSpec
from repro.net.mac.bmac import BMac, BMacConfig
from repro.net.mac.rtlink import RtLinkConfig, RtLinkMac, RtLinkSchedule
from repro.net.mac.smac import SMac, SMacConfig
from repro.net.medium import Medium
from repro.net.packet import Packet
from repro.net.routing import RoutedMacAdapter, build_tree_tables
from repro.net.topology import Topology, random_geometric_connected
from repro.rtos.kernel import NanoRK
from repro.sim.clock import MS, SEC
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.trace import Trace

TASK_SENSOR = "grid_sensor"
TASK_CTRL = "grid_ctrl"
TASK_ACT = "grid_act"

SENSOR_VALUE = 21.0
CTRL_GAIN = 2.0

REPORT_BYTES = 24

MIN_NODES = 5
"""The role cluster needs head + sensor + two controllers + actuator."""

FLOOD_SUPPRESS_AUTO_NODES = 512
"""Flood suppression switches on automatically at this grid size.

Below it (every golden workload runs at 256 nodes or fewer) trials keep
the classic relay-at-once flood, bit for bit; at and above it the
broadcast storm dominates the trial's wall clock and counter-based
suppression is the default."""


@dataclass
class WideGridConfig:
    """One wide-grid trial, fully determined (picklable, JSON-able)."""

    n_nodes: int = 100
    area_m: float = 150.0
    radio_range_m: float = 25.0
    seed: int = 1
    duration_sec: float = 30.0
    report_period_sec: float = 10.0
    slot_ticks: int = 5 * MS
    # 0 = derived: two TDMA frames, floored at 1 s.
    control_period_ticks: int = 0
    # 0 = derived: five control periods.
    heartbeat_timeout_ticks: int = 0
    detection_threshold: int = 3
    flood_ttl: int = 3
    queue_capacity: int = 32
    # None = auto: suppression on (threshold 2) at
    # FLOOD_SUPPRESS_AUTO_NODES nodes and wider, off below; 0 = force
    # off; N > 0 = force on with that duplicate threshold.
    flood_suppress_threshold: int | None = None
    # 0 = derived: one TDMA frame (every earlier-slotted neighbor has
    # had its chance to relay by then).
    flood_suppress_delay_ticks: int = 0
    # None = no fault; otherwise the primary controller's kernel crashes.
    crash_primary_at_sec: float | None = None
    recover_at_sec: float | None = None

    def __post_init__(self) -> None:
        if self.n_nodes < MIN_NODES:
            raise ValueError(
                f"wide-grid trials need at least {MIN_NODES} nodes "
                f"(the role cluster), got {self.n_nodes}")

    def frame_ticks(self) -> int:
        return self.n_nodes * self.slot_ticks

    def control_period(self) -> int:
        if self.control_period_ticks:
            return self.control_period_ticks
        return max(SEC, 2 * self.frame_ticks())

    def heartbeat_timeout(self) -> int:
        if self.heartbeat_timeout_ticks:
            return self.heartbeat_timeout_ticks
        return 5 * self.control_period()

    def flood_suppression(self) -> tuple[int, int]:
        """Resolved ``(threshold, delay_ticks)`` for the relay layer."""
        threshold = self.flood_suppress_threshold
        if threshold is None:
            threshold = (2 if self.n_nodes >= FLOOD_SUPPRESS_AUTO_NODES
                         else 0)
        delay = self.flood_suppress_delay_ticks or self.frame_ticks()
        return threshold, delay


@dataclass
class WideGridResult:
    """Deterministic outcome of one fig6-style wide-grid trial."""

    n_nodes: int
    n_links: int
    effective_range_m: float
    mean_degree: float
    roles: dict[str, str] = field(default_factory=dict)
    # Report plane (the mesh under load)
    reports_sent: int = 0
    reports_delivered: int = 0
    delivery_ratio: float = 0.0
    mean_report_latency_ms: float = 0.0
    # Medium health
    frames_sent: int = 0
    frames_delivered: int = 0
    collisions: int = 0
    channel_losses: int = 0
    # Control plane (fig6-style)
    act_input: float = 0.0
    ctrl_jobs_run: int = 0
    crashes: int = 0
    failovers_executed: int = 0
    detection_time_sec: float | None = None
    failover_time_sec: float | None = None
    active_controller_final: str = ""
    # Energy projection over the non-role membership
    mean_member_current_ma: float = 0.0
    mean_member_lifetime_years: float = 0.0


def _role_nodes(topology: Topology) -> dict[str, str]:
    """Place the control cluster in the densest neighborhood.

    The head is the highest-degree node (ties broken by id, so the choice
    is deterministic); sensor, both controllers and the actuator are its
    nearest neighbors.  Wide grids keep the *control* traffic local --
    the paper's VC spans a neighborhood -- while report traffic exercises
    the whole mesh.
    """
    ids = sorted(topology.node_ids)
    head = min(ids, key=lambda n: (-len(topology.neighbors(n)), n))
    neighbors = sorted(topology.neighbors(head),
                       key=lambda n: (topology.distance(head, n), n))
    if len(neighbors) < 4:
        # Sparse fallback: recruit nearest non-neighbors as well.
        rest = sorted((n for n in ids if n != head and n not in neighbors),
                      key=lambda n: (topology.distance(head, n), n))
        neighbors = neighbors + rest
    ctrl_a, ctrl_b, sensor, act = neighbors[:4]
    return {"head": head, "ctrl_a": ctrl_a, "ctrl_b": ctrl_b,
            "sensor": sensor, "act": act}


class WideGridRig:
    """Builds and owns the full wide-grid stack for one trial.

    Exposes ``engine``/``trace``/``nodes``/``kernels``/``medium`` with the
    same shapes the scenario fault primitives expect, so ``NodeCrash`` /
    ``NodeRecover`` / ``BatteryDrain`` apply unchanged.
    """

    def __init__(self, config: WideGridConfig) -> None:
        self.config = config
        self.engine = Engine()
        self.trace = Trace()
        self.rng = RngRegistry(config.seed)
        self.topology, self.effective_range_m = random_geometric_connected(
            config.n_nodes, config.area_m, config.radio_range_m,
            self.rng.stream("topology"))
        self.roles = _role_nodes(self.topology)
        self.head = self.roles["head"]
        self._build_network()
        self._build_vc()
        self._build_runtimes()
        self._wire_reports()
        self._arm_faults()
        self._started = False

    # ------------------------------------------------------------------
    def _build_network(self) -> None:
        cfg = self.config
        self.medium = Medium(self.engine, self.topology,
                             rng=self.rng.stream("medium"))
        self.sync = AmTimeSync(self.engine, self.rng.stream("timesync"),
                               TimeSyncSpec())
        self.mac_config = RtLinkConfig(slots_per_frame=cfg.n_nodes,
                                       slot_ticks=cfg.slot_ticks)
        node_ids = sorted(self.topology.node_ids)
        listeners = {nid: set(self.topology.neighbors(nid))
                     for nid in node_ids}
        self.schedule = RtLinkSchedule.round_robin(
            self.mac_config, node_ids, listeners_of=listeners)
        tables = build_tree_tables(self.topology, self.head)
        suppress_threshold, suppress_delay = cfg.flood_suppression()
        self.nodes: dict[str, FireFlyNode] = {}
        self.macs: dict[str, RoutedMacAdapter] = {}
        for node_id in node_ids:
            # No ``node:<id>`` stream: these nodes have no sensors, and
            # RT-Link never draws from ``node.rng``.
            node = FireFlyNode(self.engine, node_id,
                               position=self.topology.position(node_id),
                               with_sensors=False)
            node.join_timesync(self.sync)
            mac = RtLinkMac(self.engine, node, self.medium.attach(node),
                            self.schedule,
                            queue_capacity=cfg.queue_capacity)
            adapter = RoutedMacAdapter(
                mac, tables.get(node_id, {}), flood_ttl=cfg.flood_ttl,
                suppress_threshold=suppress_threshold,
                suppress_delay_ticks=suppress_delay)
            self.nodes[node_id] = node
            self.macs[node_id] = adapter

    # ------------------------------------------------------------------
    def _build_vc(self) -> None:
        cfg = self.config
        self.vc = VirtualComponent("widegrid-vc")
        self.capabilities = {
            self.roles["head"]: frozenset({"head"}),
            self.roles["sensor"]: frozenset({"sensor:grid"}),
            self.roles["ctrl_a"]: frozenset({"controller"}),
            self.roles["ctrl_b"]: frozenset({"controller"}),
            self.roles["act"]: frozenset({"actuate:grid"}),
        }
        for node_id, caps in self.capabilities.items():
            self.vc.admit(VcMember(node_id, caps, cpu_capacity=0.7))
        period = cfg.control_period()
        self.vc.add_task(LogicalTask(
            name=TASK_SENSOR, program_name="grid_sensor_law",
            period_ticks=period, wcet_ticks=2 * MS, priority=5,
            memory_slots=16,
            required_capabilities=frozenset({"sensor:grid"})))
        self.vc.add_task(LogicalTask(
            name=TASK_CTRL, program_name="grid_ctrl_law",
            period_ticks=period, wcet_ticks=2 * MS, priority=5,
            memory_slots=16,
            required_capabilities=frozenset({"controller"}), replicas=2))
        self.vc.add_task(LogicalTask(
            name=TASK_ACT, program_name="grid_act_law",
            period_ticks=period, wcet_ticks=2 * MS, priority=5,
            memory_slots=16,
            required_capabilities=frozenset({"actuate:grid"})))
        self.vc.assign(TASK_SENSOR, self.roles["sensor"])
        self.vc.assign(TASK_CTRL, self.roles["ctrl_a"],
                       backups=[self.roles["ctrl_b"]])
        self.vc.assign(TASK_ACT, self.roles["act"])
        self.vc.add_transfer(DirectionalTransfer(
            producer=TASK_SENSOR, consumer=TASK_CTRL,
            slots=((SLOT_OUTPUT, SLOT_INPUT),)))
        self.vc.add_transfer(DirectionalTransfer(
            producer=TASK_CTRL, consumer=TASK_ACT,
            slots=((SLOT_OUTPUT, SLOT_INPUT),)))
        for monitor, subject in ((self.roles["ctrl_b"], self.roles["ctrl_a"]),
                                 (self.roles["ctrl_a"], self.roles["ctrl_b"])):
            self.vc.add_transfer(HealthAssessment(
                monitor=monitor, subject=subject, task=TASK_CTRL,
                response=FaultResponse.TRIGGER_BACKUP,
                plausible_min=-1000.0, plausible_max=1000.0,
                max_deviation=1.0, threshold=cfg.detection_threshold,
                heartbeat_timeout_ticks=cfg.heartbeat_timeout()))

    # ------------------------------------------------------------------
    def _build_runtimes(self) -> None:
        programs = [compile_passthrough("grid_sensor_law", gain=1.0),
                    compile_passthrough("grid_ctrl_law", gain=CTRL_GAIN),
                    compile_passthrough("grid_act_law", gain=1.0)]
        self.kernels: dict[str, NanoRK] = {}
        self.runtimes: dict[str, EvmRuntime] = {}
        for node_id in sorted(self.topology.node_ids):
            kernel = NanoRK(self.engine, self.nodes[node_id],
                            trace=self.trace)
            kernel.attach_mac(self.macs[node_id])
            self.kernels[node_id] = kernel
            if node_id not in self.capabilities:
                continue  # reporters carry no EVM runtime
            runtime = EvmRuntime(
                kernel, self.vc,
                capabilities=self.capabilities[node_id], trace=self.trace,
                failover_policy=FailoverPolicy(dormant_delay_ticks=60 * SEC))
            for program in programs:
                runtime.install_capsule(Capsule.from_program(program, 1))
            runtime.configure_from_vc(head_id=self.head)
            self.runtimes[node_id] = runtime
        self.runtimes[self.roles["sensor"]].bind_input(
            TASK_SENSOR, SLOT_INPUT, lambda: SENSOR_VALUE)

    # ------------------------------------------------------------------
    def _wire_reports(self) -> None:
        cfg = self.config
        self.reports_sent = 0
        self.report_latencies: list[int] = []
        head_runtime = self.runtimes[self.head]

        def collect(packet: Packet) -> None:
            if packet.kind == "report":
                self.report_latencies.append(
                    self.engine.now - packet.created_at)
                return
            head_runtime.deliver(packet)

        self.macs[self.head].set_receive_handler(collect)

        period_ticks = int(cfg.report_period_sec * SEC)
        role_ids = set(self.roles.values())
        self.reporters = [n for n in sorted(self.topology.node_ids)
                          if n not in role_ids]
        for node_id in self.reporters:
            jitter = self.rng.stream(f"traffic:{node_id}")
            self._arm_reporter(node_id, period_ticks, jitter)

    def _arm_reporter(self, node_id: str, period_ticks: int, jitter) -> None:
        def send() -> None:
            if self.engine.now >= int(self.config.duration_sec * SEC):
                return
            if not self.kernels[node_id].crashed:
                packet = Packet(src=node_id, dst=self.head, kind="report",
                                size_bytes=REPORT_BYTES,
                                created_at=self.engine.now)
                if self.macs[node_id].send(packet):
                    self.reports_sent += 1
            self.engine.post(period_ticks + jitter.randrange(0, 50 * MS),
                             send)

        self.engine.post(jitter.randrange(0, period_ticks), send)

    # ------------------------------------------------------------------
    def _arm_faults(self) -> None:
        cfg = self.config
        if cfg.crash_primary_at_sec is not None:
            self.engine.post(int(cfg.crash_primary_at_sec * SEC),
                             self.kernels[self.roles["ctrl_a"]].crash)
        if cfg.recover_at_sec is not None:
            self.engine.post(int(cfg.recover_at_sec * SEC),
                             self.kernels[self.roles["ctrl_a"]].restart)

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.sync.start()
        for adapter in self.macs.values():
            adapter.mac.start()

    def run_for_seconds(self, seconds: float) -> None:
        self.start()
        self.engine.run_until(self.engine.now + int(seconds * SEC))

    def active_controller(self) -> str:
        return self.runtimes[self.roles["act"]].task_primaries[TASK_CTRL][0]

    # ------------------------------------------------------------------
    def collect(self) -> WideGridResult:
        topo = self.topology
        n = len(topo.node_ids)
        links = topo.n_links()
        result = WideGridResult(
            n_nodes=n, n_links=links,
            effective_range_m=self.effective_range_m,
            mean_degree=round(2.0 * links / n, 3) if n else 0.0,
            roles=dict(self.roles))
        result.reports_sent = self.reports_sent
        result.reports_delivered = len(self.report_latencies)
        result.delivery_ratio = (result.reports_delivered
                                 / max(1, result.reports_sent))
        result.mean_report_latency_ms = (
            sum(self.report_latencies) / len(self.report_latencies) / MS
            if self.report_latencies else 0.0)
        stats = self.medium.stats
        result.frames_sent = stats.frames_sent
        result.frames_delivered = stats.frames_delivered
        result.collisions = stats.collisions
        result.channel_losses = stats.channel_losses
        act_rt = self.runtimes[self.roles["act"]]
        result.act_input = act_rt.instances[TASK_ACT].memory[SLOT_INPUT]
        result.ctrl_jobs_run = sum(
            rt.instances[TASK_CTRL].jobs_run
            for nid, rt in self.runtimes.items()
            if TASK_CTRL in rt.instances)
        result.crashes = self.trace.count("rtos.crash")
        result.failovers_executed = sum(rt.stats.failovers_executed
                                        for rt in self.runtimes.values())

        def first_sec(category: str) -> float | None:
            matches = [e for e in self.trace.events(category)
                       if e.category == category]
            return matches[0].time / SEC if matches else None

        result.detection_time_sec = first_sec("evm.fault_detected")
        result.failover_time_sec = first_sec("evm.failover")
        result.active_controller_final = self.active_controller()
        currents, lifetimes = [], []
        for node_id in self.reporters:
            current_ma, lifetime, _ = project_node_energy(
                self.nodes[node_id], self.engine.now)
            currents.append(current_ma)
            lifetimes.append(lifetime)
        if currents:
            result.mean_member_current_ma = sum(currents) / len(currents)
            result.mean_member_lifetime_years = (sum(lifetimes)
                                                 / len(lifetimes))
        return result


def run_widegrid_trial(config: WideGridConfig | None = None,
                       ) -> WideGridResult:
    """Build a wide-grid rig, run it to its horizon, collect metrics."""
    config = config or WideGridConfig()
    rig = WideGridRig(config)
    rig.run_for_seconds(config.duration_sec)
    result = rig.collect()
    # The rig is one reference cycle (queued callbacks hold the engine),
    # so reference counting never frees it: collect it now, not while
    # the caller builds the next one.
    del rig
    gc.collect()
    return result


# ----------------------------------------------------------------------
# Fig1-style placement at scale
# ----------------------------------------------------------------------
@dataclass
class WideGridPlacementResult:
    """BQP versus greedy assignment over one wide grid."""

    n_nodes: int
    n_tasks: int
    bqp_cost: float
    greedy_cost: float
    degradation_pct: float
    placement: dict[str, str] = field(default_factory=dict)


def run_widegrid_placement(n_nodes: int = 100, seed: int = 3,
                           area_m: float = 150.0,
                           radio_range_m: float = 25.0,
                           ) -> WideGridPlacementResult:
    """Fig. 1's three-VC composition problem scaled onto a wide grid.

    Capabilities rotate across the membership the way fig1 annotates its
    9-node grid; the solvers see hundreds of feasible hosts per task.
    """
    registry = RngRegistry(seed)
    topology, _ = random_geometric_connected(
        n_nodes, area_m, radio_range_m, registry.stream("topology"))
    rng = registry.stream("problem")
    node_ids = sorted(topology.node_ids)
    capabilities = {}
    for i, node_id in enumerate(node_ids):
        caps = {"controller"}
        if i % 3 == 0:
            caps.add("sensor:temp")
        if i % 3 == 1:
            caps.add("sensor:flow")
        if i % 2 == 0:
            caps.add("actuate:valve")
        capabilities[node_id] = frozenset(caps)
    # Hop distances from each task anchor via single-source BFS (the
    # all-pairs path table fig1 builds would be quadratic in a 256-node grid).
    hops: dict[tuple[str, str], int] = {}
    for a in node_ids:
        for b, d in topology.hop_counts(a).items():
            if a < b:
                hops[(a, b)] = d
    members = [VcMember(node_id, capabilities[node_id], cpu_capacity=0.5)
               for node_id in node_ids]
    specs = [
        ("pid_a", frozenset({"controller"})),
        ("pid_b", frozenset({"controller"})),
        ("flow_sense", frozenset({"sensor:flow"})),
        ("temp_sense", frozenset({"sensor:temp"})),
        ("valve_drive", frozenset({"actuate:valve"})),
        ("aggregator", frozenset({"controller"})),
    ]
    tasks = [LogicalTask(name=name, program_name="law",
                         period_ticks=250 * MS,
                         wcet_ticks=(5 + rng.randrange(10)) * MS,
                         required_capabilities=caps)
             for name, caps in specs]
    traffic = {}
    for i, a in enumerate(tasks):
        for b in tasks[i + 1:]:
            traffic[(a.name, b.name)] = 1.0 + rng.random() * 3.0
    problem = AssignmentProblem(tasks=tasks, nodes=members,
                                traffic=traffic, hops=hops)
    bqp = bqp_assign(problem)
    greedy = greedy_assign(problem)
    degradation = ((greedy.cost - bqp.cost) / bqp.cost * 100.0
                   if bqp.cost > 0 else 0.0)
    return WideGridPlacementResult(
        n_nodes=n_nodes, n_tasks=len(tasks),
        bqp_cost=round(bqp.cost, 6), greedy_cost=round(greedy.cost, 6),
        degradation_pct=round(degradation, 3),
        placement=dict(sorted(bqp.placement.items())))


# ----------------------------------------------------------------------
# MAC lifetime study at scale
# ----------------------------------------------------------------------
@dataclass
class WideGridMacResult:
    """Lifetime/delivery outcome of one (protocol, grid) trial."""

    protocol: str
    n_nodes: int
    reports_sent: int
    reports_delivered: int
    delivery_ratio: float
    mean_latency_ms: float
    avg_current_ma: float
    lifetime_years: float
    radio_duty_pct: float
    collisions: int


def run_widegrid_mac_lifetime(protocol: str,
                              config: WideGridConfig | None = None,
                              ) -> WideGridMacResult:
    """Reporters over tree routing on one MAC; lifetime projected from
    measured average current (the paper's C2 claim, on a wide mesh)."""
    result = _mac_lifetime_trial(protocol, config or WideGridConfig())
    # The finished trial is one reference cycle (queued callbacks hold
    # the engine), so reference counting never frees it: collect it now
    # that its frame is gone, not while the caller builds the next one.
    gc.collect()
    return result


def _mac_lifetime_trial(protocol: str,
                        cfg: WideGridConfig) -> WideGridMacResult:
    engine = Engine()
    rng = RngRegistry(cfg.seed)
    topology, _ = random_geometric_connected(
        cfg.n_nodes, cfg.area_m, cfg.radio_range_m, rng.stream("topology"))
    node_ids = sorted(topology.node_ids)
    sink = min(node_ids, key=lambda n: (-len(topology.neighbors(n)), n))
    medium = Medium(engine, topology, rng=rng.stream("medium"))
    sync = AmTimeSync(engine, rng.stream("timesync"), TimeSyncSpec())
    nodes: dict[str, FireFlyNode] = {}
    for node_id in node_ids:
        node = FireFlyNode(engine, node_id,
                           position=topology.position(node_id),
                           rng=rng.stream(f"node:{node_id}"),
                           with_sensors=False)
        node.join_timesync(sync)
        nodes[node_id] = node
    neighbors = {nid: set(topology.neighbors(nid)) for nid in node_ids}
    if protocol == "rtlink":
        mac_config = RtLinkConfig(slots_per_frame=cfg.n_nodes,
                                  slot_ticks=cfg.slot_ticks)
        schedule = RtLinkSchedule.round_robin(mac_config, node_ids,
                                              listeners_of=neighbors)
        macs = {nid: RtLinkMac(engine, nodes[nid], medium.attach(nodes[nid]),
                               schedule, queue_capacity=cfg.queue_capacity)
                for nid in node_ids}
    elif protocol == "bmac":
        bconfig = BMacConfig(check_interval_ticks=50 * MS)
        macs = {nid: BMac(engine, nodes[nid], medium.attach(nodes[nid]),
                          bconfig) for nid in node_ids}
    elif protocol == "smac":
        sconfig = SMacConfig(frame_ticks=1000 * MS, listen_ticks=100 * MS)
        macs = {nid: SMac(engine, nodes[nid], medium.attach(nodes[nid]),
                          sconfig) for nid in node_ids}
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    tables = build_tree_tables(topology, sink)
    adapters = {nid: RoutedMacAdapter(macs[nid], tables.get(nid, {}),
                                      flood_ttl=cfg.flood_ttl)
                for nid in node_ids}
    latencies: list[int] = []
    adapters[sink].set_receive_handler(
        lambda packet: latencies.append(engine.now - packet.created_at))
    sent = [0]
    period_ticks = int(cfg.report_period_sec * SEC)
    for node_id in node_ids:
        if node_id == sink:
            continue
        jitter = rng.stream(f"traffic:{node_id}")

        def send(node_id=node_id, jitter=jitter) -> None:
            if engine.now >= int(cfg.duration_sec * SEC):
                return
            packet = Packet(src=node_id, dst=sink, kind="report",
                            size_bytes=REPORT_BYTES, created_at=engine.now)
            if adapters[node_id].send(packet):
                sent[0] += 1
            engine.post(period_ticks + jitter.randrange(0, 50 * MS), send)

        engine.post(jitter.randrange(0, period_ticks), send)
    sync.start()
    for mac in macs.values():
        mac.start()
    engine.run_until(int(cfg.duration_sec * SEC))
    currents, lifetimes, duties = [], [], []
    for node_id in node_ids:
        if node_id == sink:
            continue
        current_ma, lifetime, duty = project_node_energy(
            nodes[node_id], engine.now)
        currents.append(current_ma)
        lifetimes.append(lifetime)
        duties.append(duty)
    delivered = len(latencies)
    return WideGridMacResult(
        protocol=protocol, n_nodes=cfg.n_nodes,
        reports_sent=sent[0], reports_delivered=delivered,
        delivery_ratio=delivered / max(1, sent[0]),
        mean_latency_ms=(sum(latencies) / delivered / MS
                         if delivered else 0.0),
        avg_current_ma=sum(currents) / len(currents),
        lifetime_years=sum(lifetimes) / len(lifetimes),
        radio_duty_pct=sum(duties) / len(duties),
        collisions=medium.stats.collisions)


# ----------------------------------------------------------------------
# Campaign fan-out
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WideGridTrialSpec:
    """One campaign cell: which driver to run with which config."""

    kind: str  # "failover" | "placement" | "mac"
    config: WideGridConfig
    protocol: str = "rtlink"

    def label(self) -> str:
        tail = f"-{self.protocol}" if self.kind == "mac" else ""
        return (f"widegrid-{self.kind}{tail}"
                f"-n{self.config.n_nodes}-s{self.config.seed}")


def run_widegrid_spec(spec: WideGridTrialSpec) -> dict[str, Any]:
    """Worker entry point: one spec -> one JSON-ready record."""
    if spec.kind == "failover":
        outcome = run_widegrid_trial(spec.config)
    elif spec.kind == "placement":
        outcome = run_widegrid_placement(
            n_nodes=spec.config.n_nodes, seed=spec.config.seed,
            area_m=spec.config.area_m,
            radio_range_m=spec.config.radio_range_m)
    elif spec.kind == "mac":
        outcome = run_widegrid_mac_lifetime(spec.protocol, spec.config)
    else:
        raise ValueError(f"unknown trial kind {spec.kind!r}")
    return {"trial": spec.label(), "kind": spec.kind,
            "config": dataclasses.asdict(spec.config),
            "result": dataclasses.asdict(outcome)}


def run_widegrid_campaign(specs: Sequence[WideGridTrialSpec],
                          runner=None) -> list[dict[str, Any]]:
    """Fan a mixed wide-grid campaign across a campaign runner's pool.

    ``runner`` is anything with the ``map_jobs(fn, jobs)`` contract --
    the local :class:`~repro.scenarios.runner.CampaignRunner` (a fresh
    serial one is built when omitted) or a
    :class:`~repro.dist.runner.DistributedCampaignRunner` pointed at a
    coordinator, since the specs are plain picklable values.  Records
    come back in spec order, so campaign output digests
    deterministically either way.
    """
    if runner is None:
        from repro.scenarios.runner import CampaignRunner

        runner = CampaignRunner(parallel=False)
    return runner.map_jobs(run_widegrid_spec, list(specs))


def default_campaign_specs(n_nodes: int = 24, seeds: Sequence[int] = (1, 2),
                           duration_sec: float = 12.0,
                           ) -> list[WideGridTrialSpec]:
    """The stock mixed campaign the CLI (and the smoke job) runs: one
    failover trial with a mid-run primary crash, one BQP placement
    study and one RT-Link lifetime study per seed."""
    specs: list[WideGridTrialSpec] = []
    for seed in seeds:
        base = WideGridConfig(n_nodes=n_nodes, seed=seed,
                              duration_sec=duration_sec)
        specs.append(WideGridTrialSpec(
            kind="failover",
            config=dataclasses.replace(
                base, crash_primary_at_sec=duration_sec / 3.0)))
        specs.append(WideGridTrialSpec(kind="placement", config=base))
        specs.append(WideGridTrialSpec(kind="mac", config=base,
                                       protocol="rtlink"))
    return specs


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.experiments.widegrid``: run the stock wide-grid
    campaign locally or, with ``--dist host:port``, through a
    distributed coordinator -- the specs themselves are identical."""
    import argparse
    import json

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--n-nodes", type=int, default=24)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--duration", type=float, default=12.0)
    parser.add_argument("--dist", default=None, metavar="HOST:PORT",
                        help="route the campaign through a repro.dist "
                             "coordinator instead of local processes")
    parser.add_argument("--workers", type=int, default=None,
                        help="local pool width (ignored with --dist)")
    parser.add_argument("--out", default=None,
                        help="write the records to this JSON file")
    args = parser.parse_args(argv)

    specs = default_campaign_specs(n_nodes=args.n_nodes, seeds=args.seeds,
                                   duration_sec=args.duration)
    if args.dist:
        from repro.dist.runner import DistributedCampaignRunner

        with DistributedCampaignRunner(args.dist) as runner:
            records = run_widegrid_campaign(specs, runner=runner)
    else:
        from repro.scenarios.runner import CampaignRunner

        with CampaignRunner(max_workers=args.workers,
                            parallel=args.workers != 0) as runner:
            records = run_widegrid_campaign(specs, runner=runner)
    for record in records:
        result = record["result"]
        headline = {k: result[k] for k in
                    ("delivery_ratio", "failovers_executed",
                     "degradation_pct", "lifetime_years")
                    if k in result}
        print(f"{record['trial']:<40} {headline}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(records, fh, indent=2, sort_keys=True)
        print(f"wrote {len(records)} records to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
