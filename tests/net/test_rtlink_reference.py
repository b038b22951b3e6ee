"""Reference property: RT-Link's callback slot engine against the generator
loop it replaced.

:class:`~repro.net.mac.rtlink.RtLinkMac` runs its slots as posted
callbacks that carry a generation token, and steps through its
:class:`~repro.net.mac.slotwheel.SlotWheel` by index between seeks.  The
reference below is the loop it replaced: the generator ``_run`` /
``_tx_slot`` pair driven by a :class:`~repro.sim.process.Process`, which
bisects the wheel for every slot.

The property builds the same small rig twice, once per MAC, and drives
both through the same script of sends (control and bulk), live
``assign``/``clear``, node ``fail``/``recover``, a MAC ``stop`` +
``start`` inside one wait, and a ``NanoRK`` ``crash``/``restart``.  Both
rigs must dispatch the same number of events (stale waits included), make
the same ``Battery.draw`` calls in the same order -- so ``charge_drawn``
matches with float ``==`` -- and end with equal slot counters,
:class:`~repro.net.mac.base.MacStats`, deliveries and
:class:`~repro.net.medium.MediumStats`.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.hardware.battery import Battery
from repro.hardware.node import FireFlyNode
from repro.hardware.radio import RadioState
from repro.hardware.timesync import AmTimeSync, TimeSyncSpec
from repro.net.mac.base import MacProtocol
from repro.net.mac.rtlink import RtLinkConfig, RtLinkMac, RtLinkSchedule
from repro.net.mac.slotwheel import SlotWheel
from repro.net.medium import Medium
from repro.net.packet import Packet
from repro.net.topology import full_mesh
from repro.rtos.kernel import NanoRK
from repro.sim.clock import MS, SEC
from repro.sim.engine import Engine
from repro.sim.process import Delay, Process


class _GeneratorRtLinkMac(RtLinkMac):
    """The generator slot loop ``RtLinkMac`` ran before its callback
    engine, on a :class:`Process`; verbatim but for its telemetry."""

    _process: Process | None = None

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.port.sleep()
        self._process = Process(self.engine, self._run(),
                                name=f"rtlink:{self.node_id}")

    def stop(self) -> None:
        MacProtocol.stop(self)
        if self._process is not None:
            self._process.kill()
            self._process = None

    def _calendar(self) -> SlotWheel:
        wheel = self._wheel
        if wheel is None or wheel.version != self.schedule.version:
            wheel = self._wheel = SlotWheel(self.node_id, self.schedule)
        return wheel

    def _run(self):
        cfg = self.config
        slot_ticks = cfg.slot_ticks
        guard_ticks = cfg.guard_ticks
        node = self.node
        clock = node.clock
        radio = node.radio
        port = self.port
        rx = RadioState.RX
        cursor = clock.local_time() // slot_ticks + 1
        while self.running:
            if node.failed:
                yield Delay(cfg.frame_ticks)
                cursor = clock.local_time() // slot_ticks + 1
                continue
            upcoming = self._calendar().next_interesting(cursor)
            if upcoming is None:
                yield Delay(cfg.frame_ticks)
                cursor += cfg.slots_per_frame
                continue
            abs_slot, kind = upcoming
            cursor = abs_slot + 1
            slot_start_local = abs_slot * slot_ticks
            wake_local = slot_start_local - guard_ticks
            local_now = clock.local_time()
            if wake_local > local_now:
                yield Delay(wake_local - local_now)
            if not self.running or node.failed:
                continue
            self.slots_woken += 1
            if kind == "tx":
                yield from self._tx_slot(slot_start_local)
                continue
            port.listen()
            remaining = (slot_start_local + slot_ticks + guard_ticks
                         - clock.local_time())
            if remaining > 0:
                yield Delay(remaining)
            if radio.state is rx:
                port.sleep()

    def _tx_slot(self, slot_start_local: int):
        cfg = self.config
        self.port.idle()
        gap = slot_start_local - self.node.clock.local_time()
        if gap > 0:
            yield Delay(gap)
        slot_end_local = slot_start_local + cfg.slot_ticks - cfg.guard_ticks
        transmitted = 0
        while self.has_pending and not self.node.failed:
            packet = self.peek()
            airtime = self.node.radio.airtime(packet.on_air_bytes)
            if self.node.clock.local_time() + airtime > slot_end_local:
                break
            self.dequeue()
            self.port.transmit(packet, after_state=RadioState.IDLE)
            self.stats.sent += 1
            transmitted += 1
            yield Delay(airtime)
        if transmitted:
            self.slots_transmitted += 1
        self.port.sleep()


class _RecordingBattery(Battery):
    """Logs every draw, tagged with its node, into one list per rig."""

    def __init__(self, engine: Engine, node_id: str, log: list) -> None:
        super().__init__(engine)
        self._node_id = node_id
        self._log = log

    def draw(self, current_a: float, duration_ticks: int) -> None:
        self._log.append((self._node_id, current_a, duration_ticks))
        super().draw(current_a, duration_ticks)


def _run_rig(mac_cls, spf, assignments, drifts, sync_misses, script,
             horizon):
    engine = Engine()
    node_ids = [f"n{i}" for i in range(len(drifts))]
    topology = full_mesh(node_ids, spacing_m=5.0)
    medium = Medium(engine, topology, rng=random.Random(7))
    sync = AmTimeSync(engine, random.Random(8),
                      TimeSyncSpec(miss_probability=sync_misses))
    schedule = RtLinkSchedule(RtLinkConfig(slots_per_frame=spf))
    for slot, transmitter, listeners in assignments:
        if schedule.transmitter(slot) is None:
            schedule.assign(slot, transmitter, listeners)
    draws: list = []
    delivered: list = []
    nodes, macs, kernels = [], [], []
    for node_id, drift in zip(node_ids, drifts):
        node = FireFlyNode(engine, node_id,
                           position=topology.position(node_id),
                           drift_ppm=drift, with_sensors=False)
        node.battery = node.radio.battery = _RecordingBattery(
            engine, node_id, draws)
        node.join_timesync(sync)
        mac = mac_cls(engine, node, medium.attach(node), schedule,
                      queue_capacity=8)
        mac.set_receive_handler(
            lambda p, n=node_id: delivered.append(
                (n, engine.now, p.src, p.kind)))
        kernel = NanoRK(engine, node)
        kernel.attach_mac(mac)
        nodes.append(node)
        macs.append(mac)
        kernels.append(kernel)
        mac.start()
    sync.start()

    def act(op, who, arg):
        node, mac, kernel = nodes[who], macs[who], kernels[who]
        if op == "send":
            dst, size, bulk = arg
            mac.send(Packet(src=node.node_id,
                            dst="*" if dst is None else node_ids[dst],
                            kind="bulk" if bulk else "ctl",
                            size_bytes=size, priority=int(bulk)))
        elif op == "toggle":
            slot, listeners = arg
            if schedule.transmitter(slot) is None:
                schedule.assign(slot, node.node_id,
                                {node_ids[i] for i in listeners})
            else:
                schedule.clear(slot)
        elif op == "fail":
            node.fail()
        elif op == "recover":
            node.recover()
        elif op == "bounce":
            mac.stop()
            mac.start()
        elif op == "crash":
            kernel.crash()
        elif op == "restart":
            kernel.restart()

    for at, op, who, arg in script:
        engine.post(at, act, op, who % len(nodes), arg)
    engine.run_until(horizon)
    return {
        "events": engine.dispatched_count,
        "draws": draws,
        "charge": [node.battery.charge_drawn for node in nodes],
        "radio": [node.radio.state for node in nodes],
        "slots": [(mac.slots_woken, mac.slots_transmitted) for mac in macs],
        "mac_stats": [mac.stats for mac in macs],
        "delivered": delivered,
        "medium": medium.stats,
    }


_OPS = ["send"] * 4 + ["toggle"] * 2 + ["fail", "recover", "bounce",
                                        "crash", "restart"]


@st.composite
def rigs(draw):
    n_nodes = draw(st.integers(min_value=2, max_value=4))
    spf = draw(st.integers(min_value=1, max_value=12))
    nodes = st.integers(min_value=0, max_value=n_nodes - 1)
    slots = st.integers(min_value=0, max_value=spf - 1)
    assignments = draw(st.lists(
        st.tuples(slots, st.sampled_from([f"n{i}" for i in range(n_nodes)]),
                  st.sets(st.sampled_from(
                      [f"n{i}" for i in range(n_nodes)]))),
        max_size=spf))
    # Small drifts keep slots aligned.  Tens of thousands of ppm, with
    # missed sync pulses, move a node's clock by whole slots between
    # pulses: wake-ups run late, back-to-back slots are serviced without
    # a wait, and a pulse can jump the clock past a slot's end.
    drifts = draw(st.lists(
        st.sampled_from([0.0, 10.0, -40.0])
        | st.integers(min_value=-30000, max_value=30000).map(float),
        min_size=n_nodes, max_size=n_nodes))
    sync_misses = draw(st.sampled_from([0.0, 0.3]))
    horizon = draw(st.integers(min_value=SEC // 2, max_value=3 * SEC))
    times = st.integers(min_value=0, max_value=horizon)
    script = []
    for op in draw(st.lists(st.sampled_from(_OPS), max_size=30)):
        if op == "send":
            arg = (draw(st.none() | nodes),
                   draw(st.integers(min_value=4, max_value=100)),
                   draw(st.booleans()))
        elif op == "toggle":
            arg = (draw(slots), draw(st.lists(nodes, max_size=n_nodes)))
        else:
            arg = None
        script.append((draw(times), op, draw(nodes), arg))
    return spf, assignments, drifts, sync_misses, script, horizon


def _assert_same(rig):
    want = _run_rig(_GeneratorRtLinkMac, *rig)
    got = _run_rig(RtLinkMac, *rig)
    assert got["events"] == want["events"]
    assert got["draws"] == want["draws"]
    assert got["charge"] == want["charge"]
    for key in ("radio", "slots", "mac_stats", "delivered", "medium"):
        assert got[key] == want[key], key
    return got


@settings(max_examples=100, deadline=None)
@given(rig=rigs())
def test_callback_engine_matches_generator_loop(rig):
    _assert_same(rig)


def test_fixed_script_reaches_the_rare_branches():
    """A hand-written rig for branches random scripts reach rarely, checked
    to do real work (a rig that does nothing compares equal too):

    - n0 (no drift) queues two control frames that fill its TX slot to the
      tick, ahead of a bulk frame that no longer fits;
    - n3 idles on an empty wheel, its clock a few ticks behind, until it
      takes slot 0: its seek must start from the slot after the idle
      frames, not from its clock;
    - n2's clock falls 12 ms (over two slots) behind by the first sync
      pulse, which then jumps it past whole slots.
    """
    spf = 5
    assignments = [(1, "n0", {"n1", "n2"}), (2, "n1", {"n0", "n2"}),
                   (3, "n2", {"n0", "n1"})]
    drifts = [0.0, -40.0, -12000.0, -40.0]
    script = [(3 * MS, "send", 0, (1, 58, False)),
              (3 * MS, "send", 0, (1, 58, False))]
    script += [(k * 7 * MS, "send", k % 4,
                (None if k % 2 else (k + 1) % 4, 24 + 10 * (k % 6),
                 k % 4 == 0))
               for k in range(80)]
    script += [(130 * MS, "toggle", 3, (0, [1, 2])),
               (260 * MS, "bounce", 1, None),
               (300 * MS, "fail", 2, None),
               (520 * MS, "recover", 2, None),
               (640 * MS, "crash", 0, None),
               (900 * MS, "restart", 0, None),
               (1100 * MS, "toggle", 0, (3, []))]
    got = _assert_same((spf, assignments, drifts, 0.0, script, 2 * SEC))
    assert all(woken > 0 and sent > 0 for woken, sent in got["slots"])
    assert got["medium"].frames_delivered > 0
    assert any(kind == "bulk" for *_, kind in got["delivered"])
