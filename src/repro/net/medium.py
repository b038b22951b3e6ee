"""The shared radio medium.

Single-channel 802.15.4 propagation with audibility from the topology graph,
per-frame survival from a pluggable link-quality model, and overlap-based
collision detection: a receiver that can hear two temporally overlapping
transmissions decodes neither.  Propagation delay is negligible at in-plant
ranges and is modeled as zero; reception completes at end-of-frame.

MAC protocols attach through a :class:`MediumPort`, which couples frame
transfer to the node's radio power state (frames are only heard in RX, and
transmitting drives the TX state for the full airtime).

A medium serves the topology it was built over: every index below is
derived from that topology once and never rebuilt, and a later structural
mutation (a ``Topology.version`` bump) makes the next transmission or
carrier sense raise instead of serving stale caches.

The hot paths are indexed rather than scanned:

- per-receiver **audible senders** are a view of the topology's own
  adjacency (no copy), and per-sender neighbor tuples are computed once
  from the topology;
- ``_active`` is a start-time-ordered deque pruned incrementally from the
  front (engine time is monotone, so appends arrive in order);
- a per-node ``busy_until`` horizon makes :meth:`MediumPort.channel_busy`
  a single dict lookup instead of a scan over all in-flight frames;
- end-of-frame resolution is **batched**: completion resolves all receivers
  in one pass over a prebuilt per-sender ``(port, node, distance, audible)``
  row list (invalidated by :meth:`Medium.attach`), with the temporal
  overlap window computed once per completion instead of once per
  receiver, and stats counters accumulated in locals and flushed once.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, KeysView

from repro.hardware.node import FireFlyNode
from repro.hardware.radio import RadioState
from repro.net.link_quality import LinkQualityModel, PerfectLinks
from repro.net.packet import Packet
from repro.net.topology import Topology
from repro.obs import instrument
from repro.sim.engine import Engine
from repro.sim.trace import Trace


# Module-level aliases for the per-slot radio transitions: a member read
# through the enum class goes through EnumType.__getattr__.
_RX, _OFF, _IDLE = RadioState.RX, RadioState.OFF, RadioState.IDLE


@dataclass(slots=True)
class _Transmission:
    """One in-flight frame."""

    sender: str
    packet: Packet
    start: int
    end: int


@dataclass
class MediumStats:
    """Counters the MAC-comparison benchmarks read."""

    frames_sent: int = 0
    frames_delivered: int = 0
    collisions: int = 0
    channel_losses: int = 0
    missed_radio_off: int = 0


class MediumPort:
    """A node's attachment point to the medium."""

    def __init__(self, medium: "Medium", node: FireFlyNode) -> None:
        self.medium = medium
        self.node = node
        self.receive_callback: Callable[[Packet], None] | None = None

    def set_receive_callback(self, fn: Callable[[Packet], None]) -> None:
        self.receive_callback = fn

    def transmit(self, packet: Packet,
                 after_state: RadioState = RadioState.IDLE) -> int:
        """Send ``packet``; returns the airtime in ticks.

        The radio is driven to TX for the whole airtime, then to
        ``after_state``.  Delivery outcomes resolve at end-of-frame.
        """
        return self.medium._transmit(self.node, packet, after_state)

    def channel_busy(self) -> bool:
        """Carrier sense: is any audible transmission in flight right now?"""
        return self.medium._channel_busy(self.node.node_id)

    def listen(self) -> None:
        self.node.radio.set_state(_RX)

    def sleep(self) -> None:
        self.node.radio.set_state(_OFF)

    def idle(self) -> None:
        self.node.radio.set_state(_IDLE)


class Medium:
    """Owns all ports, in-flight transmissions and delivery resolution."""

    def __init__(self, engine: Engine, topology: Topology,
                 link_model: LinkQualityModel | None = None,
                 rng: random.Random | None = None,
                 trace: Trace | None = None) -> None:
        self.engine = engine
        self.topology = topology
        self.link_model = link_model or PerfectLinks()
        self.rng = rng or random.Random(0)
        self.trace = trace  # property: also maintains trace_enabled
        self.stats = MediumStats()
        # Telemetry piggybacks on the existing per-completion batch
        # flush; one None-check per frame send/complete when disabled.
        self._obs = instrument.medium_meters()
        self._ports: dict[str, MediumPort] = {}
        # Ordered by (non-decreasing) start time; pruned from the front.
        self._active: deque[_Transmission] = deque()
        # Topology-derived indexes, valid for this topology version only.
        self._topo_version = topology.version
        self._neighbor_tuples: dict[str, tuple[str, ...]] = {}
        self._audible_views: dict[str, KeysView[str]] = {}
        self._busy_until: dict[str, int] = {}
        # Per-sender receiver rows: (port, node, receiver_id, distance,
        # audible view) for every *attached* neighbor, in topology insertion
        # order.  Invalidated by attach().
        self._receiver_rows: dict[
            str, tuple[tuple[MediumPort, FireFlyNode, str, float,
                             KeysView[str]], ...]] = {}

    def attach(self, node: FireFlyNode) -> MediumPort:
        if node.node_id in self._ports:
            raise ValueError(f"node {node.node_id!r} already attached")
        if node.node_id not in self.topology:
            raise KeyError(f"node {node.node_id!r} not in topology")
        port = MediumPort(self, node)
        self._ports[node.node_id] = port
        # A new port can appear in any sender's receiver set.
        self._receiver_rows.clear()
        return port

    def port(self, node_id: str) -> MediumPort:
        return self._ports[node_id]

    @property
    def trace(self) -> Trace | None:
        return self._trace

    @trace.setter
    def trace(self, value: Trace | None) -> None:
        # trace_enabled is the hot-path bool the no-trace campaign path
        # branches on; the property keeps it in lockstep even when a
        # trace is attached or detached after construction.
        self._trace = value
        self.trace_enabled = value is not None

    # ------------------------------------------------------------------
    # Topology indexes
    # ------------------------------------------------------------------
    def _check_indexes(self) -> None:
        if self._topo_version != self.topology.version:
            raise RuntimeError(
                "topology changed after the medium was built over it "
                f"(version {self._topo_version} -> {self.topology.version}); "
                "build a new Medium over the finished topology")

    def _neighbors_of(self, sender: str) -> tuple[str, ...]:
        """Audible receivers of ``sender``, in topology insertion order
        (the order the unindexed medium resolved receptions in)."""
        cached = self._neighbor_tuples.get(sender)
        if cached is None:
            cached = tuple(self.topology.neighbors(sender))
            self._neighbor_tuples[sender] = cached
        return cached

    def _audible_at(self, receiver: str) -> KeysView[str]:
        """Senders whose frames reach ``receiver`` (symmetric graph): a
        view of the topology's own adjacency, for membership tests."""
        cached = self._audible_views.get(receiver)
        if cached is None:
            cached = self.topology.neighbor_view(receiver)
            self._audible_views[receiver] = cached
        return cached

    def _raise_busy_horizons(self, sender: str, end: int) -> None:
        busy = self._busy_until
        if busy.get(sender, 0) < end:
            busy[sender] = end
        for nid in self._neighbors_of(sender):
            if busy.get(nid, 0) < end:
                busy[nid] = end

    # ------------------------------------------------------------------
    # Transmission pipeline
    # ------------------------------------------------------------------
    def _transmit(self, node: FireFlyNode, packet: Packet,
                  after_state: RadioState) -> int:
        if node.failed:
            raise RuntimeError(
                f"failed node {node.node_id!r} attempted to transmit")
        self._check_indexes()
        airtime = node.radio.airtime(packet.on_air_bytes)
        now = self.engine.now
        tx = _Transmission(sender=node.node_id, packet=packet,
                           start=now, end=now + airtime)
        self._active.append(tx)
        self._raise_busy_horizons(node.node_id, tx.end)
        self.stats.frames_sent += 1
        if self._obs is not None:
            self._obs.frames_sent.inc()
        node.radio.set_state(RadioState.TX)
        if self.trace_enabled:
            self.trace.record(now, "medium.tx", node.node_id,
                              kind=packet.kind, dst=packet.dst,
                              bytes=packet.on_air_bytes, seq=packet.seq)
        self.engine.post(airtime, self._complete, tx, node, after_state)
        return airtime

    def _receiver_rows_of(self, sender: str) -> tuple[tuple, ...]:
        """Resolution rows for ``sender``'s frames: one ``(port, node,
        receiver_id, distance, audible)`` entry per *attached* neighbor,
        in topology insertion order (the order the unindexed medium
        resolved receptions in)."""
        rows = []
        ports = self._ports
        topology = self.topology
        for receiver_id in self._neighbors_of(sender):
            port = ports.get(receiver_id)
            if port is None:
                continue
            rows.append((port, port.node, receiver_id,
                         topology.distance(sender, receiver_id),
                         self._audible_at(receiver_id)))
        cached = tuple(rows)
        self._receiver_rows[sender] = cached
        return cached

    def _complete(self, tx: _Transmission, node: FireFlyNode,
                  after_state: RadioState) -> None:
        """Resolve one finished frame at every audible receiver.

        Per-receiver dict lookups (port, distance, audible view) come from
        the prebuilt receiver rows, the temporal overlap window over
        ``_active`` is computed once for the whole completion instead of
        once per receiver, and stats counters accumulate in locals that
        flush in a single batch."""
        if not node.failed:
            node.radio.set_state(after_state)
        self._check_indexes()
        sender = tx.sender
        rows = self._receiver_rows.get(sender)
        if rows is None:
            rows = self._receiver_rows_of(sender)
        # Senders of every frame that temporally overlapped tx.  The deque
        # is start-ordered, so the scan early-breaks past tx's end.
        tx_start = tx.start
        tx_end = tx.end
        overlap: list[str] = []
        for other in self._active:
            if other.start >= tx_end:
                break
            if other is not tx and other.end > tx_start:
                overlap.append(other.sender)
        packet = tx.packet
        on_air = packet.on_air_bytes
        survives = self.link_model.frame_survives
        rng = self.rng
        trace = self.trace
        traced = self.trace_enabled
        rx_state = RadioState.RX
        delivered = collisions = losses = missed = 0
        for port, rnode, receiver_id, distance, audible in rows:
            if rnode.failed or rnode.radio.state is not rx_state:
                missed += 1
                continue
            if overlap:
                collided = False
                for other_sender in overlap:
                    if other_sender == receiver_id:
                        collided = True  # receiver was itself transmitting
                        break
                    if other_sender in audible:
                        collided = True
                        break
                if collided:
                    collisions += 1
                    if traced:
                        trace.record(self.engine.now, "medium.collision",
                                     receiver_id, seq=packet.seq,
                                     sender=sender)
                    continue
            if not survives(sender, receiver_id, distance, on_air, rng):
                losses += 1
                if traced:
                    trace.record(self.engine.now, "medium.loss", receiver_id,
                                 seq=packet.seq, sender=sender)
                continue
            delivered += 1
            if traced:
                trace.record(self.engine.now, "medium.rx", receiver_id,
                             kind=packet.kind, src=sender, seq=packet.seq)
            if port.receive_callback is not None:
                port.receive_callback(packet)
        stats = self.stats
        stats.frames_delivered += delivered
        stats.collisions += collisions
        stats.channel_losses += losses
        stats.missed_radio_off += missed
        obs = self._obs
        if obs is not None:
            obs.frames_delivered.inc(delivered)
            obs.collisions.inc(collisions)
            obs.channel_losses.inc(losses)
        # Keep finished transmissions around for a grace window so later
        # frames that overlapped them still detect the collision; pruned
        # incrementally in _prune (B-MAC preambles are the longest frames).
        self._prune()

    _GRACE_TICKS = 250_000  # 250 ms > longest preamble airtime

    def _prune(self) -> None:
        """Drop expired frames from the (start-ordered) front.

        An entry whose ``end`` is still inside the grace window blocks
        entries behind it, but airtime is bounded well below the grace
        window, so the retained span -- and the deque -- stays bounded.
        Entries a full-list sweep would also have dropped can never
        overlap a live frame, so retaining them briefly is unobservable.
        """
        horizon = self.engine.now - self._GRACE_TICKS
        active = self._active
        while active and active[0].end < horizon:
            active.popleft()

    def _channel_busy(self, node_id: str) -> bool:
        if self._topo_version != self.topology.version:
            self._check_indexes()  # raises
        return self._busy_until.get(node_id, 0) > self.engine.clock._now
