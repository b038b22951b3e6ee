"""Common MAC protocol interface.

A MAC owns a transmit queue, drives the node's radio through a
:class:`~repro.net.medium.MediumPort`, filters received frames by
destination, and keeps the statistics the comparison benchmarks report
(throughput, delivery latency, duty cycle).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.hardware.node import FireFlyNode
from repro.net.medium import MediumPort
from repro.net.packet import Packet
from repro.sim.engine import Engine


@dataclass
class MacStats:
    """Per-node MAC counters."""

    enqueued: int = 0
    sent: int = 0
    received: int = 0
    filtered: int = 0
    queue_drops: int = 0
    delivery_latencies: list[int] = field(default_factory=list)

    def max_latency(self) -> int:
        return max(self.delivery_latencies, default=0)


class MacProtocol:
    """Base class: queueing, destination filtering, stats.

    Subclasses implement :meth:`start` / :meth:`stop` and the medium-access
    discipline that drains :attr:`queue`.
    """

    def __init__(self, engine: Engine, node: FireFlyNode, port: MediumPort,
                 queue_capacity: int = 16) -> None:
        self.engine = engine
        self.node = node
        self.port = port
        # Two drain levels: control frames (priority 0) always leave
        # before bulk frames (priority 1) -- migrations must not starve
        # heartbeats/actuation on the shared slot.
        self._queues: tuple[deque[Packet], deque[Packet]] = (deque(),
                                                             deque())
        self.queue_capacity = queue_capacity
        self.stats = MacStats()
        self.receive_handler: Callable[[Packet], None] | None = None
        self.running = False
        port.set_receive_callback(self._on_frame)

    @property
    def node_id(self) -> str:
        return self.node.node_id

    # ------------------------------------------------------------------
    # Upper-layer interface
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Queue a frame for transmission; False if the queue was full."""
        if self.node.failed:
            return False
        if self.queue_length >= self.queue_capacity:
            self.stats.queue_drops += 1
            return False
        if packet.created_at == 0:
            packet.created_at = self.engine.now
        level = 1 if packet.priority else 0
        self._queues[level].append(packet)
        self.stats.enqueued += 1
        return True

    @property
    def queue_length(self) -> int:
        return sum(len(q) for q in self._queues)

    @property
    def has_pending(self) -> bool:
        return any(self._queues)

    def dequeue(self) -> Packet | None:
        """Next frame to transmit: control before bulk, FIFO within."""
        for queue in self._queues:
            if queue:
                return queue.popleft()
        return None

    def peek(self) -> Packet | None:
        """The frame dequeue() would return, without removing it."""
        for queue in self._queues:
            if queue:
                return queue[0]
        return None

    def drop_head(self) -> None:
        """Discard the frame dequeue() would return (congestion drop)."""
        self.dequeue()

    def set_receive_handler(self, fn: Callable[[Packet], None]) -> None:
        self.receive_handler = fn

    def start(self) -> None:
        """Begin the protocol's radio schedule."""
        raise NotImplementedError

    def stop(self) -> None:
        """Halt the protocol and power the radio down."""
        self.running = False
        self.port.sleep()

    # ------------------------------------------------------------------
    # Medium-facing
    # ------------------------------------------------------------------
    def _on_frame(self, packet: Packet) -> None:
        if self.node.failed:
            return
        if not self._accept(packet):
            self.stats.filtered += 1
            return
        self.stats.received += 1
        self.stats.delivery_latencies.append(
            self.engine.now - packet.created_at)
        if self.receive_handler is not None:
            self.receive_handler(packet)

    def _accept(self, packet: Packet) -> bool:
        """Destination filter; protocol frames may be intercepted earlier."""
        return packet.is_broadcast or packet.dst == self.node_id
