"""Implicit tree routing.

nano-RK ships a tree routing protocol; the EVM uses it for multi-hop Virtual
Components that span more than one radio hop.  Each node knows only its
parent and its children in a BFS tree rooted at the gateway.  A
:class:`TreeRouter` sits between the EVM and the MAC: it reads next hops off
that tree, forwards frames not addressed to its node, and delivers the rest
upward.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from typing import Callable, Iterator

from repro.net.mac.base import MacProtocol
from repro.net.packet import BROADCAST, Packet
from repro.net.topology import Topology


def build_tree_tables(topology: Topology, root: str,
                      ) -> dict[str, Mapping[str, str]]:
    """Per-node next-hop tables over the BFS tree rooted at ``root``.

    Returns ``tables[node][destination] = next_hop`` for every node the
    tree reaches.  Only tree edges are used, matching an implicit-tree
    protocol where nodes know their parent and children but not the full
    graph: toward a node in its own subtree a node forwards to the child
    above it, toward any other node to its parent.

    Each table is a read-only view over one shared index -- parent
    pointers, children, and every subtree as an interval of preorder
    positions -- so the tables take O(n) memory, not n^2.
    """
    if root not in topology:
        raise KeyError(f"root {root!r} not in topology")
    parent = topology.bfs_tree_toward(root)
    order = [root, *parent]
    children: dict[str, list[str]] = {node: [] for node in order}
    for child, up in parent.items():
        children[up].append(child)
    size = dict.fromkeys(order, 1)
    for child in reversed(order[1:]):
        size[parent[child]] += size[child]
    # The subtree of n holds preorder positions [first[n], first[n] + size[n]).
    first = {root: 0}
    for node in order:
        pos = first[node] + 1
        for child in children[node]:
            first[child] = pos
            pos += size[child]
    return {node: _TreeRoutes(first, node, parent.get(node), children[node],
                              size[node])
            for node in order}


class _TreeRoutes(Mapping):
    """One node's read-only ``{destination: next_hop}`` over a shared tree."""

    __slots__ = ("_first", "_start", "_end", "_parent", "_kids",
                 "_kid_starts")

    def __init__(self, first: dict[str, int], node: str, parent: str | None,
                 kids: list[str], size: int) -> None:
        self._first = first
        self._start = first[node]
        self._end = self._start + size
        self._parent = parent
        self._kids = kids
        self._kid_starts = [first[kid] for kid in kids]

    def get(self, dst, default=None):
        pos = self._first.get(dst)
        if pos is None or pos == self._start:  # unreachable, or this node
            return default
        if self._start < pos < self._end:
            return self._kids[bisect_right(self._kid_starts, pos) - 1]
        return self._parent

    def __getitem__(self, dst: str) -> str:
        hop = self.get(dst)
        if hop is None:
            raise KeyError(dst)
        return hop

    def __iter__(self) -> Iterator[str]:
        return (dst for dst, pos in self._first.items()
                if pos != self._start)

    def __len__(self) -> int:
        return len(self._first) - 1


class TreeRouter:
    """Forwarding layer bound to one node's MAC."""

    def __init__(self, mac: MacProtocol, next_hops: Mapping[str, str]) -> None:
        self.mac = mac
        # Kept, not copied: a tree table is a view, and copying one would
        # rebuild the n^2 table it exists to avoid.
        self.next_hops = next_hops
        self.deliver_handler: Callable[[Packet], None] | None = None
        self.forwarded = 0
        self.no_route_drops = 0
        mac.set_receive_handler(self._on_packet)

    @property
    def node_id(self) -> str:
        return self.mac.node_id

    def set_deliver_handler(self, fn: Callable[[Packet], None]) -> None:
        self.deliver_handler = fn

    def send(self, packet: Packet) -> bool:
        """Route ``packet`` toward ``packet.dst`` (may be multi-hop away)."""
        if packet.is_broadcast or packet.dst == self.node_id:
            raise ValueError(
                "TreeRouter.send expects a remote unicast destination")
        next_hop = self.next_hops.get(packet.dst)
        if next_hop is None:
            self.no_route_drops += 1
            return False
        # created_at is the origination time, kept for end-to-end latency.
        link_frame = Packet(src=self.node_id, dst=next_hop,
                            kind="route." + packet.kind,
                            payload=(packet.dst, packet.payload),
                            size_bytes=packet.size_bytes,
                            created_at=packet.created_at, hops=packet.hops)
        return self.mac.send(link_frame)

    def _on_packet(self, packet: Packet) -> None:
        if not packet.kind.startswith("route."):
            # Single-hop traffic passes straight through.
            if self.deliver_handler is not None:
                self.deliver_handler(packet)
            return
        final_dst, inner_payload = packet.payload
        original = Packet(src=packet.src, dst=final_dst,
                          kind=packet.kind[len("route."):],
                          payload=inner_payload,
                          size_bytes=packet.size_bytes,
                          created_at=packet.created_at,
                          hops=packet.hops)
        if final_dst == self.node_id:
            if self.deliver_handler is not None:
                self.deliver_handler(original)
            return
        original.hops += 1
        self.forwarded += 1
        self.send(original)


class RoutedMacAdapter:
    """Presents the MAC interface over a :class:`TreeRouter`, so EVM
    runtimes work unchanged on multi-hop Virtual Components.

    - unicast frames to non-neighbors are routed over the tree;
    - broadcast frames are flooded: each node retransmits a broadcast it
      has not seen before (dedup by origin sequence number), bounded by
      ``flood_ttl`` hops.

    **Flood suppression** (``suppress_threshold > 0``): instead of
    relaying a fresh broadcast immediately, the node holds the relay for
    ``suppress_delay_ticks`` and counts the duplicate copies it
    overhears meanwhile.  If at least ``suppress_threshold`` neighbors
    relayed the same flood first, this node's copy is redundant and is
    dropped (counter-based broadcast suppression).  Local delivery is
    never delayed -- only the rebroadcast.  The default (``0``) keeps
    the classic relay-at-once flood, bit-identical to earlier behavior.
    """

    FLOOD_PREFIX = "flood."

    def __init__(self, mac: MacProtocol, next_hops: Mapping[str, str],
                 flood_ttl: int = 4, suppress_threshold: int = 0,
                 suppress_delay_ticks: int = 0) -> None:
        self.mac = mac
        self.router = TreeRouter(mac, next_hops)
        self.flood_ttl = flood_ttl
        self.suppress_threshold = suppress_threshold
        self.suppress_delay_ticks = suppress_delay_ticks
        self._seen_floods: set[tuple[str, int]] = set()
        # Pending relay decisions: flood key -> [duplicates overheard].
        self._pending_relays: dict[tuple[str, int], list[int]] = {}
        self._handler: Callable[[Packet], None] | None = None
        self.router.set_deliver_handler(self._deliver)
        self.floods_relayed = 0
        self.floods_suppressed = 0
        self.duplicate_floods_heard = 0

    @property
    def node_id(self) -> str:
        return self.mac.node_id

    @property
    def stats(self):
        return self.mac.stats

    def set_receive_handler(self, fn: Callable[[Packet], None]) -> None:
        self._handler = fn

    def send(self, packet: Packet) -> bool:
        if packet.is_broadcast:
            flood = Packet(src=self.node_id, dst=BROADCAST,
                           kind=self.FLOOD_PREFIX + packet.kind,
                           payload=(self.node_id, packet.seq, packet.payload),
                           size_bytes=packet.size_bytes + 4,
                           created_at=packet.created_at, hops=0)
            self._seen_floods.add((self.node_id, packet.seq))
            return self.mac.send(flood)
        return self.router.send(packet)

    def start(self) -> None:
        """Bring the underlying MAC (back) up -- node recovery restarts
        the radio through whatever fronts it."""
        self.mac.start()

    def stop(self) -> None:
        self.mac.stop()

    def _deliver(self, packet: Packet) -> None:
        if packet.kind.startswith(self.FLOOD_PREFIX):
            origin, seq, payload = packet.payload
            key = (origin, seq)
            if key in self._seen_floods:
                self.duplicate_floods_heard += 1
                counter = self._pending_relays.get(key)
                if counter is not None:
                    counter[0] += 1
                return
            self._seen_floods.add(key)
            original = Packet(src=origin, dst=BROADCAST,
                              kind=packet.kind[len(self.FLOOD_PREFIX):],
                              payload=payload,
                              size_bytes=max(0, packet.size_bytes - 4),
                              created_at=packet.created_at,
                              hops=packet.hops)
            if self._handler is not None:
                self._handler(original)
            if packet.hops + 1 < self.flood_ttl:
                relay = Packet(src=self.node_id, dst=BROADCAST,
                               kind=packet.kind, payload=packet.payload,
                               size_bytes=packet.size_bytes,
                               created_at=packet.created_at,
                               hops=packet.hops + 1)
                if self.suppress_threshold > 0:
                    counter = [0]
                    self._pending_relays[key] = counter
                    self.mac.engine.post(self.suppress_delay_ticks,
                                         self._relay_decision, key, counter,
                                         relay)
                else:
                    self.floods_relayed += 1
                    self.mac.send(relay)
            return
        if self._handler is not None:
            self._handler(packet)

    def _relay_decision(self, key: tuple[str, int], counter: list[int],
                        relay: Packet) -> None:
        """The held relay fires -- unless enough neighbors beat us to it."""
        self._pending_relays.pop(key, None)
        if counter[0] >= self.suppress_threshold:
            self.floods_suppressed += 1
            return
        self.floods_relayed += 1
        self.mac.send(relay)
