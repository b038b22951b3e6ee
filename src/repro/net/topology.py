"""Network topologies.

A :class:`Topology` is an undirected graph over node ids with per-node
planar positions, kept as insertion-ordered adjacency dicts.  The medium
consults it for *audibility* (who can possibly hear whom); the
link-quality model then decides per-frame survival.  Helpers build the
layouts used across the experiments: the paper's 6-node HIL star/mesh,
lines for multi-hop tests, grids and random geometric graphs for scale.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, KeysView

from repro.hardware.node import NodePosition


class Topology:
    """Mutable connectivity graph with positions.

    Neighbour order is link insertion order: a new link is appended at
    both ends, re-adding a link leaves it in place, and a link removed and
    added again goes to the end.  The medium resolves receivers in this
    order, so it is part of every simulated result.

    ``version`` increments on every structural mutation.  Build the graph
    first, then the medium: a :class:`~repro.net.medium.Medium` indexes
    the topology it was built over and raises on its next transmission
    or carrier sense once ``version`` has moved.
    """

    def __init__(self) -> None:
        # node -> {neighbour: None}; a dict keeps insertion order.
        self._adj: dict[str, dict[str, None]] = {}
        self._positions: dict[str, NodePosition] = {}
        self.version = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: str, position: NodePosition | None = None) -> None:
        if node_id in self._adj:
            raise ValueError(f"node {node_id!r} already in topology")
        self._adj[node_id] = {}
        self._positions[node_id] = position or NodePosition(0.0, 0.0)
        self.version += 1

    def add_link(self, a: str, b: str) -> None:
        for n in (a, b):
            if n not in self._adj:
                raise KeyError(f"unknown node {n!r}")
        self._adj[a][b] = None
        self._adj[b][a] = None
        self.version += 1

    def remove_node(self, node_id: str) -> None:
        """Drop a node and all its links (topology-change experiments)."""
        if node_id in self._adj:
            for other in self._adj.pop(node_id):
                if other != node_id:
                    del self._adj[other][node_id]
            del self._positions[node_id]
            self.version += 1

    def remove_link(self, a: str, b: str) -> None:
        if self.has_link(a, b):
            del self._adj[a][b]
            if a != b:
                del self._adj[b][a]
            self.version += 1

    def connect_by_range(self, radio_range_m: float) -> None:
        """Create links between every node pair within ``radio_range_m``.

        Pairs are tested, and links added, in the ``(i, j)`` node-index
        order of a scan over all pairs, so neighbour order is the same as
        that scan's; only the pairs :func:`_candidates` leaves are tested.
        """
        nodes = list(self._adj)
        positions = [self._positions[n] for n in nodes]
        adj = self._adj
        for i, later in enumerate(_candidates(positions, radio_range_m)):
            a, pa = nodes[i], positions[i]
            for j in later:
                if pa.distance_to(positions[j]) <= radio_range_m:
                    b = nodes[j]
                    adj[a][b] = None
                    adj[b][a] = None
        self.version += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def node_ids(self) -> list[str]:
        return list(self._adj)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._adj

    def position(self, node_id: str) -> NodePosition:
        return self._positions[node_id]

    def neighbors(self, node_id: str) -> list[str]:
        return list(self._adj.get(node_id, ()))

    def neighbor_view(self, node_id: str) -> KeysView[str]:
        """Read-only live view of ``node_id``'s neighbours, in neighbour
        order, without a copy (:meth:`neighbors` returns a new list)."""
        return self._adj[node_id].keys()

    def has_link(self, a: str, b: str) -> bool:
        return b in self._adj.get(a, ())

    def links(self) -> list[tuple[str, str]]:
        """Every link once, as ``(a, b)`` in node then neighbour order."""
        seen: set[str] = set()
        out = []
        for node, nbrs in self._adj.items():
            out.extend((node, nbr) for nbr in nbrs if nbr not in seen)
            seen.add(node)
        return out

    def n_links(self) -> int:
        return len(self.links())

    def distance(self, a: str, b: str) -> float:
        return self.position(a).distance_to(self.position(b))

    def _bfs(self, source: str) -> dict[str, str | None]:
        """Breadth-first parents of every node reachable from ``source``
        (``source`` maps to None), in discovery order.  A node's parent
        is the first node that reached it, neighbours taken in order."""
        if source not in self._adj:
            raise KeyError(f"unknown node {source!r}")
        adj = self._adj
        parents: dict[str, str | None] = {source: None}
        frontier = [source]
        while frontier:
            next_frontier = []
            for node in frontier:
                for nbr in adj[node]:
                    if nbr not in parents:
                        parents[nbr] = node
                        next_frontier.append(nbr)
            frontier = next_frontier
        return parents

    def is_connected(self) -> bool:
        if not self._adj:
            return True
        return len(self._bfs(next(iter(self._adj)))) == len(self._adj)

    def shortest_path(self, a: str, b: str) -> list[str]:
        """One fewest-hop path from ``a`` to ``b``, both ends included."""
        if b not in self._adj:
            raise KeyError(f"unknown node {b!r}")
        parents = self._bfs(a)
        if b not in parents:
            raise ValueError(f"no path from {a!r} to {b!r}")
        path = [b]
        while path[-1] != a:
            path.append(parents[path[-1]])
        return path[::-1]

    def hop_counts(self, source: str) -> dict[str, int]:
        """Hops from ``source`` to every node it reaches (itself: 0)."""
        hops: dict[str, int] = {}
        for node, parent in self._bfs(source).items():
            hops[node] = 0 if parent is None else hops[parent] + 1
        return hops

    def bfs_tree_toward(self, root: str) -> dict[str, str]:
        """Parent pointers toward ``root`` (implicit tree routing), in
        breadth-first discovery order."""
        parents = self._bfs(root)
        del parents[root]
        return parents


def _candidates(positions: list[NodePosition], radio_range_m: float,
                ) -> list[Iterable[int]]:
    """For each node ``i``, ascending indices ``j > i`` that may be in range.

    Nodes are bucketed into square cells a hair wider than the range, and
    only the 3x3 block of cells around a node is searched.  The margin
    keeps rounding in the distance test and in the cell index from ever
    putting an in-range pair two cells apart (for coordinates within
    ~10^6 ranges of the origin).  A non-positive range keeps every pair.
    """
    n = len(positions)
    if not radio_range_m > 0:
        return [range(i + 1, n) for i in range(n)]
    side = radio_range_m * (1.0 + 1e-9)
    keys = [(math.floor(p.x / side), math.floor(p.y / side))
            for p in positions]
    cells: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(keys):
        cells.setdefault(key, []).append(i)
    return [sorted(j for gx in (cx - 1, cx, cx + 1)
                   for gy in (cy - 1, cy, cy + 1)
                   for j in cells.get((gx, gy), ()) if j > i)
            for i, (cx, cy) in enumerate(keys)]


# ----------------------------------------------------------------------
# Canned layouts
# ----------------------------------------------------------------------
def star(center: str, leaves: list[str], spacing_m: float = 10.0) -> Topology:
    """Gateway-centered star -- the paper's Fig. 5 layout skeleton."""
    topo = Topology()
    topo.add_node(center, NodePosition(0.0, 0.0))
    for i, leaf in enumerate(leaves):
        angle = 2.0 * math.pi * i / max(1, len(leaves))
        topo.add_node(leaf, NodePosition(spacing_m * math.cos(angle),
                                         spacing_m * math.sin(angle)))
        topo.add_link(center, leaf)
    return topo


def full_mesh(node_ids: list[str], spacing_m: float = 10.0) -> Topology:
    """Every pair linked; nodes on a circle."""
    topo = Topology()
    for i, node_id in enumerate(node_ids):
        angle = 2.0 * math.pi * i / max(1, len(node_ids))
        topo.add_node(node_id, NodePosition(spacing_m * math.cos(angle),
                                            spacing_m * math.sin(angle)))
    for i, a in enumerate(node_ids):
        for b in node_ids[i + 1:]:
            topo.add_link(a, b)
    return topo


def line(node_ids: list[str], spacing_m: float = 10.0) -> Topology:
    """A chain -- multi-hop routing and pipelining tests."""
    topo = Topology()
    for i, node_id in enumerate(node_ids):
        topo.add_node(node_id, NodePosition(i * spacing_m, 0.0))
    for a, b in zip(node_ids, node_ids[1:]):
        topo.add_link(a, b)
    return topo


def grid(rows: int, cols: int, spacing_m: float = 10.0,
         prefix: str = "n") -> Topology:
    """rows x cols lattice with 4-connectivity; ids ``{prefix}{r}_{c}``."""
    topo = Topology()
    for r in range(rows):
        for c in range(cols):
            topo.add_node(f"{prefix}{r}_{c}",
                          NodePosition(c * spacing_m, r * spacing_m))
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                topo.add_link(f"{prefix}{r}_{c}", f"{prefix}{r}_{c + 1}")
            if r + 1 < rows:
                topo.add_link(f"{prefix}{r}_{c}", f"{prefix}{r + 1}_{c}")
    return topo


def random_geometric(n: int, area_m: float, radio_range_m: float,
                     rng: random.Random, prefix: str = "n") -> Topology:
    """Uniform placement in an ``area_m`` square, range-based links."""
    topo = Topology()
    for i in range(n):
        topo.add_node(f"{prefix}{i}", NodePosition(rng.uniform(0, area_m),
                                                   rng.uniform(0, area_m)))
    topo.connect_by_range(radio_range_m)
    return topo


def random_geometric_connected(n: int, area_m: float, radio_range_m: float,
                               rng: random.Random, prefix: str = "n",
                               growth: float = 1.25,
                               ) -> tuple[Topology, float]:
    """A connected random geometric graph, deterministically.

    Positions are drawn exactly once from ``rng``; if the requested
    ``radio_range_m`` leaves the graph disconnected, the range grows by
    ``growth`` per round (adding links over the *same* placement) until
    it connects -- capped at the area diagonal, where every pair is in
    range.  No further ``rng`` draws occur, so the result, including the
    effective range, is a pure function of the inputs.

    Returns ``(topology, effective_range_m)``.
    """
    if growth <= 1.0:
        raise ValueError(f"growth must exceed 1.0, got {growth}")
    topo = random_geometric(n, area_m, radio_range_m, rng, prefix=prefix)
    range_m = radio_range_m
    diagonal = area_m * math.sqrt(2.0)
    while not topo.is_connected():
        if range_m >= diagonal:  # fully linked yet disconnected: impossible
            raise AssertionError(
                f"random geometric graph of {n} nodes in {area_m} m "
                f"disconnected at full range {range_m:.1f} m")
        range_m = min(diagonal, range_m * growth)
        topo.connect_by_range(range_m)
    return topo, range_m
