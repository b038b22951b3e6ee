"""networkx as the reference for topology and tree routes.

:class:`~repro.net.topology.Topology` keeps its own insertion-ordered
adjacency and :func:`~repro.net.routing.build_tree_tables` answers next
hops from parent pointers; neither imports networkx.  The medium resolves
receivers in neighbour order, so that order is part of every simulated
result.  These properties hold both to the networkx graph the topology
used to wrap: neighbour order after range linking (several growth rounds,
nodes exactly on cell boundaries, links removed and re-linked), breadth-
first parents, connectivity, hop counts and every ``(node, dst)`` next hop.
networkx is a test-only dependency; the module skips without it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.node import NodePosition
from repro.net.routing import build_tree_tables
from repro.net.topology import Topology

nx = pytest.importorskip("networkx")


def _nx_connect_by_range(graph, positions, radio_range_m):
    """The all-pairs loop the topology ran over an ``nx.Graph``."""
    nodes = list(graph.nodes)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if positions[a].distance_to(positions[b]) <= radio_range_m:
                graph.add_edge(a, b)


def _assert_same_graph(topo, graph):
    assert topo.node_ids == list(graph.nodes)
    for node in topo.node_ids:
        assert topo.neighbors(node) == list(graph.neighbors(node)), node
    assert topo.links() == list(graph.edges)
    assert topo.n_links() == graph.number_of_edges()


@st.composite
def _layouts(draw):
    """Positions (some exactly on multiples of a round's range) plus the
    growing ranges of a few linking rounds."""
    range_m = draw(st.floats(min_value=0.1, max_value=60.0,
                             allow_nan=False, allow_infinity=False))
    growth = draw(st.floats(min_value=1.01, max_value=3.0))
    ranges = [range_m * growth ** k
              for k in range(draw(st.integers(min_value=1, max_value=4)))]
    on_boundary = st.builds(lambda k, r: k * r,
                            st.integers(min_value=-4, max_value=12),
                            st.sampled_from(ranges))
    anywhere = st.floats(min_value=-50.0, max_value=250.0,
                         allow_nan=False, allow_infinity=False)
    coord = st.one_of(on_boundary, anywhere)
    n = draw(st.integers(min_value=1, max_value=30))
    positions = {f"n{i}": NodePosition(draw(coord), draw(coord))
                 for i in range(n)}
    return positions, ranges


@settings(max_examples=150, deadline=None)
@given(layout=_layouts(), data=st.data())
def test_range_linking_matches_all_pairs_networkx(layout, data):
    positions, ranges = layout
    topo, graph = Topology(), nx.Graph()
    for node, pos in positions.items():
        topo.add_node(node, pos)
        graph.add_node(node)
    for range_m in ranges:  # growth rounds over one placement
        topo.connect_by_range(range_m)
        _nx_connect_by_range(graph, positions, range_m)
        _assert_same_graph(topo, graph)
    # Removed links go to the end of both neighbour lists when re-linked,
    # whether by range or by hand.
    links = topo.links()
    if links:
        dropped = data.draw(st.lists(st.sampled_from(links), max_size=6))
        for a, b in dropped:
            topo.remove_link(a, b)
            if graph.has_edge(a, b):
                graph.remove_edge(a, b)
        _assert_same_graph(topo, graph)
        for a, b in reversed(dropped[len(dropped) // 2:]):
            topo.add_link(b, a)
            graph.add_edge(b, a)
        topo.connect_by_range(ranges[-1])
        _nx_connect_by_range(graph, positions, ranges[-1])
        _assert_same_graph(topo, graph)


@st.composite
def _graphs(draw):
    """Random links over up to 25 nodes: connected or not, isolated nodes
    and self links included."""
    n = draw(st.integers(min_value=1, max_value=25))
    nodes = [f"v{i}" for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.sampled_from(nodes),
                                    st.sampled_from(nodes)), max_size=60))
    removed = draw(st.lists(st.sampled_from(pairs), max_size=5)
                   if pairs else st.just([]))
    topo, graph = Topology(), nx.Graph()
    for node in nodes:
        topo.add_node(node)
        graph.add_node(node)
    for a, b in pairs:
        topo.add_link(a, b)
        graph.add_edge(a, b)
    for a, b in removed:
        topo.remove_link(a, b)
        if graph.has_edge(a, b):
            graph.remove_edge(a, b)
    root = draw(st.sampled_from(nodes))
    return topo, graph, root


@settings(max_examples=150, deadline=None)
@given(case=_graphs())
def test_bfs_queries_match_networkx(case):
    topo, graph, root = case
    _assert_same_graph(topo, graph)
    assert topo.is_connected() == nx.is_connected(graph)
    # Same parents, discovered in the same order.
    assert (list(topo.bfs_tree_toward(root).items())
            == list(nx.bfs_predecessors(graph, root)))
    assert topo.hop_counts(root) == nx.single_source_shortest_path_length(
        graph, root)
    for dst in topo.node_ids:
        if nx.has_path(graph, root, dst):
            path = topo.shortest_path(root, dst)
            assert path[0] == root and path[-1] == dst
            assert len(path) - 1 == nx.shortest_path_length(graph, root, dst)
            assert all(topo.has_link(a, b) for a, b in zip(path, path[1:]))
        else:
            with pytest.raises(ValueError):
                topo.shortest_path(root, dst)


@settings(max_examples=150, deadline=None)
@given(case=_graphs())
def test_tree_tables_match_networkx_tree_paths(case):
    topo, graph, root = case
    tables = build_tree_tables(topo, root)
    tree = nx.bfs_tree(graph, root).to_undirected()
    assert list(tables) == list(tree.nodes)
    for node in topo.node_ids:
        if node not in tree:  # unreachable from the root: no table at all
            assert node not in tables
            continue
        paths = nx.shortest_path(tree, node)
        expected = {dst: path[1] for dst, path in paths.items()
                    if dst != node}
        table = tables[node]
        for dst in topo.node_ids:
            assert table.get(dst) == expected.get(dst), (node, dst)
            assert (dst in table) == (dst in expected)
            if dst in expected:
                assert table[dst] == expected[dst]
            else:
                with pytest.raises(KeyError):
                    table[dst]
        assert table.get("not-a-node") is None
        assert len(table) == len(expected)
        assert dict(table) == expected
