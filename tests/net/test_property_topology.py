"""Hypothesis properties for random geometric topologies.

The wide-grid suite builds every 100+-node layout through
``random_geometric`` / ``random_geometric_connected``; these properties
pin the invariants the drivers rely on: the link set is exactly the
within-range pair set (no self links, no duplicates), generation is a
pure function of the rng seed, and the connected variant returns a
connected graph over the *same* placement without consuming extra
randomness.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.net.topology import random_geometric, random_geometric_connected

_params = dict(
    n=st.integers(min_value=1, max_value=40),
    area=st.floats(min_value=1.0, max_value=200.0,
                   allow_nan=False, allow_infinity=False),
    radio_range=st.floats(min_value=0.1, max_value=250.0,
                          allow_nan=False, allow_infinity=False),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


@settings(max_examples=120, deadline=None)
@given(**_params)
def test_links_are_exactly_the_within_range_pairs(n, area, radio_range, seed):
    topo = random_geometric(n, area, radio_range, random.Random(seed))
    ids = topo.node_ids
    assert len(ids) == n
    for node in ids:
        assert not topo.has_link(node, node)  # no self links
    expected = {(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
                if topo.distance(a, b) <= radio_range}
    actual = {tuple(sorted(edge)) for edge in topo.links()}
    expected = {tuple(sorted(pair)) for pair in expected}
    assert actual == expected
    # links() lists each link once; the count doubles as a no-duplicates
    # check against the expected set.
    assert topo.n_links() == len(topo.links()) == len(expected)


@settings(max_examples=60, deadline=None)
@given(**_params)
def test_deterministic_under_fixed_rng(n, area, radio_range, seed):
    a = random_geometric(n, area, radio_range, random.Random(seed))
    b = random_geometric(n, area, radio_range, random.Random(seed))
    assert a.node_ids == b.node_ids
    for node in a.node_ids:
        pa, pb = a.position(node), b.position(node)
        assert (pa.x, pa.y) == (pb.x, pb.y)
    assert a.links() == b.links()


@settings(max_examples=60, deadline=None)
@given(**_params)
def test_connected_variant_connects_same_placement(n, area, radio_range,
                                                   seed):
    topo, effective = random_geometric_connected(
        n, area, radio_range, random.Random(seed))
    assert topo.is_connected()
    assert effective >= radio_range
    # Same placement as the plain generator with the same seed: range
    # growth adds links, never moves nodes or redraws randomness.
    plain = random_geometric(n, area, radio_range, random.Random(seed))
    for node in topo.node_ids:
        pt, pp = topo.position(node), plain.position(node)
        assert (pt.x, pt.y) == (pp.x, pp.y)
    assert set(plain.links()) <= set(topo.links())
    # Every added link is justified by the effective range.
    for a, b in topo.links():
        assert topo.distance(a, b) <= effective
