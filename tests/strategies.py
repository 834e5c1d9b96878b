"""Hypothesis strategies shared by the property tests."""
import itertools

from hypothesis import strategies as st

from tricklefair import KAssignment, Topology


@st.composite
def small_networks(draw):
    """An edge-list topology of 1..12 nodes with a per-node K in 1..6."""
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    topo = Topology.from_edges(n, [e for e, kept in zip(pairs, keep) if kept])
    ks = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    return topo, KAssignment(tuple(ks), {"mode": "drawn"})
