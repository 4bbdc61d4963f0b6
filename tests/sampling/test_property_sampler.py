"""Property-based tests on the neighbor sampler's structural invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph import CSRGraph
from repro.sampling import NeighborSampler


def random_graph(n, avg_deg, seed):
    rng = np.random.default_rng(seed)
    m = max(int(n * avg_deg / 2), 1)
    return CSRGraph.from_edges(
        rng.integers(0, n, m), rng.integers(0, n, m), n
    )


graph_params = (
    st.integers(min_value=30, max_value=300),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**31 - 1),
)


def in_neighbors(g, v):
    """In-neighbors of ``v`` (a view of ``g``'s CSR arrays)."""
    return g.indices[g.indptr[v] : g.indptr[v + 1]]


@given(*graph_params)
@settings(max_examples=30, deadline=None)
def test_fanout_bound_holds(n, fanout, seed):
    g = random_graph(n, 6, seed)
    s = NeighborSampler(g, [fanout], global_seed=seed)
    seeds = np.random.default_rng(seed).choice(n, size=min(16, n), replace=False)
    b = s.sample(seeds).blocks[0]
    assert b.degree_per_dst().max() <= max(fanout, 1)


@given(*graph_params)
@settings(max_examples=30, deadline=None)
def test_sampled_edges_subset_of_graph(n, fanout, seed):
    g = random_graph(n, 6, seed)
    s = NeighborSampler(g, [fanout], global_seed=seed)
    seeds = np.random.default_rng(seed).choice(n, size=min(8, n), replace=False)
    b = s.sample(seeds).blocks[0]
    for i, v in enumerate(b.dst_nodes):
        allowed = set(in_neighbors(g, v).tolist()) | {v}
        srcs = b.src_nodes[b.edge_src[b.edge_dst == i]]
        assert set(srcs.tolist()) <= allowed


@given(*graph_params)
@settings(max_examples=30, deadline=None)
def test_every_seed_is_a_destination(n, fanout, seed):
    g = random_graph(n, 6, seed)
    s = NeighborSampler(g, [fanout], global_seed=seed)
    seeds = np.unique(
        np.random.default_rng(seed).choice(n, size=min(16, n), replace=False)
    )
    b = s.sample(seeds).blocks[0]
    np.testing.assert_array_equal(b.dst_nodes, np.sort(seeds))


@given(
    st.integers(min_value=50, max_value=300),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=20, deadline=None)
def test_subset_consistency(n, seed):
    """A node's sampled neighborhood is independent of its co-batch."""
    g = random_graph(n, 8, seed)
    s = NeighborSampler(g, [3], global_seed=seed)
    rng = np.random.default_rng(seed)
    seeds = np.unique(rng.choice(n, size=min(20, n), replace=False))
    full = s.sample(seeds).blocks[0]
    half = s.sample(seeds[: max(len(seeds) // 2, 1)]).blocks[0]
    for v in half.dst_nodes:
        i_f = np.searchsorted(full.dst_nodes, v)
        i_h = np.searchsorted(half.dst_nodes, v)
        srcs_f = np.sort(full.src_nodes[full.edge_src[full.edge_dst == i_f]])
        srcs_h = np.sort(half.src_nodes[half.edge_src[half.edge_dst == i_h]])
        np.testing.assert_array_equal(srcs_f, srcs_h)
