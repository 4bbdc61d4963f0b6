"""Equality tests for the ``Block.from_global_edges`` fast path.

The hot-path pass merged the two ``searchsorted`` lookups and skips the
stable argsort when the input edges are already dst-sorted (the
full-neighbor sampling path emits sorted runs).  The construction must
stay **identical** to the original one — pinned here against the old
algorithm, inlined verbatim.
"""

import numpy as np
import pytest

from repro.sampling.block import Block


def old_from_global_edges(edge_src_global, edge_dst_global):
    """The pre-optimization construction (two lookups + unconditional sort)."""
    edge_src_global = np.asarray(edge_src_global, dtype=np.int64)
    edge_dst_global = np.asarray(edge_dst_global, dtype=np.int64)
    dst_nodes = np.unique(edge_dst_global)
    src_nodes = np.unique(np.concatenate([edge_src_global, dst_nodes]))
    edge_src = np.searchsorted(src_nodes, edge_src_global)
    edge_dst = np.searchsorted(dst_nodes, edge_dst_global)
    order = np.argsort(edge_dst, kind="stable")
    dst_in_src = np.searchsorted(src_nodes, dst_nodes)
    return Block(
        src_nodes=src_nodes,
        dst_nodes=dst_nodes,
        dst_in_src=dst_in_src,
        edge_src=edge_src[order],
        edge_dst=edge_dst[order],
    )


def assert_blocks_equal(a: Block, b: Block):
    assert np.array_equal(a.src_nodes, b.src_nodes)
    assert np.array_equal(a.dst_nodes, b.dst_nodes)
    assert np.array_equal(a.dst_in_src, b.dst_in_src)
    assert np.array_equal(a.edge_src, b.edge_src)
    assert np.array_equal(a.edge_dst, b.edge_dst)


def random_edges(rng, n_edges, id_space, dst_sorted):
    src = rng.integers(0, id_space, size=n_edges)
    dst = rng.integers(0, id_space, size=n_edges)
    if dst_sorted:
        dst.sort()
    return src, dst


@pytest.mark.parametrize("dst_sorted", [False, True], ids=["unsorted", "dst-sorted"])
@pytest.mark.parametrize("n_edges,id_space", [(1, 5), (40, 12), (5000, 800)])
def test_matches_old_construction(n_edges, id_space, dst_sorted):
    rng = np.random.default_rng(n_edges + id_space)
    src, dst = random_edges(rng, n_edges, id_space, dst_sorted)
    assert_blocks_equal(
        Block.from_global_edges(src, dst), old_from_global_edges(src, dst)
    )


@pytest.mark.parametrize("dst_sorted", [False, True], ids=["unsorted", "dst-sorted"])
def test_given_dst_nodes_match_old_construction(dst_sorted):
    """Samplers pass their frontier as ``dst_nodes`` (it is exactly the
    sorted-unique destination set); the block must not change."""
    rng = np.random.default_rng(7)
    src, dst = random_edges(rng, 600, 90, dst_sorted)
    assert_blocks_equal(
        Block.from_global_edges(src, dst, dst_nodes=np.unique(dst)),
        old_from_global_edges(src, dst),
    )


def test_stable_tie_order_preserved():
    """Parallel edges to the same dst must keep their input order (the old
    stable argsort guaranteed this; the sorted-input skip must too)."""
    src = np.array([9, 3, 9, 3, 7])
    dst = np.array([2, 2, 2, 5, 5])  # already dst-sorted, with ties
    new = Block.from_global_edges(src, dst)
    old = old_from_global_edges(src, dst)
    assert_blocks_equal(new, old)
    # ties appear in input order: 9, 3, 9 for dst 2; 3, 7 for dst 5
    assert np.array_equal(new.src_nodes[new.edge_src], [9, 3, 9, 3, 7])


def test_dst_edge_ptr_matches_naive():
    rng = np.random.default_rng(1)
    src, dst = random_edges(rng, 300, 40, dst_sorted=False)
    block = Block.from_global_edges(src, dst)
    ptr = block.dst_edge_ptr()
    assert ptr.shape == (block.num_dst + 1,)
    for i in range(block.num_dst):
        run = block.edge_dst[ptr[i] : ptr[i + 1]]
        assert np.all(run == i)
    assert ptr[-1] == block.num_edges
    assert block.dst_edge_ptr() is ptr  # cached


def test_segment_index_cached_per_block():
    rng = np.random.default_rng(2)
    src, dst = random_edges(rng, 120, 30, dst_sorted=False)
    block = Block.from_global_edges(src, dst)
    dst_index = block.dst_index()
    assert block.dst_index() is dst_index
    assert block.dst_edge_ptr() is dst_index.indptr  # one structure, not two
    assert dst_index.num_segments == block.num_dst
    assert dst_index.ids is block.edge_dst
    # every edge lands in exactly one destination run
    assert dst_index.indptr[-1] == block.num_edges
    assert dst_index.is_sorted
