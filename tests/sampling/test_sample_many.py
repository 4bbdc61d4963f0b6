"""``NeighborSampler.sample_many``: many seed sets, one pass per layer.

Property: ``sample_many(sets, epochs)[i]`` equals ``sample(sets[i],
epochs[i])`` in every array, dtype included — over graphs with isolated
nodes and nodes of degree at most the fanout, ``-1`` (full-neighbor)
fanouts, overlapping groups, repeated and distinct epochs, and unsorted or
duplicate seeds.  ``sample`` itself is pinned to the per-layer sampler it
replaced (frozen below as :func:`reference_sample`), so both entry points
draw exactly what the sampler always drew.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import CSRGraph
from repro.sampling import NeighborSampler
from repro.sampling.block import Block, MiniBatch
from repro.sampling.neighbor import _A, _mix64
from repro.utils.ids import sorted_unique


def reference_layer(sampler, frontier, fanout, epoch, layer):
    """The one-frontier layer sampler before ``_sample_layers``, frozen."""
    frontier = sorted_unique(np.asarray(frontier, dtype=np.int64))
    g = sampler.graph
    starts = g.indptr[frontier]
    degs = g.indptr[frontier + 1] - starts
    full_mask = degs <= fanout
    full_nodes = frontier[full_mask]
    full_starts = starts[full_mask]
    full_degs = degs[full_mask]
    total_full = int(full_degs.sum())
    if total_full:
        offs = np.cumsum(full_degs) - full_degs
        flat = np.repeat(full_starts - offs, full_degs) + np.arange(total_full)
        full_src = g.indices[flat]
        full_dst = np.repeat(full_nodes, full_degs)
    else:
        full_src = np.empty(0, dtype=np.int64)
        full_dst = np.empty(0, dtype=np.int64)
    samp_nodes = frontier[~full_mask]
    if samp_nodes.size:
        node_keys = _mix64(
            samp_nodes.astype(np.uint64) ^ sampler._layer_key(epoch, layer)
        )
        draw_ids = np.arange(1, fanout + 1, dtype=np.uint64)
        vals = _mix64(node_keys[:, None] + draw_ids[None, :] * _A)
        samp_degs = degs[~full_mask].astype(np.uint64)
        picks = (vals % samp_degs[:, None]).astype(np.int64)
        edge_pos = starts[~full_mask][:, None] + picks
        samp_src = g.indices[edge_pos.ravel()]
        samp_dst = np.repeat(samp_nodes, fanout)
        key = samp_dst * np.int64(g.num_nodes) + samp_src
        _, first = np.unique(key, return_index=True)
        first.sort()
        samp_src, samp_dst = samp_src[first], samp_dst[first]
    else:
        samp_src = np.empty(0, dtype=np.int64)
        samp_dst = np.empty(0, dtype=np.int64)
    edge_src = np.concatenate([full_src, samp_src])
    edge_dst = np.concatenate([full_dst, samp_dst])
    isolated = frontier[degs == 0]
    if isolated.size:
        edge_src = np.concatenate([edge_src, isolated])
        edge_dst = np.concatenate([edge_dst, isolated])
    return Block.from_global_edges(edge_src, edge_dst, dst_nodes=frontier)


def reference_sample(sampler, seeds, epoch):
    seeds = sorted_unique(np.asarray(seeds, dtype=np.int64))
    blocks, frontier = [], seeds
    for layer in range(sampler.num_layers - 1, -1, -1):
        block = reference_layer(
            sampler, frontier, sampler.fanouts[layer], epoch, layer
        )
        blocks.append(block)
        frontier = block.src_nodes
    return MiniBatch(seeds=seeds, blocks=blocks[::-1])


BLOCK_ARRAYS = ("src_nodes", "dst_nodes", "dst_in_src", "edge_src", "edge_dst")


def assert_identical(got: MiniBatch, want: MiniBatch):
    assert got.seeds.dtype == want.seeds.dtype
    assert np.array_equal(got.seeds, want.seeds)
    assert len(got.blocks) == len(want.blocks)
    for a, b in zip(got.blocks, want.blocks):
        for name in BLOCK_ARRAYS:
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype, name
            assert np.array_equal(x, y), name


@st.composite
def graphs(draw):
    """Sparse random graphs: with a low edge count many nodes are isolated
    or have degree at most the fanout; a few hubs exceed it."""
    n = draw(st.integers(min_value=2, max_value=120))
    m = draw(st.integers(min_value=0, max_value=4 * n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = np.where(rng.random(m) < 0.3, 0, rng.integers(0, n, m))  # a hub
    return CSRGraph.from_edges(src, dst, n)


@st.composite
def cases(draw):
    g = draw(graphs())
    n = g.num_nodes
    fanouts = draw(
        st.lists(st.sampled_from([-1, 1, 2, 3, 5]), min_size=1, max_size=3)
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    # unsorted, duplicate and overlapping seed sets
    node = st.integers(min_value=0, max_value=n - 1)
    sets = draw(
        st.lists(st.lists(node, min_size=1, max_size=12), min_size=1, max_size=6)
    )
    epochs = draw(
        st.lists(st.integers(min_value=0, max_value=3),
                 min_size=len(sets), max_size=len(sets))
    )
    return g, fanouts, seed, sets, epochs


@given(cases())
@settings(max_examples=150, deadline=None)
def test_sample_many_equals_sample_per_group(case):
    g, fanouts, seed, sets, epochs = case
    sampler = NeighborSampler(g, fanouts, global_seed=seed)
    many = sampler.sample_many([np.array(s) for s in sets], epochs)
    assert len(many) == len(sets)
    for seeds, epoch, mb in zip(sets, epochs, many):
        want = reference_sample(sampler, np.array(seeds), epoch)
        assert_identical(mb, want)
        assert_identical(sampler.sample(np.array(seeds), epoch=epoch), want)


def test_groups_of_one_call_are_independent(tiny_dataset):
    """The same seed set twice under one epoch, once under another, and a
    superset: each group is what it would be alone."""
    sampler = NeighborSampler(tiny_dataset.graph, [3, 4], global_seed=5)
    seeds = tiny_dataset.train_seeds[:20]
    sets = [seeds[::-1], seeds, seeds, tiny_dataset.train_seeds[:60]]
    epochs = [2, 2, 7, 2]
    for s, e, mb in zip(sets, epochs, sampler.sample_many(sets, epochs)):
        assert_identical(mb, reference_sample(sampler, s, e))


def test_empty_group_raises_as_sample_does(tiny_dataset):
    sampler = NeighborSampler(tiny_dataset.graph, [3], global_seed=0)
    empty = np.array([], dtype=np.int64)
    with pytest.raises(ValueError, match="empty seed batch"):
        sampler.sample(empty)
    with pytest.raises(ValueError, match="empty seed batch"):
        sampler.sample_many([np.array([1, 2]), empty], [0, 0])
    with pytest.raises(ValueError, match="epochs"):
        sampler.sample_many([np.array([1, 2])], [0, 1])
    assert sampler.sample_many([], []) == []
