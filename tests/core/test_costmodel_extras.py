"""Tests for full-neighbor fanouts."""

import numpy as np
import pytest

from repro.graph.datasets import small_dataset
from repro.sampling import NeighborSampler


def in_neighbors(g, v):
    """In-neighbors of ``v`` (a view of ``g``'s CSR arrays)."""
    return g.indices[g.indptr[v] : g.indptr[v + 1]]


@pytest.fixture(scope="module")
def ds():
    return small_dataset(n=1000, feature_dim=16, num_classes=4, seed=6)


class TestFullNeighborFanout:
    def test_minus_one_takes_all_neighbors(self, ds):
        s = NeighborSampler(ds.graph, [-1], global_seed=0)
        seeds = ds.train_seeds[:16]
        b = s.sample(seeds).blocks[0]
        for i, v in enumerate(b.dst_nodes):
            expected = np.sort(
                np.unique(np.append(in_neighbors(ds.graph, v), []))
            ) if in_neighbors(ds.graph, v).size else np.array([v])
            got = np.sort(b.src_nodes[b.edge_src[b.edge_dst == i]])
            np.testing.assert_array_equal(got, np.unique(expected))

    def test_mixed_full_and_sampled_layers(self, ds):
        s = NeighborSampler(ds.graph, [-1, 3], global_seed=0)
        mb = s.sample(ds.train_seeds[:8])
        assert mb.blocks[1].degree_per_dst().max() <= 3
        # The input layer took full neighbor lists (no fanout cap).
        degs = ds.graph.in_degrees[mb.blocks[0].dst_nodes]
        block_degs = mb.blocks[0].degree_per_dst()
        np.testing.assert_array_equal(
            block_degs[degs > 0], degs[degs > 0]
        )

    def test_zero_fanout_still_rejected(self, ds):
        with pytest.raises(ValueError):
            NeighborSampler(ds.graph, [0])
        with pytest.raises(ValueError):
            NeighborSampler(ds.graph, [-2])
