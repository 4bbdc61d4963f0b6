"""Tests for bipartite blocks."""

import numpy as np
import pytest

from repro.sampling import Block, MiniBatch


def simple_block():
    # edges: 10->5, 11->5, 12->6 (global ids)
    return Block.from_global_edges(
        np.array([10, 11, 12]), np.array([5, 5, 6])
    )


class TestFromGlobalEdges:
    def test_dst_nodes_unique_sorted(self):
        b = simple_block()
        np.testing.assert_array_equal(b.dst_nodes, [5, 6])

    def test_src_contains_dst(self):
        b = simple_block()
        assert set(b.dst_nodes).issubset(set(b.src_nodes))

    def test_dst_in_src_mapping(self):
        b = simple_block()
        np.testing.assert_array_equal(b.src_nodes[b.dst_in_src], b.dst_nodes)

    def test_edges_sorted_by_dst(self):
        b = simple_block()
        assert np.all(np.diff(b.edge_dst) >= 0)

    def test_edge_endpoints_reconstruct(self):
        b = simple_block()
        src_g = b.src_nodes[b.edge_src]
        dst_g = b.dst_nodes[b.edge_dst]
        pairs = set(zip(src_g.tolist(), dst_g.tolist()))
        assert pairs == {(10, 5), (11, 5), (12, 6)}

    def test_counts(self):
        b = simple_block()
        assert b.num_edges == 3
        assert b.num_dst == 2
        assert b.num_src == 5  # 10,11,12 plus dst 5,6


class TestBlockDerived:
    def test_segment_index_shape_and_values(self):
        b = simple_block()
        dst = b.dst_index()
        assert dst.num_segments == 2
        assert dst.ids.shape == (3,)
        np.testing.assert_array_equal(dst.indptr, [0, 2, 3])
        np.testing.assert_array_equal(dst.counts, [2.0, 1.0])

    def test_degree_per_dst(self):
        b = simple_block()
        np.testing.assert_array_equal(b.degree_per_dst(), [2, 1])

    def test_structure_bytes_positive_and_scales(self):
        b = simple_block()
        assert b.structure_bytes() == 8 * (2 * 3 + 5 + 2)

    def test_misaligned_edges_rejected(self):
        with pytest.raises(ValueError):
            Block(
                src_nodes=np.array([0, 1]),
                dst_nodes=np.array([0]),
                dst_in_src=np.array([0]),
                edge_src=np.array([0, 1]),
                edge_dst=np.array([0]),
            )


class TestMiniBatch:
    def test_input_nodes_are_first_block_sources(self):
        b0 = simple_block()
        b1 = Block.from_global_edges(np.array([5, 6]), np.array([5, 5]))
        mb = MiniBatch(seeds=np.array([5]), blocks=[b0, b1])
        np.testing.assert_array_equal(mb.input_nodes, b0.src_nodes)
        assert mb.num_layers == 2
        assert mb.total_edges() == 5
