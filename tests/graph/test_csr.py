"""Tests for CSR graph storage."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import CSRGraph


def in_neighbors(g, v):
    """In-neighbors of ``v`` (a view of ``g``'s CSR arrays)."""
    return g.indices[g.indptr[v] : g.indptr[v + 1]]


def line_graph(n=5):
    """0-1-2-...-(n-1) path, undirected."""
    src = np.arange(n - 1)
    dst = np.arange(1, n)
    return CSRGraph.from_edges(src, dst, n)


class TestConstruction:
    def test_from_edges_symmetrizes(self):
        g = CSRGraph.from_edges(np.array([0]), np.array([1]), 2)
        assert g.num_edges == 2
        np.testing.assert_array_equal(in_neighbors(g, 0), [1])
        np.testing.assert_array_equal(in_neighbors(g, 1), [0])

    def test_from_edges_directed(self):
        g = CSRGraph.from_edges(np.array([0]), np.array([1]), 2, symmetrize=False)
        assert g.num_edges == 1
        assert in_neighbors(g, 0).size == 0
        np.testing.assert_array_equal(in_neighbors(g, 1), [0])

    def test_self_loops_removed(self):
        g = CSRGraph.from_edges(np.array([0, 1]), np.array([0, 1]), 2)
        assert g.num_edges == 0

    def test_duplicates_removed(self):
        g = CSRGraph.from_edges(np.array([0, 0, 0]), np.array([1, 1, 1]), 2)
        assert g.num_edges == 2  # one each direction

    def test_duplicates_kept_when_dedupe_off(self):
        g = CSRGraph.from_edges(
            np.array([0, 0]), np.array([1, 1]), 2, symmetrize=False, dedupe=False
        )
        assert g.num_edges == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            CSRGraph.from_edges(np.array([0]), np.array([5]), 2)

    def test_from_scipy(self):
        mat = sp.csr_matrix(np.array([[0, 1.0], [1.0, 0]]))
        g = CSRGraph.from_scipy(mat)
        assert g.num_nodes == 2 and g.num_edges == 2

    def test_from_scipy_rejects_non_square(self):
        with pytest.raises(ValueError):
            CSRGraph.from_scipy(sp.csr_matrix(np.ones((2, 3))))

    def test_bad_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([1, 2]), np.array([0]))


class TestAccessors:
    def test_degrees(self):
        g = line_graph(4)
        np.testing.assert_array_equal(g.in_degrees, [1, 2, 2, 1])

    def test_neighbors(self):
        g = line_graph(4)
        np.testing.assert_array_equal(np.sort(in_neighbors(g, 1)), [0, 2])

    def test_neighbor_slices(self):
        g = line_graph(4)
        starts, stops = g.neighbor_slices(np.array([0, 2]))
        np.testing.assert_array_equal(stops - starts, [1, 2])

    def test_to_scipy_round_trip(self):
        g = line_graph(5)
        g2 = CSRGraph.from_scipy(g.to_scipy())
        np.testing.assert_array_equal(g.indptr, g2.indptr)
        np.testing.assert_array_equal(g.indices, g2.indices)


class TestOneHopClosure:
    def test_line_graph_closure(self):
        g = line_graph(5)
        np.testing.assert_array_equal(
            g.one_hop_closure(np.array([2])), [1, 2, 3]
        )

    def test_includes_input_nodes(self):
        g = line_graph(5)
        out = g.one_hop_closure(np.array([0, 4]))
        assert 0 in out and 4 in out

    def test_isolated_node(self):
        g = CSRGraph.from_edges(np.array([0]), np.array([1]), 3)
        np.testing.assert_array_equal(g.one_hop_closure(np.array([2])), [2])

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        src = rng.integers(0, 50, 200)
        dst = rng.integers(0, 50, 200)
        g = CSRGraph.from_edges(src, dst, 50)
        nodes = rng.choice(50, 10, replace=False)
        expected = set(nodes.tolist())
        for v in nodes:
            expected.update(in_neighbors(g, v).tolist())
        np.testing.assert_array_equal(
            g.one_hop_closure(nodes), sorted(expected)
        )
