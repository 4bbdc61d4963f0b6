"""Tests for the multilevel partitioner and baselines."""

import numpy as np
import pytest

from repro.graph import (
    CoarseningHierarchy,
    community_graph,
    edge_cut_fraction,
    metis_like_partition,
    partition_balance,
    power_law_graph,
    ps_like,
    random_partition,
)


@pytest.fixture(scope="module")
def comm_graph():
    return community_graph(4000, 10.0, 8, 0.9, seed=1)


class TestBaselines:
    def test_random_partition_range(self):
        p = random_partition(1000, 4, seed=0)
        assert p.shape == (1000,)
        assert set(np.unique(p)) <= set(range(4))

    def test_random_partition_roughly_balanced(self):
        p = random_partition(10_000, 4, seed=0)
        assert partition_balance(p, 4) < 1.1


class TestMetisLike:
    def test_balance_within_tolerance(self, comm_graph):
        parts = metis_like_partition(comm_graph, 8, seed=0, balance_tol=0.08)
        assert partition_balance(parts, 8) <= 1.25

    def test_all_parts_populated(self, comm_graph):
        parts = metis_like_partition(comm_graph, 8, seed=0)
        assert len(np.unique(parts)) == 8

    def test_beats_random_cut_substantially(self, comm_graph):
        metis = metis_like_partition(comm_graph, 8, seed=0)
        rand = random_partition(comm_graph.num_nodes, 8, seed=0)
        cut_m = edge_cut_fraction(comm_graph, metis)
        cut_r = edge_cut_fraction(comm_graph, rand)
        assert cut_m < 0.6 * cut_r

    def test_single_part_trivial(self, comm_graph):
        parts = metis_like_partition(comm_graph, 1)
        assert np.all(parts == 0)

    def test_deterministic(self, comm_graph):
        a = metis_like_partition(comm_graph, 4, seed=5)
        b = metis_like_partition(comm_graph, 4, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_rejects_nonpositive_parts(self, comm_graph):
        with pytest.raises(ValueError):
            metis_like_partition(comm_graph, 0)

    def test_recovers_planted_communities(self):
        """With strong communities, most intra-community pairs co-locate."""
        g, comm = community_graph(
            2000, 12.0, 4, 0.95, seed=2, return_communities=True
        )
        parts = metis_like_partition(g, 4, seed=0)
        # For each community, its nodes should concentrate in few parts.
        agreement = 0
        for c in range(4):
            members = parts[comm == c]
            agreement += np.bincount(members, minlength=4).max()
        assert agreement / g.num_nodes > 0.6


class TestCoarseningHierarchy:
    """Coarsening depends on (graph, seed) only: one hierarchy serves every
    part count and weighting, bit-identically to from-scratch calls."""

    WEIGHTS = {2: [3.0, 1.0], 4: [4.0, 1.0, 1.0, 1.0], 8: [2.0] * 4 + [1.0] * 4}

    @pytest.fixture(scope="class")
    def graph(self):
        return power_law_graph(4000, 8.0, 2.1, seed=3)

    @pytest.fixture(scope="class")
    def hierarchy(self, graph):
        h = CoarseningHierarchy(graph, seed=3, coarsen_until=500)
        assert len(h.levels()) > 2  # the graph really is coarsened
        return h

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("num_parts", [2, 4, 8])
    def test_reuse_equals_from_scratch(
        self, graph, hierarchy, num_parts, weighted
    ):
        weights = self.WEIGHTS[num_parts] if weighted else None
        scratch = metis_like_partition(
            graph, num_parts, seed=3, coarsen_until=500, weights=weights
        )
        reused = metis_like_partition(
            graph, num_parts, weights=weights, hierarchy=hierarchy
        )
        assert np.array_equal(scratch, reused)

    def test_matching_runs_once_per_hierarchy(self, graph, monkeypatch):
        from repro.graph import partition as mod

        calls = []
        real = mod._heavy_edge_matching
        monkeypatch.setattr(
            mod,
            "_heavy_edge_matching",
            lambda level, rng: calls.append(level.num_nodes) or real(level, rng),
        )
        h = CoarseningHierarchy(graph, seed=3, coarsen_until=500)
        metis_like_partition(graph, 8, hierarchy=h)
        once = list(calls)
        assert once  # one matching per coarsened level
        for k in (2, 4, 8):
            metis_like_partition(graph, k, hierarchy=h)
        assert calls == once

    def test_a_stalled_matching_is_not_contracted(self, monkeypatch):
        """The 5 % rule reads the matching's coarse node count, so only a
        level that is kept pays for its contraction."""
        from repro.graph import partition as mod

        graph = ps_like(6000, feature_dim=4).graph  # stalls above 4,000
        matchings, contractions = [], []
        real_match, real_coarsen = mod._heavy_edge_matching, mod._coarsen
        monkeypatch.setattr(
            mod, "_heavy_edge_matching",
            lambda level, rng: matchings.append(level.num_nodes)
            or real_match(level, rng),
        )
        monkeypatch.setattr(
            mod, "_coarsen",
            lambda level, m: contractions.append(level.num_nodes)
            or real_coarsen(level, m),
        )
        h = CoarseningHierarchy(graph, seed=0)
        levels = h.levels()
        assert h.summary()["stalled"]
        assert len(matchings) == len(levels)  # the last one stalled
        assert contractions == matchings[:-1]
        for k in (2, 4):
            metis_like_partition(graph, k, hierarchy=h)
        assert len(contractions) == len(levels) - 1

    def test_summary_is_the_level_sizes(self, graph, hierarchy):
        assert CoarseningHierarchy(graph).summary() is None  # not built yet
        summary = hierarchy.summary()
        sizes = [lv.num_nodes for lv in hierarchy.levels()]
        assert summary == {
            "levels": sizes,
            "target": 500,
            "stalled": sizes[-1] > 500 and len(sizes) < hierarchy.max_levels,
        }
        assert all(type(n) is int for n in summary["levels"])

    def test_rejects_a_hierarchy_of_another_graph(self, hierarchy):
        other = community_graph(600, 6.0, 4, 0.9, seed=2)
        with pytest.raises(ValueError, match="different graph"):
            metis_like_partition(other, 4, hierarchy=hierarchy)
