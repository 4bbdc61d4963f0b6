"""The partitioner kernels return exactly what their earlier forms did.

``tests/partition_reference.py`` keeps the four kernels of
:mod:`repro.graph.partition` as they were before their host-path rewrite
(a lexsort per matching round, NumPy-scalar growth and refinement loops,
one whole-chunk plurality vote).  Every kernel is compared on its own, and
both public partitioners are compared end to end with the reference
kernels swapped in, over the dataset analogs, part counts, seeds, even and
weighted targets, and three degenerate graphs.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.graph import (
    CoarseningHierarchy,
    CSRGraph,
    fs_like,
    im_like,
    metis_like_partition,
    ps_like,
    random_partition,
    streaming_partition,
)
from repro.graph.datasets import small_dataset
from repro.graph import partition as mod
from repro.utils.random import rng_from
from tests import partition_reference as reference

PARTS = (2, 3, 4, 8, 16)
SEEDS = (0, 1, 5)


def _targets(num_parts: int, weighted: bool):
    if not weighted:
        return None
    return [1.0 + p % 3 for p in range(num_parts)]


def _with_self_loops(graph: CSRGraph) -> CSRGraph:
    """``graph`` plus a self-loop on every third node, placed first in its
    row."""
    n = graph.num_nodes
    loops = np.arange(0, n, 3, dtype=np.int64)
    src = np.r_[loops, np.repeat(np.arange(n), np.diff(graph.indptr))]
    dst = np.r_[loops, graph.indices]
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return CSRGraph(indptr, dst[order])


def _with_isolated_nodes(graph: CSRGraph) -> CSRGraph:
    """``graph`` relabelled onto the even ids of twice as many nodes: every
    odd node has no edges."""
    n = graph.num_nodes
    src = np.repeat(np.arange(n), np.diff(graph.indptr)) * 2
    return CSRGraph.from_edges(src, graph.indices * 2, 2 * n, symmetrize=False)


def _with_hubs(graph: CSRGraph) -> CSRGraph:
    """``graph`` on all ids but three edgeless ones, with 150 extra
    neighbours on four hubs beside them: edgeless, hub, edgeless, hub, hub
    from node 0, and an edgeless node opening the third 97-node chunk just
    before a hub.  A vote budget of 100 edges then meets edgeless nodes
    followed by a node over the budget, at a chunk's start and after a
    one-hub slice."""
    edgeless, hubs = [0, 2, 194], [1, 3, 4, 195]
    n = graph.num_nodes + len(edgeless)
    ids = np.setdiff1d(np.arange(n), edgeless)
    src = [ids[np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))]]
    dst = [ids[graph.indices]]
    for k, hub in enumerate(hubs):
        src.append(np.full(150, hub))
        dst.append(ids[200 + 150 * k : 350 + 150 * k])
    return CSRGraph.from_edges(np.concatenate(src), np.concatenate(dst), n)


#: row name -> (graph factory, ``coarsen_until``).  The small rows lower
#: the target so that they are coarsened too.
ROWS = {
    "ps": (lambda: ps_like(12_000, feature_dim=4).graph, 4_000),
    "fs": (lambda: fs_like(6_000, feature_dim=4).graph, 4_000),
    "im": (lambda: im_like(6_000, feature_dim=4).graph, 4_000),
    "small": (lambda: small_dataset().graph, 500),
    "edgeless": (lambda: CSRGraph(np.zeros(1_001, np.int64), np.zeros(0, np.int64)),
                 500),
    "isolated": (lambda: _with_isolated_nodes(small_dataset(n=600).graph), 500),
    "self_loops": (lambda: _with_self_loops(small_dataset(n=1_000).graph), 500),
    "hubs": (lambda: _with_hubs(small_dataset(n=1_000).graph), 500),
}
#: the two largest analog rows run under ``-m slow`` only
ANALOGS = [
    pytest.param(row, marks=pytest.mark.slow) if row in ("ps", "fs") else row
    for row in ("ps", "fs", "im", "small")
]
EDGE_CASES = ("edgeless", "isolated", "self_loops", "hubs")


@functools.lru_cache(maxsize=None)
def _graph(row: str) -> CSRGraph:
    return ROWS[row][0]()


@functools.lru_cache(maxsize=None)
def _level_chain(row: str, seed: int):
    """Every level heavy-edge matching reaches from the base graph,
    ignoring the hierarchy's stop rules, with each level's matching from
    both kernel forms and the generator state after each."""
    new_rng = rng_from(seed, 0x4E715)
    ref_rng = rng_from(seed, 0x4E715)
    level = mod._base_level(_graph(row))
    chain = []
    while len(chain) < 4:
        new = mod._heavy_edge_matching(level, new_rng)
        ref = reference._heavy_edge_matching(level, ref_rng)
        chain.append((level, new, ref, new_rng.bit_generator.state,
                      ref_rng.bit_generator.state))
        if int(ref.max(initial=-1)) + 1 == level.num_nodes:
            break
        level = mod._coarsen(level, ref)
    return chain


# --------------------------------------------------------------------- #
# each kernel on its own
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("row", ANALOGS + list(EDGE_CASES))
def test_heavy_edge_matching(row, seed):
    for level, new, ref, new_state, ref_state in _level_chain(row, seed):
        np.testing.assert_array_equal(new, ref)
        assert new.dtype == ref.dtype
        assert new_state == ref_state


def _check_growth_and_refinement(row, num_parts, weighted):
    targets = mod._normalize_weights(_targets(num_parts, weighted), num_parts)
    for level, *_ in _level_chain(row, 0):
        ref = reference._initial_partition(level, num_parts, targets)
        np.testing.assert_array_equal(
            mod._initial_partition(level, num_parts, targets), ref
        )
        # From region growing (few moves) and from a random assignment
        # under a tight tolerance (many moves refused by the balance bounds).
        rand = random_partition(level.num_nodes, num_parts, seed=num_parts)
        for start, tol in ((ref, 0.08), (rand, 0.02)):
            np.testing.assert_array_equal(
                mod._refine(level, start.copy(), num_parts, 4, tol, targets),
                reference._refine(level, start.copy(), num_parts, 4, tol, targets),
            )


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("num_parts", PARTS)
@pytest.mark.parametrize("row", ANALOGS)
def test_initial_partition_and_refine(row, num_parts, weighted):
    _check_growth_and_refinement(row, num_parts, weighted)


@pytest.mark.parametrize("vote_edges", [mod._VOTE_EDGES, 100])
@pytest.mark.parametrize("chunk_nodes", [262_144, 1_000, 97])
@pytest.mark.parametrize("row", ANALOGS + list(EDGE_CASES))
def test_cluster_label_propagation(row, chunk_nodes, vote_edges, monkeypatch):
    """Also with a vote budget small enough to split every chunk into
    many slices (the default splits only the largest rows' chunks)."""
    graph = _graph(row)
    monkeypatch.setattr(mod, "_VOTE_EDGES", vote_edges)
    for clusters in (16, 512):
        np.testing.assert_array_equal(
            mod._cluster_label_propagation(graph, clusters, 4, chunk_nodes, 1.3),
            reference._cluster_label_propagation(
                graph, clusters, 4, chunk_nodes, 1.3
            ),
        )


# --------------------------------------------------------------------- #
# the public partitioners, end to end
# --------------------------------------------------------------------- #
def _check_metis(row, seed, weighted, parts, monkeypatch):
    """Fresh and hierarchy-reused calls against the reference kernels
    (coarsened once per seed: its matching is pinned above)."""
    graph, coarsen_until = _graph(row), ROWS[row][1]
    hierarchy = CoarseningHierarchy(graph, seed, coarsen_until=coarsen_until)
    ref_hierarchy = CoarseningHierarchy(graph, seed, coarsen_until=coarsen_until)
    for num_parts in parts:
        weights = _targets(num_parts, weighted)
        fresh = metis_like_partition(
            graph, num_parts, seed, coarsen_until=coarsen_until, weights=weights
        )
        reused = metis_like_partition(
            graph, num_parts, weights=weights, hierarchy=hierarchy
        )
        with monkeypatch.context() as m:
            reference.install_reference_kernels(m)
            ref = metis_like_partition(
                graph, num_parts, weights=weights, hierarchy=ref_hierarchy
            )
        np.testing.assert_array_equal(fresh, ref)
        np.testing.assert_array_equal(reused, ref)


def _check_streaming(row, weighted, parts, chunk_nodes, fine_refine, monkeypatch):
    graph = _graph(row)
    for num_parts in parts:
        kwargs = dict(
            weights=_targets(num_parts, weighted), chunk_nodes=chunk_nodes,
            fine_refine=fine_refine,
        )
        new = streaming_partition(graph, num_parts, **kwargs)
        with monkeypatch.context() as m:
            reference.install_reference_kernels(m)
            # the cluster graph accumulated whole, as before slicing
            m.setattr(mod, "_VOTE_EDGES", 1 << 40)
            ref = streaming_partition(graph, num_parts, **kwargs)
        np.testing.assert_array_equal(new, ref)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("row", ANALOGS)
def test_metis_like_partition(row, seed, weighted, monkeypatch):
    _check_metis(row, seed, weighted, PARTS, monkeypatch)


@pytest.mark.parametrize("fine_refine", [True, False])
@pytest.mark.parametrize(
    "chunk_nodes, vote_edges", [(262_144, mod._VOTE_EDGES), (1_000, 100)]
)
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("row", ANALOGS)
def test_streaming_partition(
    row, weighted, chunk_nodes, vote_edges, fine_refine, monkeypatch
):
    """The default chunk and budget, and small chunks each voted and
    accumulated in many edge slices."""
    monkeypatch.setattr(mod, "_VOTE_EDGES", vote_edges)
    _check_streaming(row, weighted, PARTS, chunk_nodes, fine_refine, monkeypatch)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("row", EDGE_CASES)
def test_degenerate_graphs(row, weighted, monkeypatch):
    """No edges, edgeless nodes among connected ones, self-loops (which
    matching must skip), and edgeless nodes beside hubs over the vote
    budget, through every kernel and both partitioners."""
    parts = (2, 3, 16)
    for num_parts in parts:
        _check_growth_and_refinement(row, num_parts, weighted)
    _check_metis(row, 0, weighted, parts, monkeypatch)
    for chunk_nodes, vote_edges in ((262_144, mod._VOTE_EDGES), (1_000, 100)):
        monkeypatch.setattr(mod, "_VOTE_EDGES", vote_edges)
        for fine_refine in (True, False):
            _check_streaming(
                row, weighted, parts, chunk_nodes, fine_refine, monkeypatch
            )


def test_the_reference_is_what_the_partitioners_call(monkeypatch):
    """Installing the reference really swaps the kernels both public
    partitioners reach (so the end-to-end pins compare two forms)."""
    calls = []
    with monkeypatch.context() as m:
        reference.install_reference_kernels(m)
        for name in reference.KERNELS:
            kernel = getattr(mod, name)
            assert kernel is getattr(reference, name)
            m.setattr(
                mod, name,
                lambda *a, _k=kernel, _n=name, **kw: calls.append(_n) or _k(*a, **kw),
            )
        graph = _graph("small")
        metis_like_partition(graph, 4, coarsen_until=500)
        streaming_partition(graph, 4)
    assert set(calls) == set(reference.KERNELS)
