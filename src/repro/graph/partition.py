"""Graph partitioning: a multilevel edge-cut partitioner plus baselines.

The paper uses METIS to assign graph nodes to GPUs for the SNP and DNP
strategies (and shows in Fig. 11 how badly they degrade under random
partitioning).  METIS itself is not available offline, so
:func:`metis_like_partition` implements the standard multilevel scheme METIS
popularized (Karypis & Kumar, 1998):

1. **Coarsening** — repeated heavy-edge matching collapses matched node
   pairs until the graph is small;
2. **Initial partitioning** — greedy balanced region growing on the
   coarsest graph, seeded from high-degree nodes;
3. **Uncoarsening + refinement** — projected back level by level with
   boundary Kernighan-Lin-style moves that reduce the edge cut while
   keeping parts within a balance tolerance.

On the community-structured datasets in this repo it recovers partitions
with edge-cut fractions far below random, which is exactly the contrast
paper Fig. 11 exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.random import rng_from
from repro.utils.validation import check_positive


def _normalize_weights(
    weights: Optional[Sequence[float]], num_parts: int
) -> Optional[np.ndarray]:
    """Validate and normalize per-part weights to targets summing to 1.

    ``None`` means equal-sized parts.
    """
    if weights is None:
        return None
    targets = np.asarray(weights, dtype=np.float64)
    if targets.shape != (num_parts,):
        raise ValueError(
            f"weights must have one entry per part "
            f"({targets.shape} != ({num_parts},))"
        )
    if not np.all(targets > 0):
        raise ValueError("partition weights must be strictly positive")
    return targets / targets.sum()


def random_partition(
    num_nodes: int,
    num_parts: int,
    seed: int = 0,
    *,
    weights: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Random node-to-part assignment (paper Fig. 11 baseline).

    With ``weights``, parts are drawn proportionally instead of uniformly.
    """
    check_positive("num_parts", num_parts)
    rng = rng_from(seed, 0xBAD)
    targets = _normalize_weights(weights, num_parts)
    if targets is None:
        return rng.integers(0, num_parts, size=num_nodes).astype(np.int64)
    return rng.choice(num_parts, size=num_nodes, p=targets).astype(np.int64)


# --------------------------------------------------------------------- #
# multilevel partitioner internals
# --------------------------------------------------------------------- #
@dataclass
class _Level:
    """One level of the coarsening hierarchy."""

    indptr: np.ndarray
    indices: np.ndarray
    edge_weights: np.ndarray
    node_weights: np.ndarray
    # Mapping from the *finer* level's nodes to this level's nodes.
    fine_to_coarse: Optional[np.ndarray]

    @property
    def num_nodes(self) -> int:
        return self.indptr.shape[0] - 1


def _last_argmax(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """Each segment's maximum and the last position holding it.

    The segments ``[starts[i], starts[i] + lengths[i])`` are non-empty and
    tile ``values`` in order.  The position is the one a stable sort by
    (segment, value) would put last in its segment.
    """
    top = np.maximum.reduceat(values, starts)
    at_top = np.where(
        values == np.repeat(top, lengths), np.arange(values.size), -1
    )
    return top, np.maximum.reduceat(at_top, starts)


def _heavy_edge_matching(
    level: _Level, rng: np.random.Generator, rounds: int = 5
) -> np.ndarray:
    """Vectorized heavy-edge matching via repeated mutual-best pairing.

    Each round, every unmatched node nominates its heaviest unmatched
    neighbor (random tie-breaking); mutually-nominating pairs are matched.
    This is the standard parallel approximation of sequential HEM and
    typically matches >80% of nodes in a few rounds.  Returns
    ``fine_to_coarse``: matched pairs share a coarse node id.
    """
    n = level.num_nodes
    indptr, indices, ew = level.indptr, level.indices, level.edge_weights
    match = np.arange(n, dtype=np.int64)  # self-matched by default
    unmatched = np.ones(n, dtype=bool)
    deg = np.diff(indptr)
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    noise = rng.random(ew.shape[0]) * 1e-6
    # CSR rows are contiguous, so each non-empty row's nomination is a
    # segmented reduction over its own slice: no per-round edge sort.
    rows = np.flatnonzero(deg)
    row_start = indptr[rows]
    row_deg = deg[rows]
    for _ in range(rounds):
        valid = unmatched[src] & unmatched[indices] & (src != indices)
        if not valid.any():
            break
        w = np.where(valid, ew + noise, -np.inf)
        # Ties to the last position: the entry a stable sort by
        # (row, weight) would put last in the row.
        row_max, best_edge = _last_argmax(w, row_start, row_deg)
        has_valid = np.isfinite(row_max)
        best = np.full(n, -1, dtype=np.int64)
        best[rows[has_valid]] = indices[best_edge[has_valid]]
        # Mutual nominations become matches.
        cand = np.nonzero(best >= 0)[0]
        mutual = cand[best[best[cand]] == cand]
        pairs = mutual[mutual < best[mutual]]
        if pairs.size == 0:
            break
        partners = best[pairs]
        match[pairs] = partners
        match[partners] = pairs
        unmatched[pairs] = False
        unmatched[partners] = False
    owner = np.minimum(np.arange(n), match)
    _, fine_to_coarse = np.unique(owner, return_inverse=True)
    return fine_to_coarse.astype(np.int64)


def _coarsen(level: _Level, fine_to_coarse: np.ndarray) -> _Level:
    """Build the coarse graph induced by a matching."""
    n_coarse = int(fine_to_coarse.max()) + 1
    src = np.repeat(np.arange(level.num_nodes), np.diff(level.indptr))
    dst = level.indices
    cu, cv = fine_to_coarse[src], fine_to_coarse[dst]
    keep = cu != cv
    cu, cv, w = cu[keep], cv[keep], level.edge_weights[keep]
    # Merge parallel edges, summing weights.
    key = cu * np.int64(n_coarse) + cv
    order = np.argsort(key, kind="stable")
    key, cu, cv, w = key[order], cu[order], cv[order], w[order]
    if key.size:
        boundary = np.empty(key.size, dtype=bool)
        boundary[0] = True
        boundary[1:] = key[1:] != key[:-1]
        group = np.cumsum(boundary) - 1
        merged_w = np.bincount(group, weights=w)
        cu, cv = cu[boundary], cv[boundary]
    else:
        merged_w = w
    counts = np.bincount(cu, minlength=n_coarse)
    indptr = np.zeros(n_coarse + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    node_weights = np.bincount(fine_to_coarse, weights=level.node_weights, minlength=n_coarse)
    return _Level(
        indptr=indptr,
        indices=cv.astype(np.int64),
        edge_weights=merged_w.astype(np.float64),
        node_weights=node_weights,
        fine_to_coarse=fine_to_coarse,
    )


def _goals(
    total_w: float, num_parts: int, targets: Optional[np.ndarray]
) -> np.ndarray:
    """Each part's target node weight: an equal share of ``total_w``, or
    its ``targets`` fraction (normalized per-part weights) of it."""
    if targets is None:
        return np.full(num_parts, total_w / num_parts)
    return total_w * targets


def _initial_partition(
    level: _Level,
    num_parts: int,
    targets: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Greedy balanced region growing on the coarsest graph.

    Capacities and the fill order follow each part's goal (:func:`_goals`):
    parts grow least-filled first relative to their goal.  Part loads are
    integer-valued, so with equal goals ``loads / goal`` orders (ties
    included) exactly as ``loads`` does.
    """
    n = level.num_nodes
    indptr, indices = level.indptr, level.indices
    node_weights = level.node_weights
    total_w = node_weights.sum()
    # ``parts`` and ``loads`` are Python lists and ``cap`` Python floats:
    # the growth loop touches one element at a time, and a NumPy scalar
    # read or write costs several times a list's.  Python float arithmetic
    # is the same IEEE double arithmetic, so every load is unchanged.
    goal = _goals(total_w, num_parts, targets)
    cap = (goal * 1.05).tolist()
    fill = lambda: np.array(loads) / goal  # noqa: E731 — ordering key for part growth
    parts = [-1] * n
    loads = [0.0] * num_parts
    degree_order = np.argsort(-np.diff(indptr))
    frontier_sets: List[List[int]] = [[] for _ in range(num_parts)]
    seeds_iter = iter(degree_order)
    for p in range(num_parts):
        for s in seeds_iter:
            s = int(s)
            if parts[s] == -1:
                parts[s] = p
                loads[p] += float(node_weights[s])
                frontier_sets[p].extend(indices[indptr[s] : indptr[s + 1]].tolist())
                break
    # Round-robin BFS growth, least-filled part first.
    active = True
    while active:
        active = False
        for p in np.argsort(fill()).tolist():
            if loads[p] >= cap[p]:
                continue
            frontier = frontier_sets[p]
            while frontier:
                v = frontier.pop()
                if parts[v] == -1:
                    parts[v] = p
                    loads[p] += float(node_weights[v])
                    frontier.extend(indices[indptr[v] : indptr[v + 1]].tolist())
                    active = True
                    break
    # Any disconnected leftovers go to the least-filled parts.
    parts = np.array(parts, dtype=np.int64)
    for v in np.nonzero(parts == -1)[0]:
        p = int(np.argmin(fill()))
        parts[v] = p
        loads[p] += float(node_weights[v])
    return parts


# Refinement candidates converted to Python lists at a time: converting a
# whole pass at once costs megabytes of list objects on a 120k-node graph.
_REFINE_BLOCK = 4_096


def _refine(
    level: _Level,
    parts: np.ndarray,
    num_parts: int,
    passes: int,
    balance_tol: float,
    targets: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Boundary refinement: greedily move nodes to their best-connected part.

    A node moves when its heaviest-adjacency part differs from its current
    part and the move keeps both parts within the balance tolerance,
    measured relative to each part's goal (:func:`_goals`).  This is the
    lightweight FM-style refinement used at each uncoarsening level.
    """
    n = level.num_nodes
    indptr, indices, ew = level.indptr, level.indices, level.edge_weights
    node_weights = level.node_weights
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    loads = np.bincount(parts, weights=node_weights, minlength=num_parts).tolist()
    total_w = node_weights.sum()
    goal = _goals(total_w, num_parts, targets)
    cap = (goal * (1.0 + balance_tol)).tolist()
    floor = (goal * (1.0 - balance_tol)).tolist()
    for _ in range(passes):
        # Adjacency weight of every node to every part, in one bincount.
        key = src * np.int64(num_parts) + parts[indices]
        conn = np.bincount(key, weights=ew, minlength=n * num_parts).reshape(
            n, num_parts
        )
        best = np.argmax(conn, axis=1)
        cur_conn = conn[np.arange(n), parts]
        gain = conn[np.arange(n), best] - cur_conn
        cand = np.nonzero((best != parts) & (gain > 0))[0]
        if cand.size == 0:
            break
        # Apply moves greedily by descending gain, maintaining balance.
        # Each candidate reads only its own pre-pass part, and appears
        # once, so the loop runs over Python lists a block at a time and
        # writes a block's accepted moves after it.
        cand = cand[np.argsort(-gain[cand])]
        moved_any = False
        for lo in range(0, cand.size, _REFINE_BLOCK):
            block = cand[lo : lo + _REFINE_BLOCK]
            moved = []
            for v, b, c, wv in zip(
                block.tolist(), best[block].tolist(), parts[block].tolist(),
                node_weights[block].tolist(),
            ):
                if loads[b] + wv > cap[b] or loads[c] - wv < floor[c]:
                    continue
                moved.append(v)
                loads[b] += wv
                loads[c] -= wv
            if moved:
                parts[moved] = best[moved]
                moved_any = True
        if not moved_any:
            break
    return parts


def _base_level(graph: CSRGraph) -> _Level:
    """The finest level: the input graph with unit node and edge weights."""
    return _Level(
        indptr=np.asarray(graph.indptr),
        indices=np.asarray(graph.indices),
        edge_weights=np.ones(graph.num_edges, dtype=np.float64),
        node_weights=np.ones(graph.num_nodes, dtype=np.float64),
        fine_to_coarse=None,
    )


class CoarseningHierarchy:
    """The coarsening phase of :func:`metis_like_partition`, built once.

    Heavy-edge matching and graph contraction depend only on the graph and
    the seed (the seeded generator is consumed nowhere else), never on
    ``num_parts`` or ``weights`` — so one hierarchy serves every partition
    of the same ``(graph, seed)``: the full cluster, each device subset the
    cost planner prices, and every elastic re-partition.  The levels are
    built on first use and kept; partitions computed through a reused
    hierarchy are bit-identical to from-scratch calls.
    """

    def __init__(
        self,
        graph: CSRGraph,
        seed: int = 0,
        *,
        coarsen_until: int = 4_000,
        max_levels: int = 12,
    ):
        self.graph = graph
        self.seed = int(seed)
        self.coarsen_until = int(coarsen_until)
        self.max_levels = int(max_levels)
        self._coarse: Optional[List[_Level]] = None
        self._stalled = False

    def levels(self) -> List[_Level]:
        """Finest-to-coarsest levels (the base level is rebuilt per call:
        its unit weights are cheap to make and large to keep)."""
        base = _base_level(self.graph)
        if self._coarse is None:
            rng = rng_from(self.seed, 0x4E715)
            levels = [base]
            while (
                levels[-1].num_nodes > self.coarsen_until
                and len(levels) < self.max_levels
            ):
                matching = _heavy_edge_matching(levels[-1], rng)
                if int(matching.max()) + 1 >= levels[-1].num_nodes * 0.95:
                    self._stalled = True  # contract nothing, stop
                    break
                levels.append(_coarsen(levels[-1], matching))
            self._coarse = levels[1:]
        return [base] + self._coarse

    def summary(self) -> Optional[Dict[str, Any]]:
        """The coarsening in integers, once built (``None`` before): every
        level's node count, finest first, the ``coarsen_until`` target, and
        whether matching stalled above the target."""
        if self._coarse is None:
            return None
        sizes = [self.graph.num_nodes] + [lv.num_nodes for lv in self._coarse]
        return {
            "levels": sizes,
            "target": self.coarsen_until,
            "stalled": self._stalled,
        }


def metis_like_partition(
    graph: CSRGraph,
    num_parts: int,
    seed: int = 0,
    *,
    coarsen_until: int = 4_000,
    max_levels: int = 12,
    refine_passes: int = 4,
    balance_tol: float = 0.08,
    weights: Optional[Sequence[float]] = None,
    hierarchy: Optional[CoarseningHierarchy] = None,
) -> np.ndarray:
    """Multilevel k-way edge-cut partitioning (METIS stand-in).

    Parameters
    ----------
    graph:
        Input topology (treated as undirected; the CSR should be symmetric).
    num_parts:
        Number of parts (one per simulated GPU for SNP/DNP).
    coarsen_until:
        Stop coarsening when the graph has at most this many nodes.
    balance_tol:
        Allowed relative deviation of part weights from their target share.
    weights:
        Optional per-part capacity weights (e.g. device speeds): part
        ``p`` targets ``weights[p] / sum(weights)`` of the node weight, so
        a 2x-faster device owns ~2x the nodes.  ``None`` means
        equal-sized parts.
    hierarchy:
        A :class:`CoarseningHierarchy` of this ``graph`` to partition on
        instead of coarsening again; it then supplies ``seed``,
        ``coarsen_until`` and ``max_levels``.  The result equals the
        from-scratch call with those values bit for bit.

    Returns
    -------
    ``(num_nodes,)`` int64 part assignment.
    """
    check_positive("num_parts", num_parts)
    targets = _normalize_weights(weights, num_parts)
    if num_parts == 1:
        return np.zeros(graph.num_nodes, dtype=np.int64)
    if hierarchy is None:
        hierarchy = CoarseningHierarchy(
            graph, seed, coarsen_until=coarsen_until, max_levels=max_levels
        )
    elif hierarchy.graph is not graph:
        raise ValueError("hierarchy was coarsened from a different graph")
    levels = hierarchy.levels()

    parts = _initial_partition(levels[-1], num_parts, targets)
    parts = _refine(
        levels[-1], parts, num_parts, refine_passes, balance_tol, targets
    )

    # Uncoarsen: project and refine at each finer level.
    for level_idx in range(len(levels) - 1, 0, -1):
        mapping = levels[level_idx].fine_to_coarse
        parts = parts[mapping]
        parts = _refine(
            levels[level_idx - 1], parts, num_parts, refine_passes,
            balance_tol, targets,
        )
    return parts.astype(np.int64)


# --------------------------------------------------------------------- #
# coarsen-once streaming partitioner (out-of-core scale)
# --------------------------------------------------------------------- #
# Edges one plurality vote reads at a time.  A vote builds several
# edge-sized temporaries, so it runs over node slices of at most this many
# edges (a node with more gets a slice of its own): the vote's memory stays
# bounded however many nodes a chunk holds.
_VOTE_EDGES = 1 << 16


def _edge_slices(indptr: np.ndarray, start: int, stop: int):
    """Consecutive node ranges covering ``[start, stop)``, each holding at
    most :data:`_VOTE_EDGES` edges or a single node.  Ranges without edges
    (edgeless nodes before a node over the budget) cast no vote and are
    skipped."""
    while start < stop:
        end = int(np.searchsorted(indptr, indptr[start] + _VOTE_EDGES, "right")) - 1
        end = min(max(end, start + 1), stop)
        if indptr[end] > indptr[start]:
            yield start, end
        start = end


def _plurality_moves(
    graph: CSRGraph, labels: np.ndarray, start: int, stop: int, C: int
):
    """The nodes of ``[start, stop)`` whose plurality neighbour label
    differs from their own, in node order, and that label.

    Ties go to the largest label.  Reads only the slice's own edges and
    ``labels``, so slicing a chunk finer leaves every vote unchanged.
    """
    indptr = graph.indptr
    lo, hi = int(indptr[start]), int(indptr[stop])
    nbr_lab = labels[np.asarray(graph.indices[lo:hi])]
    deg = np.diff(indptr[start : stop + 1])
    local = np.repeat(np.arange(stop - start, dtype=np.int64), deg)
    # Run-length count the sorted (node, label) pairs; each node's runs are
    # contiguous, so its heaviest run (the last of equal ones) is a
    # segmented "maximum, then last position equal to it".
    key = local * np.int64(C) + nbr_lab
    key.sort()
    run_start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    run_key = key[run_start]
    run_count = np.diff(np.r_[run_start, key.size])
    run_local = run_key // C
    node_start = np.flatnonzero(np.r_[True, run_local[1:] != run_local[:-1]])
    _, best_run = _last_argmax(
        run_count, node_start, np.diff(np.r_[node_start, run_count.size])
    )
    best_lab = run_key[best_run] % C
    nodes = start + run_local[node_start]
    want = best_lab != labels[nodes]
    return nodes[want], best_lab[want]


def _cluster_label_propagation(
    graph: CSRGraph,
    num_clusters: int,
    rounds: int,
    chunk_nodes: int,
    slack: float,
) -> np.ndarray:
    """Capacity-bounded label propagation into ``num_clusters`` clusters.

    Nodes start in contiguous id blocks; each round walks the adjacency in
    node-range chunks (one contiguous ``indices`` slice per chunk — memmap
    friendly) and moves every node toward the cluster holding the plurality
    of its neighbors, as long as the target stays under ``slack`` times the
    even share.  A chunk's votes all read the labels at the chunk's start
    and are admitted together.  Deterministic: no randomness, fixed chunk
    order.
    """
    n = graph.num_nodes
    C = int(num_clusters)
    labels = (np.arange(n, dtype=np.int64) * C) // max(n, 1)
    sizes = np.bincount(labels, minlength=C).astype(np.int64)
    cap = int(np.ceil(n / C * slack))
    indptr = graph.indptr
    for _ in range(rounds):
        moved_any = False
        for start in range(0, n, chunk_nodes):
            stop = min(start + chunk_nodes, n)
            if indptr[stop] == indptr[start]:
                continue
            votes = [
                _plurality_moves(graph, labels, a, b, C)
                for a, b in _edge_slices(indptr, start, stop)
            ]
            nodes = np.concatenate([v[0] for v in votes])
            if nodes.size == 0:
                continue
            target = np.concatenate([v[1] for v in votes])
            # Admit moves per target up to remaining capacity, in node order.
            t_order = np.argsort(target, kind="stable")
            nodes, target = nodes[t_order], target[t_order]
            grp_start = np.r_[True, target[1:] != target[:-1]]
            rank = np.arange(nodes.size) - np.repeat(
                np.flatnonzero(grp_start), np.diff(np.r_[np.flatnonzero(grp_start), nodes.size])
            )
            allow = rank < (cap - sizes)[target]
            nodes, target = nodes[allow], target[allow]
            if nodes.size == 0:
                continue
            sizes -= np.bincount(labels[nodes], minlength=C)
            sizes += np.bincount(target, minlength=C)
            labels[nodes] = target
            moved_any = True
        if not moved_any:
            break
    return labels


def streaming_partition(
    graph: CSRGraph,
    num_parts: int,
    seed: int = 0,
    *,
    num_clusters: Optional[int] = None,
    chunk_nodes: int = 262_144,
    rounds: int = 4,
    refine_passes: int = 4,
    balance_tol: float = 0.08,
    slack: float = 1.3,
    fine_refine: Optional[bool] = None,
    weights: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Coarsen-once streaming variant of :func:`metis_like_partition`.

    The multilevel partitioner materializes a matching, a coarse graph, and
    an ``O(n * num_parts)`` refinement matrix per level — fine at 60k nodes,
    prohibitive at 10M.  This variant coarsens exactly once, in bounded
    memory: capacity-bounded label propagation (walking the CSR in
    contiguous node-range chunks) collapses the graph into
    ``num_clusters`` clusters, the weighted cluster graph — small by
    construction — is partitioned with the existing initial-partition +
    FM-refinement machinery, and the result is projected back.  A final
    fine-level refinement pass runs only when ``n * num_parts`` is small
    enough to afford it (``fine_refine=None`` decides automatically).

    Edge-cut quality lands within a modest factor of the in-memory
    partitioner (pinned by ``tests/graph/test_streaming_partition.py``)
    while, besides the per-node labels, the coarsening holds
    ``O(chunk + num_clusters**2)``: every edge-sized temporary is bounded
    by :data:`_VOTE_EDGES` (the fine refinement pass, when it runs, is
    ``O(E)``).  Every step is deterministic and draws nothing: ``seed`` is
    accepted only so the partitioners share one call signature.
    """
    check_positive("num_parts", num_parts)
    check_positive("chunk_nodes", chunk_nodes)
    targets = _normalize_weights(weights, num_parts)
    n = graph.num_nodes
    if num_parts == 1:
        return np.zeros(n, dtype=np.int64)
    if num_clusters is None:
        num_clusters = int(min(max(64 * num_parts, 512), 2048, max(n // 4, num_parts)))
    num_clusters = max(int(num_clusters), num_parts)
    labels = _cluster_label_propagation(
        graph, num_clusters, rounds, int(chunk_nodes), slack
    )
    # Compact away empty clusters.
    uniq, labels = np.unique(labels, return_inverse=True)
    C = int(uniq.size)
    labels = labels.astype(np.int64)

    # Weighted cluster graph, accumulated densely (C is small by design).
    conn = np.zeros((C, C), dtype=np.float64)
    indptr = graph.indptr
    for start, stop in _edge_slices(indptr, 0, n):
        lo, hi = int(indptr[start]), int(indptr[stop])
        deg = np.diff(indptr[start : stop + 1])
        cu = np.repeat(labels[start:stop], deg)
        cv = labels[np.asarray(graph.indices[lo:hi])]
        np.add.at(conn, (cu, cv), 1.0)
    np.fill_diagonal(conn, 0.0)
    cu, cv = np.nonzero(conn)
    counts = np.bincount(cu, minlength=C)
    c_indptr = np.zeros(C + 1, dtype=np.int64)
    np.cumsum(counts, out=c_indptr[1:])
    coarse = _Level(
        indptr=c_indptr,
        indices=cv.astype(np.int64),
        edge_weights=conn[cu, cv],
        node_weights=np.bincount(labels, minlength=C).astype(np.float64),
        fine_to_coarse=None,
    )
    cparts = _initial_partition(coarse, num_parts, targets)
    cparts = _refine(
        coarse, cparts, num_parts, refine_passes, balance_tol, targets
    )
    parts = cparts[labels].astype(np.int64)

    if fine_refine is None:
        fine_refine = n * num_parts <= 20_000_000 and graph.num_edges <= 30_000_000
    if fine_refine:
        parts = _refine(
            _base_level(graph), parts, num_parts, refine_passes, balance_tol,
            targets,
        )
    return parts.astype(np.int64)
