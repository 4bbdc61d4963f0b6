"""The partitioner kernels as they were before their host-path rewrite.

:mod:`repro.graph.partition`'s four kernels were rewritten to return the
same arrays faster: heavy-edge matching and label propagation pick each
row's "maximum, then last equal" entry with segmented reductions instead
of a sort, and region growing and refinement loop over Python lists
instead of NumPy scalars.  The forms below are the earlier ones, kept
verbatim; :func:`install_reference_kernels` swaps them into the module
through a ``pytest.MonkeyPatch`` so the public partitioners run end to
end on them.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.graph import partition as _partition
from repro.graph.csr import CSRGraph
from repro.graph.partition import _Level


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
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    noise = rng.random(ew.shape[0]) * 1e-6
    for _ in range(rounds):
        valid = unmatched[src] & unmatched[indices] & (src != indices)
        if not valid.any():
            break
        w = np.where(valid, ew + noise, -np.inf)
        # Per-row argmax: sort by (row, weight); the last entry per row wins.
        order = np.lexsort((w, src))
        sorted_src = src[order]
        row_last = np.nonzero(
            np.r_[sorted_src[1:] != sorted_src[:-1], True]
        )[0]
        rows = sorted_src[row_last]
        best_edge = order[row_last]
        has_valid = np.isfinite(w[best_edge])
        rows, best_edge = rows[has_valid], best_edge[has_valid]
        best = np.full(n, -1, dtype=np.int64)
        best[rows] = indices[best_edge]
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


def _initial_partition(
    level: _Level,
    num_parts: int,
    targets: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Greedy balanced region growing on the coarsest graph.

    ``targets`` (normalized per-part weight fractions) makes capacities and
    the fill order proportional to device speed; ``None`` keeps the
    historical equal-share behavior bit-for-bit.
    """
    n = level.num_nodes
    total_w = level.node_weights.sum()
    if targets is None:
        # Scalar share broadcast per part: identical values to the old
        # scalar cap, so the unweighted path is bitwise unchanged.
        cap = np.full(num_parts, total_w / num_parts * 1.05)
        fill = lambda: loads  # noqa: E731 — ordering key for part growth
    else:
        goal = total_w * targets
        cap = goal * 1.05
        fill = lambda: loads / goal  # noqa: E731
    parts = np.full(n, -1, dtype=np.int64)
    loads = np.zeros(num_parts)
    degree_order = np.argsort(-np.diff(level.indptr))
    frontier_sets: List[List[int]] = [[] for _ in range(num_parts)]
    seeds_iter = iter(degree_order)
    for p in range(num_parts):
        for s in seeds_iter:
            if parts[s] == -1:
                parts[s] = p
                loads[p] += level.node_weights[s]
                frontier_sets[p].extend(
                    level.indices[level.indptr[s] : level.indptr[s + 1]].tolist()
                )
                break
    # Round-robin BFS growth, least-filled part first.
    active = True
    while active:
        active = False
        for p in np.argsort(fill()):
            if loads[p] >= cap[p]:
                continue
            frontier = frontier_sets[p]
            grabbed = False
            while frontier:
                v = frontier.pop()
                if parts[v] == -1:
                    parts[v] = p
                    loads[p] += level.node_weights[v]
                    frontier_sets[p].extend(
                        level.indices[level.indptr[v] : level.indptr[v + 1]].tolist()
                    )
                    grabbed = True
                    break
            if grabbed:
                active = True
    # Any disconnected leftovers go to the least-filled parts.
    for v in np.nonzero(parts == -1)[0]:
        p = int(np.argmin(fill()))
        parts[v] = p
        loads[p] += level.node_weights[v]
    return parts


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
    part and the move keeps both parts within the balance tolerance — a
    tolerance measured relative to each part's *target* share when
    ``targets`` is given (weighted capacities), and to the even share
    otherwise.  This is the lightweight FM-style refinement used at each
    uncoarsening level.
    """
    n = level.num_nodes
    indptr, indices, ew = level.indptr, level.indices, level.edge_weights
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    loads = np.bincount(parts, weights=level.node_weights, minlength=num_parts)
    total_w = level.node_weights.sum()
    if targets is None:
        cap = np.full(num_parts, total_w / num_parts * (1.0 + balance_tol))
        floor = np.full(num_parts, total_w / num_parts * (1.0 - balance_tol))
    else:
        goal = total_w * targets
        cap = goal * (1.0 + balance_tol)
        floor = goal * (1.0 - balance_tol)
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
        cand = cand[np.argsort(-gain[cand])]
        moved = 0
        for v in cand:
            b, c = int(best[v]), int(parts[v])
            wv = level.node_weights[v]
            if loads[b] + wv > cap[b] or loads[c] - wv < floor[c]:
                continue
            parts[v] = b
            loads[b] += wv
            loads[c] -= wv
            moved += 1
        if moved == 0:
            break
    return parts


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
    even share.  Deterministic: no randomness, fixed chunk order.
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
            lo, hi = int(indptr[start]), int(indptr[stop])
            if hi == lo:
                continue
            nbr_lab = labels[np.asarray(graph.indices[lo:hi])]
            deg = np.diff(indptr[start : stop + 1])
            local = np.repeat(np.arange(stop - start, dtype=np.int64), deg)
            # Plurality neighbor label per node: run-length count the sorted
            # (node, label) pairs, then keep each node's heaviest run.
            key = local * np.int64(C) + nbr_lab
            key.sort()
            run_start = np.r_[True, key[1:] != key[:-1]]
            run_key = key[run_start]
            run_count = np.diff(np.r_[np.flatnonzero(run_start), key.size])
            run_local = run_key // C
            order = np.lexsort((run_count, run_local))
            last = np.r_[run_local[order][1:] != run_local[order][:-1], True]
            best_rows = run_local[order][last]
            best_lab = (run_key % C)[order][last]
            cur = labels[start + best_rows]
            want = best_lab != cur
            if not want.any():
                continue
            nodes = start + best_rows[want]
            target = best_lab[want]
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


KERNELS = (
    "_heavy_edge_matching",
    "_initial_partition",
    "_refine",
    "_cluster_label_propagation",
)


def install_reference_kernels(monkeypatch) -> None:
    """Route :mod:`repro.graph.partition`'s kernels to the forms above."""
    for name in KERNELS:
        monkeypatch.setattr(_partition, name, globals()[name])
