"""Synthetic graph generators.

Three families cover the structure the paper's evaluation depends on:

* :func:`power_law_graph` — configuration-model graph with a discrete
  power-law degree sequence.  The exponent controls hub concentration and
  therefore the node-access skewness under fanout sampling (paper Table 3).
* :func:`rmat_graph` — recursive-matrix (Kronecker) generator; produces
  skewed, self-similar graphs like web/citation networks.
* :func:`community_graph` — power-law degrees plus planted communities with
  a tunable intra-community edge probability.  Communities give the
  METIS-like partitioner real locality to find (paper Fig. 11 contrasts good
  vs random partitions) and provide learnable class structure for the
  accuracy sanity checks (paper Fig. 6/7).

All generators are fully vectorized and deterministic under a seed.

For multi-million-edge graphs the generators draw edges in fixed-size
chunks with incremental dedup (an accumulating sorted set of canonical
undirected edge keys) instead of materializing one giant stub/random
array per draw — peak intermediate memory is ``O(chunk_edges + unique
edges)`` instead of ``O(scale * num_edges)``.  Graphs that fit in a
single chunk take exactly the historical code path, so every existing
seed reproduces bit-for-bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.ids import sorted_unique
from repro.utils.random import rng_from
from repro.utils.validation import check_positive, check_probability

#: Edges generated per chunk by the chunked generator paths.  Everything
#: at or below this size uses the historical single-shot path.
DEFAULT_CHUNK_EDGES = 1 << 20


def _canonical_edge_keys(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Pack undirected edges into sortable int64 keys ``min * n + max``."""
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    return lo * np.int64(n) + hi


class _EdgeAccumulator:
    """Incremental undirected-edge dedup in bounded memory.

    Each chunk is deduplicated locally, then merged into the accumulated
    sorted key set, so peak memory is one chunk plus the running unique-edge
    set — never the raw multi-set of all draws.
    """

    def __init__(self, n: int):
        if n > 3_000_000_000:
            raise ValueError(f"edge keys overflow int64 for n = {n}")
        self.n = int(n)
        self.keys = np.empty(0, dtype=np.int64)

    def add(self, src: np.ndarray, dst: np.ndarray) -> None:
        fresh = sorted_unique(_canonical_edge_keys(src, dst, self.n))
        self.keys = (
            fresh if self.keys.size == 0
            else sorted_unique(np.concatenate([self.keys, fresh]))
        )

    def edges(self):
        """The deduplicated edge list as ``(src, dst)`` with ``src <= dst``."""
        return self.keys // self.n, self.keys % self.n


def _power_law_degrees(
    n: int, avg_degree: float, exponent: float, rng: np.random.Generator, max_degree: Optional[int] = None
) -> np.ndarray:
    """Draw a degree sequence ``deg ~ k^-exponent`` scaled to ``avg_degree``.

    Sampled by inverse-CDF over a continuous Pareto then discretized; the
    sequence is rescaled multiplicatively so its mean matches ``avg_degree``.
    """
    check_positive("n", n)
    check_positive("avg_degree", avg_degree)
    if exponent <= 1.0:
        raise ValueError(f"power-law exponent must be > 1, got {exponent}")
    if max_degree is None:
        max_degree = max(int(np.sqrt(n) * 4), 64)
    u = rng.random(n)
    # Pareto with shape (exponent - 1): x = (1 - u)^(-1/(exponent-1))
    raw = (1.0 - u) ** (-1.0 / (exponent - 1.0))
    deg = raw * (avg_degree / raw.mean())
    # Cap *after* scaling (the cap is a bound on realized degrees), then
    # re-scale once so the mean stays near the target despite clipping.
    deg = np.minimum(deg, max_degree)
    deg *= avg_degree / deg.mean()
    deg = np.minimum(deg, max_degree)
    deg = np.maximum(np.rint(deg), 1).astype(np.int64)
    deg = np.minimum(deg, n - 1)
    return deg


def power_law_graph(
    n: int,
    avg_degree: float,
    exponent: float,
    seed: int = 0,
    *,
    max_degree: Optional[int] = None,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
) -> CSRGraph:
    """Configuration-model graph with power-law degrees (undirected).

    Stubs are paired by a random permutation; multi-edges and self-loops are
    dropped, so realized degrees are slightly below nominal for hubs.

    Above ``chunk_edges`` edges the full stub shuffle (O(sum of degrees)
    peak memory, twice) is replaced by chunked degree-proportional partner
    sampling with incremental dedup: same degree sequence and the same
    power-law edge-endpoint distribution, bounded peak memory.  At or below
    the threshold the historical exact path runs, so existing seeds
    reproduce bit-for-bit.
    """
    check_positive("chunk_edges", chunk_edges)
    rng = rng_from(seed, 0xC0DE)
    deg = _power_law_degrees(n, avg_degree, exponent, rng, max_degree)
    if deg.sum() % 2 == 1:
        deg[int(rng.integers(n))] += 1
    total_stubs = int(deg.sum())
    if total_stubs <= 2 * chunk_edges:
        stubs = np.repeat(np.arange(n, dtype=np.int64), deg)
        rng.shuffle(stubs)
        half = stubs.shape[0] // 2
        src, dst = stubs[:half], stubs[half : 2 * half]
        return CSRGraph.from_edges(src, dst, n, symmetrize=True, dedupe=True)

    # Chunked path: walk the stub sequence (node i owns stubs
    # [cdeg[i], cdeg[i+1])) in fixed-size windows and draw each stub's
    # partner degree-proportionally — the configuration model's endpoint
    # distribution without ever materializing the full stub array.
    half = total_stubs // 2
    cdeg = np.concatenate(([0], np.cumsum(deg)))
    p = deg.astype(np.float64) / float(deg.sum())
    acc = _EdgeAccumulator(n)
    start = 0
    while start < half:
        m = int(min(chunk_edges, half - start))
        src = np.searchsorted(cdeg, np.arange(start, start + m), side="right") - 1
        dst = rng.choice(n, size=m, p=p)
        acc.add(src.astype(np.int64), dst.astype(np.int64))
        start += m
    src, dst = acc.edges()
    return CSRGraph.from_edges(src, dst, n, symmetrize=True, dedupe=True)


def rmat_graph(
    n: int,
    num_edges: int,
    seed: int = 0,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
) -> CSRGraph:
    """R-MAT (Chakrabarti et al., 2004) graph, vectorized per chunk.

    ``n`` is rounded up to a power of two internally; nodes beyond ``n - 1``
    are folded back with a modulo, which preserves the skew structure.

    Edges are drawn in chunks of at most ``chunk_edges`` (per-bit random
    draws are sized to the chunk, not to ``num_edges``) and merged through
    the incremental dedup accumulator, bounding peak memory for
    multi-million-edge graphs.  A graph that fits in one chunk consumes
    the rng in exactly the historical order, so existing seeds reproduce
    bit-for-bit.
    """
    check_positive("num_edges", num_edges)
    check_positive("chunk_edges", chunk_edges)
    d = 1.0 - a - b - c
    if d < 0:
        raise ValueError(f"R-MAT probabilities exceed 1: a+b+c = {a + b + c}")
    rng = rng_from(seed, 0x12A7)
    scale = int(np.ceil(np.log2(max(n, 2))))
    p_right = b + d  # probability the src bit is 1
    acc = _EdgeAccumulator(n)
    single_chunk = num_edges <= chunk_edges
    produced = 0
    while produced < num_edges:
        m = int(min(chunk_edges, num_edges - produced))
        src = np.zeros(m, dtype=np.int64)
        dst = np.zeros(m, dtype=np.int64)
        for bit in range(scale):
            u = rng.random(m)
            v = rng.random(m)
            src_bit = (u >= a + c).astype(np.int64)
            # Conditional distribution of dst bit given src bit.
            thresh = np.where(
                src_bit == 1, b / max(p_right, 1e-12), a / max(a + c, 1e-12)
            )
            dst_bit = (v >= thresh).astype(np.int64)
            src = (src << 1) | src_bit
            dst = (dst << 1) | dst_bit
        src %= n
        dst %= n
        if single_chunk:
            return CSRGraph.from_edges(src, dst, n, symmetrize=True, dedupe=True)
        acc.add(src, dst)
        produced += m
    src, dst = acc.edges()
    return CSRGraph.from_edges(src, dst, n, symmetrize=True, dedupe=True)


def community_graph(
    n: int,
    avg_degree: float,
    num_communities: int,
    intra_prob: float,
    exponent: float = 2.2,
    seed: int = 0,
    *,
    max_degree: Optional[int] = None,
    return_communities: bool = False,
):
    """Power-law graph with planted communities.

    Each node draws a power-law degree; each edge endpoint then picks its
    partner *within the same community* with probability ``intra_prob`` and
    globally otherwise, in both cases proportionally to partner degree
    (preferential attachment flavor).

    Parameters
    ----------
    intra_prob:
        Fraction of edges that stay inside a community.  High values
        (0.8-0.95) give the partitioner a low edge-cut to find; lowering it
        emulates partition-hostile graphs.
    return_communities:
        Also return the ``(n,)`` community assignment (used for labels).
    """
    check_probability("intra_prob", intra_prob)
    check_positive("num_communities", num_communities)
    rng = rng_from(seed, 0xC033)
    deg = _power_law_degrees(n, avg_degree, exponent, rng, max_degree)
    comm = rng.integers(0, num_communities, size=n)
    order = np.argsort(comm, kind="stable")

    total_stubs = int(deg.sum())
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    dst = np.empty(total_stubs, dtype=np.int64)
    weights = deg.astype(np.float64)

    intra_mask = rng.random(total_stubs) < intra_prob

    # Global partners for the inter-community stubs: degree-proportional.
    n_inter = int((~intra_mask).sum())
    global_p = weights / weights.sum()
    dst[~intra_mask] = rng.choice(n, size=n_inter, p=global_p)

    # Intra-community partners: degree-proportional within each community.
    sorted_nodes = order  # nodes grouped by community
    comm_sorted = comm[order]
    boundaries = np.searchsorted(comm_sorted, np.arange(num_communities + 1))
    intra_idx = np.nonzero(intra_mask)[0]
    stub_comm = comm[src[intra_idx]]
    for cid in range(num_communities):
        members = sorted_nodes[boundaries[cid] : boundaries[cid + 1]]
        stubs_here = intra_idx[stub_comm == cid]
        if stubs_here.size == 0:
            continue
        if members.size == 0:
            dst[stubs_here] = rng.choice(n, size=stubs_here.size, p=global_p)
            continue
        w = weights[members]
        dst[stubs_here] = members[
            rng.choice(members.size, size=stubs_here.size, p=w / w.sum())
        ]

    graph = CSRGraph.from_edges(src, dst, n, symmetrize=True, dedupe=True)
    if return_communities:
        return graph, comm
    return graph
