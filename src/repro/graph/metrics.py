"""Partition-quality and access-skewness metrics.

Used by the partitioner tests, by the Table 3 skewness benchmark, and by the
SNP/DNP strategies to reason about locality.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.ids import sorted_unique


def edge_cut_fraction(graph: CSRGraph, parts: np.ndarray) -> float:
    """Fraction of edges whose endpoints lie in different parts."""
    parts = np.asarray(parts, dtype=np.int64)
    if parts.shape != (graph.num_nodes,):
        raise ValueError(
            f"parts shape {parts.shape} != ({graph.num_nodes},)"
        )
    if graph.num_edges == 0:
        return 0.0
    src = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
    cut = int((parts[src] != parts[graph.indices]).sum())
    return cut / graph.num_edges


def partition_balance(parts: np.ndarray, num_parts: int) -> float:
    """Max part size over ideal part size (1.0 = perfectly balanced)."""
    counts = np.bincount(np.asarray(parts, dtype=np.int64), minlength=num_parts)
    ideal = counts.sum() / num_parts
    return float(counts.max() / ideal) if ideal > 0 else 1.0


def replication_factor(graph: CSRGraph, parts: np.ndarray) -> float:
    """Average number of parts each node's closed neighborhood touches.

    A locality measure for DNP-style halo caching: a node whose neighbors
    span many parts will be replicated into many GPU halos.
    """
    parts = np.asarray(parts, dtype=np.int64)
    num_parts = int(parts.max()) + 1 if parts.size else 1
    src = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
    # Distinct (dst-node, src-part) pairs, plus the node's own part.
    key = src * np.int64(num_parts) + parts[graph.indices]
    own = np.arange(graph.num_nodes, dtype=np.int64) * num_parts + parts
    distinct = sorted_unique(np.concatenate([key, own]))
    return distinct.size / graph.num_nodes


def access_skewness_table(
    frequencies: np.ndarray,
    bands: Sequence[float] = (0.01, 0.05, 0.10, 0.20, 0.50, 1.00),
) -> dict:
    """Paper Table 3: share of total accesses captured by top-ranked nodes.

    Parameters
    ----------
    frequencies:
        Per-node access counts (how often each node appeared in sampled
        subgraphs during one epoch).
    bands:
        Cumulative rank fractions; the default reproduces the paper's
        ``<1% / 1-5% / 5-10% / 10-20% / 20-50% / 50-100%`` rows.

    Returns
    -------
    Mapping from band label (e.g. ``"1%~5%"``) to the fraction of all
    accesses made to nodes in that rank band.
    """
    freq = np.sort(np.asarray(frequencies, dtype=np.float64))[::-1]
    total = freq.sum()
    if total <= 0:
        raise ValueError("frequencies sum to zero; run a dry-run first")
    cum = np.cumsum(freq) / total
    n = freq.size
    out = {}
    prev_frac, prev_cum = 0.0, 0.0
    for frac in bands:
        idx = max(int(round(frac * n)) - 1, 0)
        c = cum[idx]
        label = (
            f"<{int(frac * 100)}%"
            if prev_frac == 0.0
            else f"{int(prev_frac * 100)}%~{int(frac * 100)}%"
        )
        out[label] = float(c - prev_cum)
        prev_frac, prev_cum = frac, c
    return out
