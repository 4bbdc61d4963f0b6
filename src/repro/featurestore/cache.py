"""Hotness-based GPU cache policies, one per strategy (paper §3.2).

Given per-node access frequencies collected during dry-run:

* **GDP / NFP** cache the globally most popular nodes (identically on every
  GPU; NFP caches its 1/C dimension shard, so the same byte budget covers
  C times more nodes).
* **SNP** caches the most popular nodes *within the GPU's graph partition*.
* **DNP** caches the most popular nodes within the partition *plus its
  1-hop halo* — the input set a DNP GPU actually reads.

The rationale (quoted from the paper): "minimize the GPU-CPU communication
for feature read".
"""

from __future__ import annotations

import numpy as np

from repro.cluster.spec import ELEMENT_BYTES
from repro.graph.csr import CSRGraph


def cache_capacity_nodes(
    cache_bytes: float, feature_dim: int, dim_fraction: float = 1.0
) -> int:
    """Number of nodes a byte budget holds at ``feature_dim * dim_fraction``
    feature elements per node (``dim_fraction < 1`` models NFP's shards)."""
    per_node = feature_dim * dim_fraction * ELEMENT_BYTES
    if per_node <= 0:
        raise ValueError("feature_dim and dim_fraction must be positive")
    return int(cache_bytes // per_node)


def unified_cache_nodes(
    frequencies: np.ndarray, capacity_nodes: int, num_devices: int
) -> list:
    """DSP/Quiver-style unified cache: partition the hottest nodes.

    With fast inter-GPU links (NVLink), devices can serve each other's
    caches, so replicating the same hot set on every GPU wastes capacity.
    The unified policy instead stripes the ``capacity * num_devices``
    hottest nodes round-robin across the GPUs: the *union* cache is C
    times larger, and any GPU reaches any cached row in at most one peer
    hop.  The paper cites DSP and Quiver for this scheme and notes APT
    "can easily incorporate" such caching strategies — this is that
    incorporation (used by GDP/NFP when the cluster has NVLink).

    Returns one node array per device.
    """
    if capacity_nodes <= 0 or num_devices <= 0:
        return [np.empty(0, dtype=np.int64) for _ in range(max(num_devices, 0))]
    freq = np.asarray(frequencies, dtype=np.float64)
    total = min(capacity_nodes * num_devices, freq.size)
    top = np.argpartition(-freq, total - 1)[:total]
    # Stripe by hotness rank so every device holds a share of the hottest.
    ranked = top[np.argsort(-freq[top], kind="stable")]
    return [
        np.sort(ranked[d::num_devices].astype(np.int64))
        for d in range(num_devices)
    ]


def hot_cache_nodes(frequencies: np.ndarray, capacity_nodes: int) -> np.ndarray:
    """Top-``capacity`` nodes by access frequency (GDP and NFP policy)."""
    if capacity_nodes <= 0:
        return np.empty(0, dtype=np.int64)
    freq = np.asarray(frequencies, dtype=np.float64)
    capacity_nodes = min(capacity_nodes, freq.size)
    top = np.argpartition(-freq, capacity_nodes - 1)[:capacity_nodes]
    return np.sort(top.astype(np.int64))


def snp_cache_nodes(
    frequencies: np.ndarray, parts: np.ndarray, part: int, capacity_nodes: int
) -> np.ndarray:
    """Hottest nodes within one graph partition (SNP policy)."""
    members = np.nonzero(np.asarray(parts) == part)[0]
    return _hot_within(frequencies, members, capacity_nodes)


def dnp_cache_nodes(
    frequencies: np.ndarray,
    parts: np.ndarray,
    part: int,
    graph: CSRGraph,
    capacity_nodes: int,
) -> np.ndarray:
    """Hottest nodes within a partition plus its 1-hop halo (DNP policy)."""
    members = np.nonzero(np.asarray(parts) == part)[0]
    closure = graph.one_hop_closure(members)
    return _hot_within(frequencies, closure, capacity_nodes)


def _hot_within(
    frequencies: np.ndarray, candidates: np.ndarray, capacity_nodes: int
) -> np.ndarray:
    if capacity_nodes <= 0 or candidates.size == 0:
        return np.empty(0, dtype=np.int64)
    freq = np.asarray(frequencies, dtype=np.float64)[candidates]
    k = min(capacity_nodes, candidates.size)
    top = np.argpartition(-freq, k - 1)[:k]
    return np.sort(candidates[top].astype(np.int64))
