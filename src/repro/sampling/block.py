"""Bipartite computation blocks (DGL's "message flow graphs").

A :class:`Block` is one GNN layer's computation graph: edges flow from
*source* nodes (embedding inputs) to *destination* nodes (embedding
outputs).  Strategies repartition blocks along different dimensions —
GDP by subgraph, NFP by feature dimension, SNP by source node, DNP by
destination node (paper Fig. 5) — so the block is the engine's central
currency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.cluster.spec import ID_BYTES
from repro.tensor.sparse import SegmentIndex, _is_nondecreasing
from repro.utils.ids import sorted_unique


@dataclass
class Block:
    """One layer's bipartite sampled graph.

    Attributes
    ----------
    src_nodes:
        Unique global ids of source nodes.  Guaranteed to contain every
        destination node (so models can always read the destination's own
        input, e.g. GraphSAGE's self term or GAT's self-loop).
    dst_nodes:
        Unique global ids of destination nodes.
    dst_in_src:
        ``dst_nodes[i] == src_nodes[dst_in_src[i]]`` — local position of
        each destination within the source array.
    edge_src / edge_dst:
        Per-edge local indices into ``src_nodes`` / ``dst_nodes``; edges are
        sorted by ``edge_dst``.  Self-edges are *not* materialized here;
        models add them when their aggregation wants them.
    """

    src_nodes: np.ndarray
    dst_nodes: np.ndarray
    dst_in_src: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    # Derived structures, built on first use and reused for the lifetime of
    # the block (blocks are immutable once constructed).
    _dst_index: Optional[SegmentIndex] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.dst_in_src.shape != self.dst_nodes.shape:
            raise ValueError("dst_in_src must align with dst_nodes")
        if self.edge_src.shape != self.edge_dst.shape:
            raise ValueError("edge_src/edge_dst must align")

    # ------------------------------------------------------------------ #
    @property
    def num_src(self) -> int:
        return int(self.src_nodes.shape[0])

    @property
    def num_dst(self) -> int:
        return int(self.dst_nodes.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.edge_src.shape[0])

    def dst_index(self) -> SegmentIndex:
        """``edge_dst`` as a segment index over the destinations.

        What every aggregation of this block's edge messages groups by.
        Built once per block and cached: NFP aggregates the same block on
        every shard holder, forward and backward.
        """
        if self._dst_index is None:
            self._dst_index = SegmentIndex(self.edge_dst, self.num_dst)
        return self._dst_index

    def dst_edge_ptr(self) -> np.ndarray:
        """``(num_dst + 1,)`` CSR-style pointer into the dst-sorted edges.

        ``edge_*[ptr[i]:ptr[i+1]]`` are exactly destination ``i``'s in-edges
        (edges are sorted by ``edge_dst``).  Cached with :meth:`dst_index`:
        the sample-cache restriction path slices many seed subsets out of
        one block.
        """
        return self.dst_index().indptr

    def nbytes(self) -> int:
        """Resident bytes of the index arrays (sample-cache accounting),
        built or not: :meth:`dst_index` adds per-destination counts and a
        row pointer (its ids are ``edge_dst``; dst-sorted edges need no
        column order)."""
        return int(
            self.src_nodes.nbytes
            + self.dst_nodes.nbytes
            + self.dst_in_src.nbytes
            + self.edge_src.nbytes
            + self.edge_dst.nbytes
            + 8 * (2 * self.num_dst + 1)
        )

    def structure_bytes(self) -> float:
        """Wire size of the block structure (drives T_build comm cost).

        Counts the edge index pairs plus the global id arrays, at
        ``ID_BYTES`` per entry — the same bookkeeping a real engine
        serializes when shuffling computation graphs between GPUs.
        """
        return ID_BYTES * (
            2 * self.num_edges + self.num_src + self.num_dst
        )

    def degree_per_dst(self) -> np.ndarray:
        """In-degree of each destination node within the block."""
        return np.bincount(self.edge_dst, minlength=self.num_dst)

    @classmethod
    def from_global_edges(
        cls,
        edge_src_global: np.ndarray,
        edge_dst_global: np.ndarray,
        dst_nodes: Optional[np.ndarray] = None,
    ) -> "Block":
        """Build a block from global-id edge endpoints.

        Destinations are the unique ``edge_dst_global`` (pass them as
        ``dst_nodes`` when the caller already holds them sorted and
        unique); sources are the unique union of both endpoint sets
        (ensuring destinations appear as sources).  Edges come out sorted
        by destination.
        """
        edge_src_global = np.asarray(edge_src_global, dtype=np.int64)
        edge_dst_global = np.asarray(edge_dst_global, dtype=np.int64)
        if dst_nodes is None:
            dst_nodes = sorted_unique(edge_dst_global)
        src_nodes = sorted_unique(np.concatenate([edge_src_global, dst_nodes]))
        # One merged lookup serves both the per-edge sources and the
        # dst-within-src positions.
        ne = edge_src_global.shape[0]
        pos = np.searchsorted(
            src_nodes, np.concatenate([edge_src_global, dst_nodes])
        )
        edge_src = pos[:ne]
        dst_in_src = pos[ne:]
        edge_dst = np.searchsorted(dst_nodes, edge_dst_global)
        if not _is_nondecreasing(edge_dst_global):
            # Only permute when the input isn't already dst-sorted — the
            # full-neighbor sampling path emits sorted runs.
            order = np.argsort(edge_dst, kind="stable")
            edge_src = edge_src[order]
            edge_dst = edge_dst[order]
        return cls(
            src_nodes=src_nodes,
            dst_nodes=dst_nodes,
            dst_in_src=dst_in_src,
            edge_src=edge_src,
            edge_dst=edge_dst,
        )


@dataclass
class MiniBatch:
    """The sampled computation graphs for one batch of seed nodes.

    ``blocks[0]`` is the *first layer* in the paper's terminology — the
    layer furthest from the seeds, consuming input node features.
    ``blocks[-1]``'s destinations are exactly ``seeds``.
    """

    seeds: np.ndarray
    blocks: List[Block]

    @property
    def num_layers(self) -> int:
        return len(self.blocks)

    @property
    def input_nodes(self) -> np.ndarray:
        """Global ids whose input features the batch needs."""
        return self.blocks[0].src_nodes

    def total_edges(self) -> int:
        return sum(b.num_edges for b in self.blocks)

    def nbytes(self) -> int:
        """Resident bytes of all index arrays (sample-cache accounting)."""
        return int(self.seeds.nbytes) + sum(b.nbytes() for b in self.blocks)
