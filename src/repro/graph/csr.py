"""Compressed-sparse-row graph storage.

The graph is stored as the CSR of *in*-neighbors: ``neighbors(v)`` returns
the message sources ``u`` with an edge ``u -> v``.  GNN aggregation reads
exactly this adjacency direction.  Generators produce undirected graphs and
symmetrize, so in- and out-neighborhoods coincide for the datasets shipped
here, but the class itself is direction-aware.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.utils.validation import check_index_array


class CSRGraph:
    """An immutable graph in CSR (in-neighbor) layout.

    Attributes
    ----------
    indptr:
        ``(num_nodes + 1,)`` int64 row pointer.
    indices:
        ``(num_edges,)`` int64 concatenated in-neighbor lists.
    """

    __slots__ = ("indptr", "indices", "num_nodes")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        if self.indptr.ndim != 1 or self.indptr[0] != 0:
            raise ValueError("indptr must be 1-D and start at 0")
        if self.indptr[-1] != self.indices.shape[0]:
            raise ValueError(
                f"indptr[-1]={self.indptr[-1]} does not match "
                f"len(indices)={self.indices.shape[0]}"
            )
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        self.num_nodes = self.indptr.shape[0] - 1
        check_index_array("indices", self.indices, self.num_nodes)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        num_nodes: int,
        *,
        symmetrize: bool = True,
        dedupe: bool = True,
    ) -> "CSRGraph":
        """Build from an edge list ``src -> dst``.

        ``symmetrize=True`` adds the reverse edge for every input edge
        (undirected semantics).  Self-loops and (optionally) duplicate edges
        are removed; the sampler re-inserts a self-edge per destination at
        block-construction time, so the stored topology stays clean.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src/dst must have the same shape")
        check_index_array("src", src, num_nodes)
        check_index_array("dst", dst, num_nodes)
        if symmetrize:
            src, dst = (
                np.concatenate([src, dst]),
                np.concatenate([dst, src]),
            )
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if dedupe and src.size:
            # scipy's COO->CSR conversion merges duplicates in compiled code,
            # which is much faster than a Python-side unique over packed keys.
            data = np.ones(src.shape[0], dtype=np.float64)
            mat = sp.coo_matrix(
                (data, (dst, src)), shape=(num_nodes, num_nodes)
            ).tocsr()
            return cls(mat.indptr.astype(np.int64), mat.indices.astype(np.int64))
        order = np.argsort(dst, kind="stable")
        src, dst = src[order], dst[order]
        counts = np.bincount(dst, minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, src)

    @classmethod
    def from_scipy(cls, mat: sp.spmatrix) -> "CSRGraph":
        """Build from a square scipy sparse matrix (``mat[v, u] != 0`` means
        ``u -> v``)."""
        csr = mat.tocsr()
        if csr.shape[0] != csr.shape[1]:
            raise ValueError(f"adjacency must be square, got {csr.shape}")
        return cls(csr.indptr.astype(np.int64), csr.indices.astype(np.int64))

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        return int(self.indices.shape[0])

    @property
    def in_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbor_slices(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Start/stop offsets of the neighbor lists of ``nodes``."""
        nodes = np.asarray(nodes, dtype=np.int64)
        return self.indptr[nodes], self.indptr[nodes + 1]

    def to_scipy(self) -> sp.csr_matrix:
        data = np.ones(self.num_edges, dtype=np.float64)
        return sp.csr_matrix(
            (data, self.indices, self.indptr), shape=(self.num_nodes, self.num_nodes)
        )

    def one_hop_closure(self, nodes: np.ndarray) -> np.ndarray:
        """Return ``nodes`` plus all their in-neighbors (sorted unique).

        Used by the DNP cache policy (partition plus 1-hop halo, paper §3.2).
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        starts, stops = self.neighbor_slices(nodes)
        lens = stops - starts
        total = int(lens.sum())
        # Vectorized ragged gather: absolute indices of every neighbor slot.
        offsets = np.cumsum(lens) - lens
        flat = np.repeat(starts - offsets, lens) + np.arange(total)
        halo = self.indices[flat]
        # Presence mask over the node space: same sorted-unique result as
        # unique(concatenate(...)) without sorting the (large) halo.
        mask = np.zeros(self.num_nodes, dtype=bool)
        mask[nodes] = True
        mask[halo] = True
        return np.flatnonzero(mask)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"
