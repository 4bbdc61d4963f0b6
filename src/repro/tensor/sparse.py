"""Sparse and segment kernels — the GNN analogue of DGL's SpMM/SDDMM.

A sampled GNN layer is a bipartite graph: edges ``(u, v)`` connect source
nodes (whose embeddings are inputs) to destination nodes (whose embeddings
are produced).  Aggregation over in-edges of each destination is expressed
with *segment operations*: edge values grouped by destination index.

All kernels here are autograd-aware and fully vectorized
(``np.add.at`` / ``np.ufunc.reduceat`` style), with exact adjoints:

==================   ====================================================
forward              backward
==================   ====================================================
Tensor.index_rows    scatter-add
segment_sum          gather
segment_mean         gather / count
segment_softmax      softmax Jacobian within each segment
gather_segment_sum   the transposed selection product (g-SpMM's adjoint)
==================   ====================================================
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.tensor.tensor import Tensor

try:  # the C routine ``csr_matrix @ dense`` ends in; private, hence guarded
    from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
except ImportError:
    _csr_matvecs = None


def _check_segments(segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    # One reduction checks both bounds: a negative id read as uint64 is huge.
    if segment_ids.size and segment_ids.view(np.uint64).max() >= num_segments:
        raise IndexError(
            f"segment ids must lie in [0, {num_segments}); got range "
            f"[{segment_ids.min()}, {segment_ids.max()}]"
        )
    return segment_ids


def _is_nondecreasing(segment_ids: np.ndarray) -> bool:
    return segment_ids.shape[0] < 2 or bool(
        (segment_ids[1:] >= segment_ids[:-1]).all()
    )


def _stable_order(segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
    """``np.argsort(segment_ids, kind="stable")`` via a composite-key sort.

    Sorting ``sid * E + position`` and taking ``% E`` yields exactly the
    stable permutation (keys are unique, position breaks ties in original
    order) — but ``np.sort`` on the fused key runs several times faster
    than a stable argsort.  Falls back to argsort if the key could overflow
    ``int64`` (unreachable at any realistic E * num_segments).
    """
    E = segment_ids.shape[0]
    if 0 < E <= (2**62) // max(num_segments, 1):
        key = segment_ids * np.int64(E) + np.arange(E, dtype=np.int64)
        return np.sort(key) % np.int64(E)
    return np.argsort(segment_ids, kind="stable")


class SegmentIndex:
    """Validated segment ids plus the grouping structure derived from them.

    ``ids[e]`` is the segment (destination, output row) of row ``e``.  The
    ids are range-checked once, here; sortedness, the rows per segment,
    their running sum (a CSR row pointer) and the stable grouping order
    are each built on first use and kept, so every kernel that aggregates
    over — or scatters a gradient through — the same ids shares one build.
    Immutable by contract: ``ids`` must not be written after construction.
    Accepted wherever :func:`segment_sum`, :func:`segment_mean`,
    :func:`segment_softmax` and :meth:`Tensor.index_rows` take a raw id
    array.
    """

    __slots__ = ("ids", "num_segments", "_sorted", "_counts", "_indptr", "_cols")

    def __init__(self, ids: np.ndarray, num_segments: int):
        self.num_segments = int(num_segments)
        self.ids = _check_segments(ids, self.num_segments)
        if self.ids.ndim != 1:
            raise ValueError(f"segment ids must be 1-D; got shape {self.ids.shape}")
        self._sorted: Optional[bool] = None
        self._counts: Optional[np.ndarray] = None
        self._indptr: Optional[np.ndarray] = None
        self._cols: Optional[np.ndarray] = None

    @property
    def is_sorted(self) -> bool:
        if self._sorted is None:
            self._sorted = _is_nondecreasing(self.ids)
        return self._sorted

    @property
    def counts(self) -> np.ndarray:
        """``(num_segments,)`` rows per segment (int64)."""
        if self._counts is None:
            self._counts = np.bincount(self.ids, minlength=self.num_segments)
        return self._counts

    @property
    def indptr(self) -> np.ndarray:
        """``(num_segments + 1,)`` CSR row pointer: segment ``s``'s rows are
        ``cols[indptr[s]:indptr[s + 1]]``."""
        if self._indptr is None:
            ptr = np.zeros(self.num_segments + 1, dtype=np.int64)
            np.cumsum(self.counts, out=ptr[1:])
            self._indptr = ptr
        return self._indptr

    @property
    def cols(self) -> np.ndarray:
        """Row positions grouped by segment, original order within each:
        the stable sort order (kept), or a fresh ``arange`` for sorted ids
        (cheaper to remake than to hold on every cached block)."""
        if self._cols is None:
            if self.is_sorted:
                return np.arange(self.ids.shape[0], dtype=np.int64)
            self._cols = _stable_order(self.ids, self.num_segments)
        return self._cols


IndexLike = Union[np.ndarray, SegmentIndex]


def _as_index(
    segment_ids: IndexLike, num_segments: Optional[int] = None
) -> SegmentIndex:
    """Pass a :class:`SegmentIndex` through; validate and wrap a raw id array."""
    if isinstance(segment_ids, SegmentIndex):
        if num_segments is not None and num_segments != segment_ids.num_segments:
            raise ValueError(
                f"index has {segment_ids.num_segments} segments, "
                f"caller expects {num_segments}"
            )
        return segment_ids
    if num_segments is None:
        raise TypeError("num_segments is required with a raw segment id array")
    return SegmentIndex(segment_ids, num_segments)


#: Operands with fewer elements than this keep ``np.add.at``: under it the
#: generic 2-D ``ufunc.at`` loop (~2 us + 12 ns/element) beats building the
#: row pointer for a one-off index.  Measured, with the table, in
#: DESIGN.md 5.9; both paths are bit-identical, so this is a speed choice.
_ADD_AT_MAX_SIZE = 1024


def _rowsum_csr_direct(indptr, cols, flat: np.ndarray) -> np.ndarray:
    """``S @ flat`` for the 0/1 selection CSR ``(ones, cols, indptr)``,
    through the C routine scipy's own ``csr_matrix @ dense`` ends in —
    without building (and validating) a ``csr_matrix`` per call."""
    n_rows, n_cols = flat.shape
    n_out = indptr.shape[0] - 1
    out = np.zeros((n_out, n_cols), dtype=flat.dtype)
    # The routine reads raw buffers with no bounds check: C-contiguous, one
    # value dtype, one index dtype.  ``cols``/``indptr`` are int64 and in
    # range by construction (built from checked ids).
    _csr_matvecs(
        n_out, n_rows, n_cols,
        indptr, np.ascontiguousarray(cols), np.ones(cols.shape[0], dtype=flat.dtype),
        np.ascontiguousarray(flat).reshape(-1), out.reshape(-1),
    )
    return out


def _rowsum_csr_public(indptr, cols, flat: np.ndarray) -> np.ndarray:
    """The same product through scipy's public API (~50 us of constructor
    and validation per call); used only where the private routine is gone."""
    sel = sp.csr_matrix(
        (np.ones(cols.shape[0], dtype=flat.dtype), cols, indptr),
        shape=(indptr.shape[0] - 1, flat.shape[0]),
    )
    return sel @ flat


#: Chosen at import, not by a knob: same arithmetic through either entry.
_rowsum_csr = _rowsum_csr_public if _csr_matvecs is None else _rowsum_csr_direct


def _segment_sum_array(data: np.ndarray, index: SegmentIndex) -> np.ndarray:
    """Per-segment row sums, bit-identical to sequential ``np.add.at``.

    ``np.add.reduceat`` would be the obvious kernel but it reduces
    *pairwise*, so its float sums differ in the last bits from the
    sequential scatter-add the engine's equivalence tests pin.  Instead we
    multiply by a 0/1 *selection CSR* whose row ``s`` stores the positions
    of segment ``s``'s rows in their original order: scipy's CSR matvec
    accumulates each output row sequentially in stored-index order, which
    reproduces ``np.add.at`` exactly while running on a C hot loop.

    The path depends on the operand's shape alone: 1-D operands (NumPy's
    ``ufunc.at`` has a fast indexed loop for them) and operands under
    ``_ADD_AT_MAX_SIZE`` elements take ``np.add.at`` itself.
    """
    n_rows = index.ids.shape[0]
    if data.shape[0] != n_rows:
        raise ValueError(
            f"data has {data.shape[0]} rows, segment index has {n_rows}"
        )
    out_shape = (index.num_segments,) + data.shape[1:]
    if data.ndim == 1 or data.size < _ADD_AT_MAX_SIZE:
        out = np.zeros(out_shape, dtype=data.dtype)
        np.add.at(out, index.ids, data)
        return out
    flat = _rowsum_csr(index.indptr, index.cols, data.reshape(n_rows, -1))
    return flat.reshape(out_shape)


def _segment_sum_tensor(values: Tensor, index: SegmentIndex) -> Tensor:
    out = _segment_sum_array(values.data, index)
    ids = index.ids

    def backward_fn(g: np.ndarray) -> None:
        if values.requires_grad:
            # Fresh fancy-index gather: adopted without a defensive copy.
            values._accumulate_owned(g[ids])

    return Tensor._make(out, (values,), backward_fn, "segment_sum")


def segment_sum(
    values: Tensor, segment_ids: IndexLike, num_segments: Optional[int] = None
) -> Tensor:
    """Sum ``values`` rows into ``num_segments`` buckets by ``segment_ids``.

    ``values`` is ``(E, d)`` (or ``(E,)``); the result is
    ``(num_segments, d)`` with row ``s`` equal to the sum of rows whose
    segment id is ``s``.  Empty segments produce zero rows.  ``segment_ids``
    is a raw id array (then ``num_segments`` is required) or a
    :class:`SegmentIndex`.
    """
    return _segment_sum_tensor(values, _as_index(segment_ids, num_segments))


def segment_count(segment_ids: IndexLike, num_segments: Optional[int] = None) -> np.ndarray:
    """Return the number of entries in each segment (plain array)."""
    return _as_index(segment_ids, num_segments).counts.astype(np.float64)


def segment_mean(
    values: Tensor, segment_ids: IndexLike, num_segments: Optional[int] = None
) -> Tensor:
    """Per-segment mean; empty segments yield zero rows."""
    index = _as_index(segment_ids, num_segments)
    return _divide_by_counts(_segment_sum_tensor(values, index), index)


def _divide_by_counts(total: Tensor, index: SegmentIndex) -> Tensor:
    """``total`` row ``s`` times ``1 / max(count_s, 1)``: a node of its own,
    since ``(sum v) * inv`` and ``sum(v * inv)`` differ in the last bits."""
    safe = np.maximum(index.counts, 1)
    inv = (1.0 / safe).reshape((index.num_segments,) + (1,) * (total.data.ndim - 1))
    return total * Tensor(inv)


def gather_segment_sum(
    x: Tensor,
    src_ids: IndexLike,
    dst_index: IndexLike,
    num_segments: Optional[int] = None,
) -> Tensor:
    """``segment_sum(x.index_rows(src_ids), dst_index)`` as one tape node.

    DGL's g-SpMM "copy source, sum at destination": a selection CSR with
    columns ``src_ids[dst.cols]`` (``src_ids`` itself for sorted
    destinations) reads ``x`` directly, so the ``E x d`` message tensor is
    never built; the adjoint is the transposed product, columns
    ``dst.ids[src.cols]``.  Both add each output row's terms sequentially
    in edge order, as the composed chain does, so values and gradients
    are its own bit for bit (DESIGN.md 5.9); under ``_ADD_AT_MAX_SIZE``
    message elements, or for 1-D ``x``, both directions run that chain's
    ``np.add.at`` inside the node.  ``src_ids`` is a raw row-id array or a
    :class:`SegmentIndex` over ``x``'s rows (callers gathering through the
    same ids repeatedly pass one, so the adjoint's grouping is built once).
    """
    dst = _as_index(dst_index, num_segments)
    data = x.data
    n_rows = data.shape[0]
    if isinstance(src_ids, SegmentIndex):
        if src_ids.num_segments != n_rows:
            raise ValueError(
                f"row index covers {src_ids.num_segments} rows, tensor has {n_rows}"
            )
        src_index, src = src_ids, src_ids.ids
    else:
        src_index, src = None, np.asarray(src_ids, dtype=np.int64)
    n_edges = src.shape[0]
    if dst.ids.shape[0] != n_edges:
        raise ValueError(
            f"{n_edges} source ids, destination index has {dst.ids.shape[0]}"
        )
    out_shape = (dst.num_segments,) + data.shape[1:]
    small = data.ndim == 1 or n_edges * math.prod(data.shape[1:]) < _ADD_AT_MAX_SIZE
    if small:
        # The gather checks the ids, as ``index_rows`` does; a one-off
        # index would cost this path more than its scatter-add.
        out = np.zeros(out_shape, dtype=data.dtype)
        np.add.at(out, dst.ids, data[src])
    else:
        if src_index is None:  # the C routine reads ``x`` unchecked
            src_index = SegmentIndex(src, n_rows)
        cols = src if dst.is_sorted else src[dst.cols]
        out = _rowsum_csr(dst.indptr, cols, data.reshape(n_rows, -1))
        out = out.reshape(out_shape)

    def backward_fn(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        if small:
            buf = np.zeros(data.shape, dtype=g.dtype)
            np.add.at(buf, _check_segments(src, n_rows), g[dst.ids])
        else:
            cols = dst.ids if src_index.is_sorted else dst.ids[src_index.cols]
            flat = _rowsum_csr(src_index.indptr, cols, g.reshape(dst.num_segments, -1))
            buf = flat.reshape(data.shape)
        x._accumulate_owned(buf)

    return Tensor._make(out, (x,), backward_fn, "gather_segment_sum")


def gather_segment_mean(
    x: Tensor,
    src_ids: IndexLike,
    dst_index: IndexLike,
    num_segments: Optional[int] = None,
) -> Tensor:
    """``segment_mean(x.index_rows(src_ids), dst_index)``: the fused sum,
    then the per-segment ``1 / count`` node (empty segments yield zeros)."""
    dst = _as_index(dst_index, num_segments)
    return _divide_by_counts(gather_segment_sum(x, src_ids, dst), dst)


def _segment_max_array(values: np.ndarray, index: SegmentIndex) -> np.ndarray:
    """Per-segment max via ``maximum.reduceat`` on sorted segment runs.

    Max is associative and exact, so the reduceat tree order cannot change
    the result — bit-identical to ``np.maximum.at`` (which has no fast
    path) at a fraction of the cost.  Empty segments return ``-inf``.
    """
    num_segments, segment_ids = index.num_segments, index.ids
    out = np.full((num_segments,) + values.shape[1:], -np.inf, dtype=np.float64)
    E = segment_ids.shape[0]
    if E == 0:
        return out
    if values.ndim == 1:
        np.maximum.at(out, segment_ids, values)  # 1-D indexed fast loop
        return out
    if not index.is_sorted:
        # Unsorted n-D: column-wise 1-D fast loops on an F-order copy.
        # Max is order-independent, so any evaluation order is exact.
        flat = np.asfortranarray(values.reshape(E, -1))
        out2 = out.reshape(num_segments, -1)
        buf = np.empty(num_segments, dtype=np.float64)
        for j in range(flat.shape[1]):
            buf.fill(-np.inf)
            np.maximum.at(buf, segment_ids, flat[:, j])
            out2[:, j] = buf
        return out
    starts = np.flatnonzero(np.r_[True, segment_ids[1:] != segment_ids[:-1]])
    out[segment_ids[starts]] = np.maximum.reduceat(values, starts, axis=0)
    return out


def segment_softmax(
    scores: Tensor, segment_ids: IndexLike, num_segments: Optional[int] = None
) -> Tensor:
    """Softmax of edge scores within each destination segment.

    This is GAT's ``edge_softmax``: for each destination node ``v`` the
    attention logits of its in-edges are normalized to sum to one.  Computed
    via the shift-invariant decomposition
    ``softmax(e) = exp(e - m_v) / sum exp(e - m_v)`` with the per-segment max
    ``m_v`` detached.  One index serves the max, the sum and the adjoint of
    the per-edge denominator gather.
    """
    index = _as_index(segment_ids, num_segments)
    maxes = _segment_max_array(scores.data, index)
    # Fused (scores - shift).exp(): one pass, one buffer.  IEEE subtraction
    # is addition of the negated operand, and the shift is detached, so
    # both the values and the adjoint (g * out) match the op-by-op chain
    # bit for bit.
    expd_data = np.subtract(scores.data, maxes[index.ids])
    np.exp(expd_data, out=expd_data)

    def _exp_shift_backward(g: np.ndarray) -> None:
        if scores.requires_grad:
            scores._accumulate(g * expd_data)

    expd = Tensor._make(expd_data, (scores,), _exp_shift_backward, "exp_shift")
    denom = _segment_sum_tensor(expd, index)
    # Gather per-edge denominator and divide.
    return expd / denom.index_rows(index)
