"""The composed forms the compute path is pinned against, bit for bit.

``repro.tensor`` runs one compute path: fused tape nodes, the segment-sum
adjoint of ``Tensor.index_rows``, the fused gather→aggregate node and the
trainer's cross-device shared gather.  Each function here is the chain that
path replaces — the primitive tape nodes of ``act(x @ w + b)``,
``act(sum(terms) + b)``, the log-softmax cross entropy and
``segment_sum(x.index_rows(src), dst)``, the n-D ``np.add.at`` adjoint of a
row gather, and one direct feature gather per device — and the tests
require the production path to match it exactly (DESIGN.md §5.12).

:func:`install_composed_kernels` and :func:`install_direct_gather` swap the
references in through a ``pytest.MonkeyPatch``; every caller in ``src/``
reaches the kernels through their module or class attribute, so the patch
covers models, strategies and the trainer alike.
"""

from __future__ import annotations

import numpy as np

from repro.featurestore.store import UnifiedFeatureStore
from repro.tensor import fused, sparse
from repro.tensor import functional as F
from repro.tensor.sparse import SegmentIndex
from repro.tensor.tensor import Tensor, add_n


def _activation(t: Tensor, activation):
    if activation is None:
        return t
    if activation == "relu":
        return F.relu(t)
    if activation == "elu":
        return F.elu(t)
    raise ValueError(f"unsupported fused activation {activation!r}")


def linear(x, w, b=None, activation=None):
    """``fused.linear`` as three primitive nodes: matmul, add, activation."""
    out = x @ w
    if b is not None:
        out = out + b
    return _activation(out, activation)


_fused_add_bias_act = fused.add_bias_act


def add_bias_act(terms, bias, activation=None, reshape_to=None, spans=None,
                 order=None):
    """``fused.add_bias_act`` as ``((t0 + t1) + ...) + bias``, then act.

    A segment-ordered epilogue (``spans``) stays fused: its bias adjoint
    replays the per-segment chains, which ``tests/first_layer_reference.py``
    pins (as it pins ``fused.segment_linear``).
    """
    if spans is not None:
        return _fused_add_bias_act(terms, bias, activation, reshape_to,
                                   spans=spans, order=order)
    terms = list(terms)
    out = terms[0]
    if reshape_to is not None:
        out = out.reshape(reshape_to)
    for t in terms[1:]:
        out = out + t
    return _activation(out + bias, activation)


def cross_entropy(logits, labels, weight_total=None, segments=None):
    """``F.cross_entropy`` as log-softmax, one-hot product, sum, scale; with
    ``segments``, one such chain per row slice, summed with ``add_n``."""
    labels = np.asarray(labels, dtype=np.int64)
    if segments is not None:
        return add_n([
            cross_entropy(
                logits.index_rows(np.arange(rows.start, rows.stop)),
                labels[rows], weight_total,
            )
            for rows in segments
        ])
    n = logits.shape[0]
    one_hot = np.zeros(logits.shape, dtype=logits.data.dtype)
    one_hot[np.arange(n), labels] = 1.0
    denom = float(n if weight_total is None else weight_total)
    logp = F.log_softmax(logits, axis=-1)
    return (logp * Tensor(one_hot)).sum() * (-1.0 / denom)


def index_rows(self, idx):
    """``Tensor.index_rows`` whose adjoint is the n-D ``np.add.at``."""
    if isinstance(idx, SegmentIndex):
        idx = idx.ids
    idx = np.asarray(idx, dtype=np.int64)

    def backward_fn(g: np.ndarray) -> None:
        if self.requires_grad:
            buf = np.zeros_like(self.data)
            np.add.at(buf, idx, g)
            self._accumulate(buf)

    return Tensor._make(self.data[idx], (self,), backward_fn, "index_rows")


def gather_segment_sum(x, src_ids, dst_index, num_segments=None):
    """``sparse.gather_segment_sum`` as a row gather, then a segment sum."""
    return sparse.segment_sum(x.index_rows(src_ids), dst_index, num_segments)


def install_composed_kernels(mp) -> None:
    """Route every fused kernel and the gather adjoint to its composed form."""
    mp.setattr(fused, "linear", linear)
    mp.setattr(fused, "add_bias_act", add_bias_act)
    mp.setattr(sparse, "gather_segment_sum", gather_segment_sum)
    mp.setattr(F, "cross_entropy", cross_entropy)
    mp.setattr(Tensor, "index_rows", index_rows)


def install_direct_gather(mp) -> None:
    """Stage nothing: every device's ``store.read`` gathers its own rows."""
    mp.setattr(
        UnifiedFeatureStore, "begin_shared_gather", lambda self, requests: None
    )
