"""Fused autograd kernels: one tape node where the composed form built 3–4.

Each function here collapses a fixed op chain — ``X @ W (+ b) (+ act)``,
``sum(terms) + b (+ act)`` — into a single tape node whose forward and
backward perform the *same IEEE operations in the same order* as the chain
of primitive nodes it replaces, so outputs and every accumulated gradient
are bit-identical (pinned by ``tests/tensor/test_fused_kernels.py``; the
why is spelled out in DESIGN.md §5.12).  What fusion removes is pure
overhead: intermediate output arrays, per-node closure dispatch, and the
defensive gradient copies made at every interior node boundary.

Two structural invariants keep end-to-end runs bit-identical even with
*shared* parameters (the replicated-DDP model means every parameter
receives one gradient contribution per device):

* parents are passed in the same order the composed chain would have
  explored them, so the reverse-topological execution order of every other
  node in the graph is unchanged;
* only single-consumer chains built inside one call are fused, so no
  accumulation into any buffer is reordered relative to the composed tape.

The composed chains themselves live in ``tests/composed_reference.py``,
the reference the bitwise tests compare against.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.tensor.tensor import Tensor, _unbroadcast

#: activations a fused node can absorb
_ACTIVATIONS = (None, "relu", "elu")


def _forward_activation(pre: np.ndarray, activation: Optional[str]):
    """Apply ``activation`` to ``pre``; returns ``(out, dact)`` where
    ``dact`` multiplies the output gradient (None = identity)."""
    if activation is None:
        return pre, None
    if activation == "relu":
        # Same ops as Tensor.maximum_scalar(0.0).
        return np.maximum(pre, 0.0), pre > 0.0
    if activation == "elu":
        # Same ops as functional.elu (alpha = 1.0).
        pos = pre > 0
        exp_part = np.exp(np.minimum(pre, 0.0)) - 1.0
        out = np.where(pos, pre, exp_part)
        deriv = np.where(pos, 1.0, exp_part + 1.0)
        return out, deriv
    raise ValueError(f"unsupported fused activation {activation!r}")


def linear(
    x: Tensor,
    w: Tensor,
    b: Optional[Tensor] = None,
    activation: Optional[str] = None,
) -> Tensor:
    """Fused ``act(x @ w + b)`` as a single tape node.

    This is the dense-projection workhorse: ``Linear.forward`` (no
    activation) and the GCN layer's project+bias+ReLU both route here.
    """
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ValueError(
            "fused linear supports 2-D operands only; got "
            f"{x.data.ndim}-D @ {w.data.ndim}-D"
        )
    pre = x.data @ w.data
    if b is not None:
        # In-place add of the fresh matmul output: identical elementwise
        # float add to the composed `(x @ w) + b` node.
        pre += b.data
    out_data, dact = _forward_activation(pre, activation)
    x_data, w_data = x.data, w.data

    def backward_fn(g: np.ndarray) -> None:
        ga = g * dact if dact is not None else g
        if x.requires_grad:
            x._accumulate_owned(ga @ w_data.T)
        if w.requires_grad:
            w._accumulate_owned(x_data.T @ ga)
        if b is not None and b.requires_grad:
            # _unbroadcast always reduces (n, d) -> (d,): fresh array.
            b._accumulate_owned(_unbroadcast(ga, b.data.shape))

    parents = (x, w) if b is None else (x, w, b)
    return Tensor._make(out_data, parents, backward_fn, "fused_linear")


def add_bias_act(
    terms: Sequence[Tensor],
    bias: Tensor,
    activation: Optional[str] = None,
    reshape_to: Optional[Tuple[int, ...]] = None,
    spans: Optional[np.ndarray] = None,
    order: Optional[Callable[[], Sequence[int]]] = None,
) -> Tensor:
    """Fused ``act(sum(terms) + bias)`` as a single tape node.

    Covers the epilogue of every GNN layer: GCN's ``pre + b`` (+ReLU),
    GraphSAGE's ``neigh + self + b`` (+ReLU), and GAT's head-concat
    ``reshape + b`` (+ELU).  ``reshape_to`` (single term only) folds the
    head-flattening reshape into the node.  With ``spans`` (row offsets of
    stacked segments) the bias adjoint is segment-ordered, as in
    :func:`segment_linear`.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("add_bias_act requires at least one term")
    if reshape_to is not None and len(terms) != 1:
        raise ValueError("reshape_to is only supported for a single term")

    acc = terms[0].data
    in_shape = acc.shape
    if reshape_to is not None:
        acc = acc.reshape(reshape_to)
    # Successive binary adds in composed order: ((t0 + t1) + ... ) + bias.
    pre = acc + terms[1].data if len(terms) > 1 else None
    for t in terms[2:]:
        pre += t.data
    pre = acc + bias.data if pre is None else pre.__iadd__(bias.data)
    out_data, dact = _forward_activation(pre, activation)

    def backward_fn(g: np.ndarray) -> None:
        ga = g * dact if dact is not None else g
        for t in terms:
            if t.requires_grad:
                gt = ga.reshape(in_shape) if reshape_to is not None else ga
                t._accumulate(_unbroadcast(gt, t.data.shape))
        if bias.requires_grad:
            # Reducing (n, d) -> (d,) always yields a fresh array.
            for rows in [slice(None)] if spans is None else [
                slice(spans[s], spans[s + 1]) for s in order()
            ]:
                bias._accumulate_owned(_unbroadcast(ga[rows], bias.data.shape))

    parents: List[Tensor] = [*terms, bias]
    return Tensor._make(out_data, parents, backward_fn, "fused_add_bias_act")


def segment_linear(
    terms: Sequence[Tuple[Tensor, Tensor]],
    spans: np.ndarray,
    bias: Optional[Tensor] = None,
    activation: Optional[str] = None,
    order: Optional[Callable[[], Sequence[int]]] = None,
) -> Tensor:
    """Fused ``act(sum_k x_k[s] @ w_k + b)`` over row segments ``s``, one node.

    Each term pairs an input stacking the segments' rows at ``spans`` (row
    offsets) with a weight.  Every product is the per-segment BLAS call and
    the epilogue elementwise: one ``linear`` / ``add_bias_act`` chain per
    segment, bit for bit.  The adjoint is segment-ordered: each segment's
    weight, bias and input gradients come from its own rows, the shared
    ones added in ``order()`` (ascending when omitted; a segment missing
    was never reached), the order the tape reached the per-segment nodes
    (DESIGN.md §5.18).
    """
    bounds = list(zip(spans[:-1], spans[1:]))
    inputs = [[x.data[a:b] for a, b in bounds] for x, _ in terms]
    outs = []
    for xs, (_, w) in zip(inputs, terms):
        out = np.empty((spans[-1], w.data.shape[1]))
        for x, (a, b) in zip(xs, bounds):
            out[a:b] = x @ w.data
        outs.append(out)
    pre = outs[0] + outs[1] if len(outs) > 1 else outs[0]
    for out in outs[2:]:
        pre += out
    if bias is not None:
        pre += bias.data
    out_data, dact = _forward_activation(pre, activation)

    def backward_fn(g: np.ndarray) -> None:
        ga = g * dact if dact is not None else g
        grads = [np.zeros(x.data.shape) if x.requires_grad else None for x, _ in terms]
        for s in order() if order is not None else range(len(bounds)):
            rows = slice(*bounds[s])
            for xs, (_, w), buf in zip(inputs, terms, grads):
                if w.requires_grad:
                    w._accumulate_owned(xs[s].T @ ga[rows])
                if buf is not None:
                    buf[rows] = ga[rows] @ w.data.T
            if bias is not None and bias.requires_grad:
                bias._accumulate_owned(_unbroadcast(ga[rows], bias.data.shape))
        for (x, _), buf in zip(terms, grads):
            if buf is not None:
                x._accumulate_owned(buf)

    parents = [x for x, _ in terms] + [w for _, w in terms]
    parents += [] if bias is None else [bias]
    return Tensor._make(out_data, parents, backward_fn, "segment_linear")
