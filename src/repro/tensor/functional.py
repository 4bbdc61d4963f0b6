"""Composite neural-network functions built on the autograd ``Tensor``.

Contains the activations used by GraphSAGE/GAT, numerically-stable
(log-)softmax, the node-classification cross-entropy loss and the binary
cross-entropy of link prediction.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from repro.tensor.tensor import Tensor


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.maximum_scalar(0.0)


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    """Leaky ReLU (GAT's attention-score nonlinearity; default slope 0.2)."""
    data = np.where(x.data > 0, x.data, negative_slope * x.data)
    mask = np.where(x.data > 0, 1.0, negative_slope)

    def backward_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * mask)

    return Tensor._make(data, (x,), backward_fn, "leaky_relu")


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    """Exponential linear unit (GAT's layer activation)."""
    pos = x.data > 0
    exp_part = alpha * (np.exp(np.minimum(x.data, 0.0)) - 1.0)
    data = np.where(pos, x.data, exp_part)
    deriv = np.where(pos, 1.0, exp_part + alpha)

    def backward_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * deriv)

    return Tensor._make(data, (x,), backward_fn, "elu")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - log_z
    softmax = np.exp(data)

    def backward_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g - softmax * g.sum(axis=axis, keepdims=True))

    return Tensor._make(data, (x,), backward_fn, "log_softmax")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    return log_softmax(x, axis=axis).exp()


def cross_entropy(
    logits: Tensor,
    labels: np.ndarray,
    weight_total: Optional[float] = None,
    segments: Optional[Sequence[slice]] = None,
) -> Tensor:
    """Mean (or weighted-sum) cross-entropy for integer class labels.

    Parameters
    ----------
    logits:
        ``(n, num_classes)`` scores.
    labels:
        ``(n,)`` integer class labels.
    weight_total:
        When ``None`` the loss is averaged over the local ``n`` examples.
        When given, the loss is ``sum(per_example) / weight_total``.  The
        parallel trainer passes the *global* minibatch size here so that
        per-device losses sum to the exact global mean regardless of how the
        strategies distribute seeds among devices: all strategies apply the
        same updates, to the last bits rather than bitwise (each adds its
        partial sums in its own order; ``test_strategy_distance.py``).
    segments:
        Row slices whose losses are formed on their own and added in this
        order: one loss node per slice summed with ``add_n``, bit for bit.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match ({n},)")
    # Select the label log-probabilities with a one-hot inner product to stay
    # within the op set that has exact adjoints.
    one_hot = np.zeros(logits.shape, dtype=logits.data.dtype)
    one_hot[np.arange(n), labels] = 1.0
    denom = float(n if weight_total is None else weight_total)
    # Fused node: same IEEE ops/order as the composed chain
    # ``(log_softmax(logits) * one_hot).sum() * (-1 / denom)`` (see
    # DESIGN.md §5.12; the chain is the reference in tests/), without
    # materializing the one-hot product, the broadcast sum-gradient, or
    # three closure records.
    x = logits.data
    shifted = x - x.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp_data = shifted - log_z
    softmax_data = np.exp(logp_data)
    scale = np.asarray(-1.0 / denom, dtype=x.dtype)
    picked = logp_data * one_hot
    out_data = functools.reduce(np.add, [
        picked[rows].sum() * scale for rows in segments or [slice(None)]
    ])

    def backward_fn(g: np.ndarray) -> None:
        if not logits.requires_grad:
            return
        # Composed chain's adjoint: scalar-mul, then a broadcast of the
        # summed gradient, the one-hot mask, and log-softmax's backward.
        gl = one_hot * (g * scale)
        logits._accumulate_owned(
            gl - softmax_data * gl.sum(axis=-1, keepdims=True)
        )

    return Tensor._make(
        np.asarray(out_data), (logits,), backward_fn, "fused_cross_entropy"
    )


def binary_cross_entropy_with_logits(
    logits: Tensor, targets: np.ndarray
) -> Tensor:
    """Mean binary cross entropy over raw scores (numerically stable).

    Uses ``max(x, 0) - x*y + log(1 + exp(-|x|))`` — the standard stable
    form.  ``targets`` are constant 0/1 labels (e.g. positive vs negative
    edges in link prediction).
    """
    t = np.asarray(targets, dtype=logits.data.dtype)
    if t.shape != logits.shape:
        raise ValueError(
            f"targets shape {t.shape} does not match logits {logits.shape}"
        )
    x = logits.data
    loss_val = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    # d/dx = sigmoid(x) - t
    grad_local = 1.0 / (1.0 + np.exp(-x)) - t
    n = x.size

    def backward_fn(g: np.ndarray) -> None:
        if logits.requires_grad:
            logits._accumulate(g * grad_local / n)

    out = Tensor._make(
        np.array(loss_val.mean()), (logits,), backward_fn, "bce_logits"
    )
    return out
