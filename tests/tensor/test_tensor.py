"""Tensor storage: gradient ownership, interior-gradient lifetime, no-copy wraps."""

import numpy as np

from repro.tensor import fused
from repro.tensor import functional as F
from repro.tensor.module import Linear
from repro.tensor.tensor import Tensor


# ---------------------------------------------------------------------- #
# gradient storage through autograd
# ---------------------------------------------------------------------- #
def test_param_grads_never_share_storage():
    # Every parameter's grad must be a distinct array — one buffer serving
    # two grads at once would corrupt both.
    lin1 = Linear(48, 48)
    lin2 = Linear(48, 48)
    x = Tensor(np.random.default_rng(0).standard_normal((32, 48)))
    for _ in range(3):  # repeat across zero_grad: no stale buffer survives
        out = lin2.forward(F.relu(lin1.forward(x)))
        out.sum().backward()
        params = list(lin1.parameters()) + list(lin2.parameters())
        grads = [p.grad for p in params]
        assert all(g is not None for g in grads)
        bases = [g if g.base is None else g.base for g in grads]
        assert len({id(b) for b in bases}) == len(bases)
        for p in params:
            p.zero_grad()


def test_backward_drops_interior_grads_and_leaves_keep_theirs():
    # Once a node's closure has run no later closure reads its gradient,
    # so backward frees it; leaves (no closure) keep theirs for the
    # optimizer.  Covers copying (_accumulate) and adopting
    # (_accumulate_owned) adjoints: fused linear, gather, loss.
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((6, 5)), requires_grad=True)
    w = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal(4), requires_grad=True)
    h = fused.linear(x, w, b, activation="relu")
    rows = h.index_rows(np.array([0, 2, 2, 5]))
    scaled = rows * 2.0
    loss = F.cross_entropy(scaled, np.array([0, 1, 1, 0]))
    loss.backward()
    for node in (h, rows, scaled, loss):
        assert node.grad is None, node._op
    for leaf in (x, w, b):
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape


# ---------------------------------------------------------------------- #
# Tensor construction no-copy pins
# ---------------------------------------------------------------------- #
def test_tensor_wraps_float64_array_without_copy():
    arr = np.zeros((8, 8))
    assert Tensor(arr).data is arr


def test_tensor_copies_on_dtype_mismatch():
    arr = np.zeros((8, 8), dtype=np.float32)
    t = Tensor(arr)
    assert t.data is not arr
    assert t.data.dtype == np.float64
