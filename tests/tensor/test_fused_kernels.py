"""Bitwise equivalence of every fused kernel against its composed form.

The fusion contract (DESIGN.md §5.12): a fused node performs the exact
IEEE-754 operation sequence of the composed chain it replaces, and its
parents are listed in the composed chain's DFS exploration order — so
forward values, every parameter gradient, and every input gradient are
bit-identical, not merely close.  The composed chains are the test-local
reference in ``tests/composed_reference.py``.  All checks here use
``np.array_equal`` on float64 data; no tolerances anywhere.
"""

import numpy as np
import pytest

from repro.models.gat import GATLayer
from repro.models.gcn import GCNLayer
from repro.models.sage import SAGELayer
from repro.sampling.block import Block
from repro.tensor import fused
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, add_n
from tests import composed_reference as reference


def _grads(params):
    return [None if p.grad is None else np.array(p.grad) for p in params]


def _run_both(build, seed=0):
    """Run ``build`` composed then fused; return (out, grads) pairs."""
    results = []
    for composed in (True, False):
        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            if composed:
                reference.install_composed_kernels(mp)
            out, params = build(rng)
            out.sum().backward() if out.data.ndim else out.backward()
        results.append((np.array(out.data), _grads(params)))
    return results


def _assert_bitwise(results):
    (out_a, grads_a), (out_b, grads_b) = results
    assert np.array_equal(out_a, out_b)
    assert len(grads_a) == len(grads_b)
    for ga, gb in zip(grads_a, grads_b):
        assert (ga is None) == (gb is None)
        if ga is not None:
            assert np.array_equal(ga, gb)


# ---------------------------------------------------------------------- #
# fused.linear
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("activation", [None, "relu", "elu"])
@pytest.mark.parametrize("with_bias", [False, True])
def test_fused_linear_bitwise(activation, with_bias):
    def build(rng):
        x = Tensor(rng.standard_normal((7, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True) if with_bias else None
        out = fused.linear(x, w, b, activation=activation)
        return out, [x, w] + ([b] if with_bias else [])

    _assert_bitwise(_run_both(build))


@pytest.mark.parametrize("order", [None, [2, 0, 3, 1]], ids=["ascending", "given"])
@pytest.mark.parametrize("terms", [1, 2])
def test_segment_linear_equals_one_chain_per_segment(terms, order):
    # Segments of 1 row (a gemv product) and several rows; the per-segment
    # chains add their weight and bias gradients in ``order``.
    rng = np.random.default_rng(terms)
    rows = [3, 1, 5, 2]
    xs = [[rng.standard_normal((n, 4)) for n in rows] for _ in range(terms)]
    g = rng.standard_normal((sum(rows), 3))

    def params():
        local = np.random.default_rng(7)
        ws = [Tensor(local.standard_normal((4, 3)), requires_grad=True)
              for _ in range(terms)]
        return ws, Tensor(local.standard_normal(3), requires_grad=True)

    ws, b = params()
    starts = np.cumsum([0] + rows)
    out = fused.segment_linear(
        [(Tensor(np.concatenate(x)), w) for x, w in zip(xs, ws)], starts, b,
        "relu", None if order is None else lambda: order,
    )
    out.backward(g)
    ref_ws, ref_b = params()
    chains = [
        fused.add_bias_act([Tensor(x[s]) @ w for x, w in zip(xs, ref_ws)], ref_b, "relu")
        for s in range(len(rows))
    ]
    for s in order if order is not None else range(len(rows)):
        chains[s].backward(g[starts[s] : starts[s + 1]])
    assert np.array_equal(out.data, np.concatenate([c.data for c in chains]))
    for got, want in zip(ws + [b], ref_ws + [ref_b]):
        assert np.array_equal(got.grad, want.grad)


@pytest.mark.parametrize("dims", [(4, 3), (32, 16), (64, 32), (16, 4)])
def test_segment_linear_tensor_input_gets_each_segments_gradient(dims):
    # A stacked input receives each segment's own ``g @ W.T`` (a 1-row
    # segment's is a gemv), bit for bit the per-segment chains' input
    # gradients; weights and bias follow ``order``.
    d_in, d_out = dims
    rng = np.random.default_rng(d_in * d_out)
    rows = [3, 1, 5, 1, 2, 1]
    spans = np.cumsum([0] + rows)
    x = rng.standard_normal((spans[-1], d_in))
    g = rng.standard_normal((spans[-1], d_out))
    order = [4, 1, 0, 5, 3, 2]

    def params():
        local = np.random.default_rng(11)
        return (Tensor(local.standard_normal((d_in, d_out)), requires_grad=True),
                Tensor(local.standard_normal(d_out), requires_grad=True))

    w, b = params()
    xt = Tensor(x, requires_grad=True)
    out = fused.segment_linear([(xt, w)], spans, b, "relu", lambda: order)
    out.backward(g)
    ref_w, ref_b = params()
    xs = [Tensor(x[a:c], requires_grad=True) for a, c in zip(spans[:-1], spans[1:])]
    chains = [fused.linear(xs[s], ref_w, ref_b, "relu") for s in range(len(rows))]
    for s in order:
        chains[s].backward(g[spans[s] : spans[s + 1]])
    assert np.array_equal(out.data, np.concatenate([c.data for c in chains]))
    assert np.array_equal(xt.grad, np.concatenate([t.grad for t in xs]))
    assert np.array_equal(w.grad, ref_w.grad)
    assert np.array_equal(b.grad, ref_b.grad)


def test_cross_entropy_segments_equal_one_loss_per_segment():
    # One loss node over stacked rows: each segment's loss on its own,
    # added in the given order, as ``add_n`` of per-segment losses.
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((17, 4)) * 3.0
    labels = rng.integers(0, 4, size=17)
    bounds = [(0, 5), (5, 6), (6, 12), (12, 17)]
    segments = [slice(*bounds[k]) for k in (2, 0, 3, 1)]
    stacked = Tensor(logits, requires_grad=True)
    loss = F.cross_entropy(stacked, labels, 40.0, segments=segments)
    loss.backward()
    parts = [Tensor(logits[rows], requires_grad=True) for rows in segments]
    ref = add_n([F.cross_entropy(t, labels[rows], 40.0)
                 for t, rows in zip(parts, segments)])
    ref.backward()
    assert loss.data.tobytes() == ref.data.tobytes()
    for t, rows in zip(parts, segments):
        assert np.array_equal(stacked.grad[rows], t.grad)


def test_fused_linear_negative_inputs_relu_mask():
    # Exercise the relu dead zone explicitly: grads must be exactly zero
    # in masked positions under both paths.
    def build(rng):
        x = Tensor(np.linspace(-2.0, 2.0, 12).reshape(4, 3), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        b = Tensor(np.array([-10.0, 10.0]), requires_grad=True)
        return fused.linear(x, w, b, activation="relu"), [x, w, b]

    _assert_bitwise(_run_both(build))


# ---------------------------------------------------------------------- #
# fused.add_bias_act
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("activation", [None, "relu", "elu"])
@pytest.mark.parametrize("num_terms", [1, 2, 3])
def test_fused_add_bias_act_bitwise(activation, num_terms):
    def build(rng):
        terms = [Tensor(rng.standard_normal((6, 4)), requires_grad=True) for _ in range(num_terms)]
        bias = Tensor(rng.standard_normal(4), requires_grad=True)
        out = fused.add_bias_act(terms, bias, activation=activation)
        return out, terms + [bias]

    _assert_bitwise(_run_both(build))


def test_fused_add_bias_act_reshape_bitwise():
    # GAT's concat head path: (N, H, D) + bias then reshape to (N, H*D).
    def build(rng):
        t = Tensor(rng.standard_normal((5, 2, 3)), requires_grad=True)
        bias = Tensor(rng.standard_normal(6), requires_grad=True)
        out = fused.add_bias_act(
            [t], bias, activation="elu", reshape_to=(5, 6)
        )
        return out, [t, bias]

    _assert_bitwise(_run_both(build))


# ---------------------------------------------------------------------- #
# fused cross entropy
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("weight_total", [None, 24.0])
def test_fused_cross_entropy_bitwise(weight_total):
    def build(rng):
        logits = Tensor(rng.standard_normal((9, 4)) * 5.0, requires_grad=True)
        labels = rng.integers(0, 4, size=9)
        kwargs = {} if weight_total is None else {"weight_total": weight_total}
        return F.cross_entropy(logits, labels, **kwargs), [logits]

    _assert_bitwise(_run_both(build))


def test_fused_cross_entropy_extreme_logits():
    # The log-sum-exp shift must behave identically under both paths even
    # for logits large enough to overflow a naive exp.
    def build(rng):
        logits = Tensor(rng.standard_normal((4, 3)) * 300.0, requires_grad=True)
        labels = np.array([0, 2, 1, 2])
        return F.cross_entropy(logits, labels), [logits]

    _assert_bitwise(_run_both(build))


# ---------------------------------------------------------------------- #
# index_rows scatter-add backward (CSR segment-sum vs np.add.at)
# ---------------------------------------------------------------------- #
def test_index_rows_backward_bitwise():
    def build(rng):
        x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        idx = np.array([0, 3, 3, 5, 0, 0, 2])
        return x.index_rows(idx) @ Tensor(rng.standard_normal((4, 2)), requires_grad=True), [x]

    _assert_bitwise(_run_both(build))


# ---------------------------------------------------------------------- #
# whole model layers: forward + all parameter grads, fused vs composed
# ---------------------------------------------------------------------- #
def _block(rng, n_src=10, n_dst=4, n_edges=18):
    src = rng.integers(0, n_src, size=n_edges)
    dst = rng.integers(0, n_dst, size=n_edges)
    # Global ids: dsts are nodes [0, n_dst), extra srcs follow.
    return Block.from_global_edges(
        np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    )


def _layer_case(layer_cls, **kw):
    def build(rng):
        block = _block(rng)
        layer = layer_cls(**kw)
        x = Tensor(rng.standard_normal((block.num_src, kw["in_dim"])), requires_grad=True)
        out = layer.full_forward(block, x)
        return out, list(layer.parameters()) + [x]

    return build


@pytest.mark.parametrize("activation", [False, True])
def test_gcn_layer_bitwise(activation):
    _assert_bitwise(
        _run_both(_layer_case(GCNLayer, in_dim=5, out_dim=3, activation=activation))
    )


@pytest.mark.parametrize("activation", [False, True])
def test_sage_layer_bitwise(activation):
    _assert_bitwise(
        _run_both(_layer_case(SAGELayer, in_dim=5, out_dim=3, activation=activation))
    )


@pytest.mark.parametrize("concat", [False, True])
def test_gat_layer_bitwise(concat):
    def build(rng):
        block = _block(rng)
        layer = GATLayer(in_dim=5, head_dim=3, heads=2, concat=concat)
        x = Tensor(rng.standard_normal((block.num_src, 5)), requires_grad=True)
        out = layer.full_forward(block, x)
        return out, list(layer.parameters()) + [x]

    _assert_bitwise(_run_both(build))


def test_sage_combine_bitwise():
    # The distributed combine path (SNP/NFP): separate neigh/self terms.
    def build(rng):
        layer = SAGELayer(in_dim=5, out_dim=3, activation=True)
        neigh = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        self_t = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        out = layer.combine(neigh, self_t)
        return out, [neigh, self_t, layer.bias]

    _assert_bitwise(_run_both(build))
