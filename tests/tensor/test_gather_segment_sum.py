"""The fused gather→aggregate node, bit for bit against its composed chain.

``sparse.gather_segment_sum(x, src, dst)`` replaces
``segment_sum(x.index_rows(src), dst)`` in every mean/sum aggregation
(DESIGN.md §5.9).  The reference is the chain in
``tests/composed_reference.py`` with the ``np.add.at`` gather adjoint, so
each case below compares against sequential scatter-adds.  The grid covers
E on both sides of ``_ADD_AT_MAX_SIZE`` (judged on E × d), sorted
destinations (sampled blocks), GCN's appended self-edges and fully
unsorted ones, repeated sources, empty segments and zero edges; forward,
``x.grad``, and ``x.grad`` when ``x`` has further consumers, all through
both CSR entries and both call forms.  No tolerances anywhere.
"""

import numpy as np
import pytest

from repro.engine.nfp import union_columns
from repro.tensor import sparse
from repro.tensor.sparse import SegmentIndex
from repro.tensor.tensor import Tensor
from tests import composed_reference as reference

D = 16
#: E x 16 crosses the element cutoff between 63 and 64 edges
assert 63 * D < sparse._ADD_AT_MAX_SIZE <= 64 * D
EDGES = (0, 1, 12, 63, 64, 65, 400, 1500)


def make_edges(rng, n_edges, num_src, num_dst, layout):
    """``(src, dst)`` for ``layout``: ``sorted`` (a sampled block),
    ``self_edges`` (sorted edges plus one self-edge per destination, GCN)
    or ``random``.  Half the destinations receive nothing from the edges."""
    src = rng.integers(0, num_src, n_edges)  # repeats: num_src < n_edges
    dst = rng.integers(0, max(1, num_dst // 2), n_edges)
    if layout == "sorted":
        dst.sort()
    elif layout == "self_edges":
        dst.sort()
        src = np.concatenate([src, rng.permutation(num_src)[:num_dst]])
        dst = np.concatenate([dst, np.arange(num_dst)])
    return src.astype(np.int64), dst.astype(np.int64)


def run(composed, build):
    """``build()`` under the composed reference or the production path;
    returns the output and every gradient, copied."""
    with pytest.MonkeyPatch.context() as mp:
        if composed:
            reference.install_composed_kernels(mp)
        out, leaves, g = build()
        out.backward(g)
    return np.array(out.data), [np.array(t.grad) for t in leaves]


def assert_bitwise(build):
    out_ref, grads_ref = run(True, build)
    out, grads = run(False, build)
    assert out.dtype == out_ref.dtype and np.array_equal(out, out_ref)
    for a, b in zip(grads, grads_ref):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("layout", ["sorted", "self_edges", "random"])
@pytest.mark.parametrize("n_edges", EDGES)
def test_grid_bitwise_forward_and_grads(csr_entry, n_edges, layout):
    rng = np.random.default_rng(n_edges * 3 + len(layout))
    num_src, num_dst = 40, 24
    src, dst = make_edges(rng, n_edges, num_src, num_dst, layout)
    x_data = rng.normal(size=(num_src, D))
    g = rng.normal(size=(num_dst, D))
    self_rows = rng.integers(0, num_src, num_dst)

    for src_ids in (src, SegmentIndex(src, num_src)):
        for dst_ids in (SegmentIndex(dst, num_dst), dst):
            n = None if isinstance(dst_ids, SegmentIndex) else num_dst

            def single():
                x = Tensor(x_data.copy(), requires_grad=True)
                return sparse.gather_segment_sum(x, src_ids, dst_ids, n), [x], g

            def two_consumers():
                # SAGE's shape: the aggregation and the self-row gather
                # both read x; their adjoints meet in x.grad.
                x = Tensor(x_data.copy(), requires_grad=True)
                agg = sparse.gather_segment_sum(x, src_ids, dst_ids, n)
                return agg + x.index_rows(self_rows), [x], g

            def mean_of_three_consumers():
                # Three contributions to x.grad: their order is observable.
                x = Tensor(x_data.copy(), requires_grad=True)
                a = sparse.gather_segment_mean(x, src_ids, dst_ids, n)
                b = sparse.gather_segment_sum(x, src_ids, dst_ids, n)
                return (a + b) * 0.5 + x.index_rows(self_rows), [x], g

            for build in (single, two_consumers, mean_of_three_consumers):
                assert_bitwise(build)


@pytest.mark.parametrize("trailing", [(), (3, 8)], ids=["1-d", "3-d"])
@pytest.mark.parametrize("n_edges", [12, 400])
def test_other_ranks_bitwise(n_edges, trailing):
    rng = np.random.default_rng(n_edges)
    src, dst = make_edges(rng, n_edges, 30, 20, "self_edges")
    x_data = rng.normal(size=(30,) + trailing)
    g = rng.normal(size=(20,) + trailing)

    def build():
        x = Tensor(x_data.copy(), requires_grad=True)
        return sparse.gather_segment_sum(x, src, dst, 20), [x], g

    assert_bitwise(build)


@pytest.mark.parametrize("n_edges", [12, 400])
def test_one_tape_node_reads_x_directly(n_edges):
    rng = np.random.default_rng(1)
    src, dst = make_edges(rng, n_edges, 40, 24, "sorted")
    x = Tensor(rng.normal(size=(40, D)), requires_grad=True)
    out = sparse.gather_segment_sum(x, src, dst, 24)
    assert out._op == "gather_segment_sum"
    assert len(out._parents) == 1 and out._parents[0] is x
    mean = sparse.gather_segment_mean(x, src, dst, 24)  # sum, then * 1/count
    assert mean._op == "mul" and mean._parents[0]._parents[0] is x


@pytest.mark.parametrize(
    "num_src,n_edges,csr_calls",
    # the E x d messages decide, not x: 4 x 16 rows read by 100 edges
    # take the CSR product both ways, 400 x 16 rows read by 10 do not
    [(4, 100, 2), (400, 10, 0), (4, 10, 0), (400, 100, 2)],
)
def test_path_is_chosen_on_the_messages(monkeypatch, num_src, n_edges, csr_calls):
    calls = []
    rowsum = sparse._rowsum_csr
    monkeypatch.setattr(
        sparse, "_rowsum_csr", lambda *a: calls.append(a) or rowsum(*a)
    )
    rng = np.random.default_rng(num_src + n_edges)
    src, dst = make_edges(rng, n_edges, num_src, 8, "random")
    x = Tensor(rng.normal(size=(num_src, D)), requires_grad=True)
    sparse.gather_segment_sum(x, src, dst, 8).backward(np.ones((8, D)))
    assert len(calls) == csr_calls


@pytest.mark.parametrize("n_edges", [12, 400])
def test_nfp_union_columns_equal_two_gathers(csr_entry, n_edges):
    """NFP gathers each owner's block rows out of the union projection and
    then the edges' sources; the fused node reads the union through the
    composite columns ``union_rows[edge_src]`` instead.  Every holder's
    ``z_union`` feeds one node per owner, so the owners' adjoints all meet
    in ``z_union.grad``."""
    rng = np.random.default_rng(n_edges + 7)
    num_union, owners = 90, 3
    routes = []
    for _ in range(owners):
        union_rows = rng.permutation(num_union)[:40]  # injective
        src, dst = make_edges(rng, n_edges, 40, 24, "sorted")
        routes.append((union_rows, src, dst))
    z_data = rng.normal(size=(num_union, D))
    g = rng.normal(size=(24, D))

    def chained():
        z = Tensor(z_data.copy(), requires_grad=True)
        outs = [
            sparse.segment_mean(
                z.index_rows(rows).index_rows(src), SegmentIndex(dst, 24)
            )
            for rows, src, dst in routes
        ]
        return outs[0] + outs[1] + outs[2], [z], g

    def fused():
        z = Tensor(z_data.copy(), requires_grad=True)
        outs = [
            sparse.gather_segment_mean(
                z, union_columns(rows, src, num_union), SegmentIndex(dst, 24)
            )
            for rows, src, dst in routes
        ]
        return outs[0] + outs[1] + outs[2], [z], g

    out_ref, (grad_ref,) = run(True, chained)
    out, (grad,) = run(False, fused)
    assert np.array_equal(out, out_ref)
    assert np.array_equal(grad, grad_ref)


def test_operands_must_match():
    x = Tensor(np.ones((5, 2)))
    with pytest.raises(ValueError, match="3 source ids, destination index has 2"):
        sparse.gather_segment_sum(x, np.array([0, 1, 2]), np.array([0, 1]), 2)
    with pytest.raises(ValueError, match="covers 4 rows, tensor has 5"):
        sparse.gather_segment_sum(
            x, SegmentIndex(np.array([0, 1]), 4), np.array([0, 1]), 2
        )
    # the small path's gather checks the ids, the CSR path validates them
    # (a negative id passes a gather, as in ``index_rows``, but no adjoint)
    with pytest.raises(IndexError, match="out of bounds"):
        sparse.gather_segment_sum(x, np.array([0, 5]), np.array([0, 1]), 2)
    wrapped = Tensor(np.ones((5, 2)), requires_grad=True)
    out = sparse.gather_segment_sum(wrapped, np.array([0, -1]), np.array([0, 1]), 2)
    with pytest.raises(IndexError, match=r"must lie in \[0, 5\)"):
        out.backward(np.ones((2, 2)))
    wide = Tensor(np.ones((5, 1024)))
    with pytest.raises(IndexError, match=r"must lie in \[0, 5\)"):
        sparse.gather_segment_sum(wide, np.array([0, -1]), np.array([0, 1]), 2)
    with pytest.raises(TypeError, match="num_segments is required"):
        sparse.gather_segment_sum(x, np.array([0, 1]), np.array([0, 1]))
