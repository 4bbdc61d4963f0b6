"""Equivalence tests pinning the fast segment kernels to the scatter refs.

The hot-path pass replaced ``np.add.at`` / ``np.maximum.at`` with faster
kernels (a selection-CSR accumulation, column-wise 1-D max loops, reduceat
on sorted runs, a fused exp-shift node).  All of them are advertised as **bit-identical** to the original
implementations — these tests hold that line, for forward values AND
gradients, across the shape-selected paths (1-D, under / over
``_ADD_AT_MAX_SIZE`` elements), the operand shapes recorded from the
training workloads, sorted and unsorted segment ids, empty segments, the
raw-array and :class:`SegmentIndex` call forms, and the import-time
fallback to scipy's public CSR product.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.tensor import (
    Tensor,
    segment_mean,
    segment_softmax,
    segment_sum,
    sparse,
)
from repro.tensor.sparse import (
    SegmentIndex,
    _segment_max_array,
    _segment_sum_array,
    _stable_order,
)

# Row / column counts the cases below were written around (dispatch
# thresholds of an earlier kernel); kept so the pinned cases stay the same.
_SMALL_E = 1024
_COLWISE_MAX_COLS = 8


# --------------------------------------------------------------------- #
# reference implementations: the pre-optimization scatter kernels, inlined
# --------------------------------------------------------------------- #
def ref_segment_sum_array(data, segment_ids, num_segments):
    out = np.zeros((num_segments,) + data.shape[1:], dtype=data.dtype)
    np.add.at(out, segment_ids, data)
    return out


def ref_segment_max_array(values, segment_ids, num_segments):
    out = np.full((num_segments,) + values.shape[1:], -np.inf, dtype=np.float64)
    np.maximum.at(out, segment_ids, values)
    return out


def ref_segment_sum(values, segment_ids, num_segments):
    out = ref_segment_sum_array(values.data, segment_ids, num_segments)

    def backward_fn(g):
        if values.requires_grad:
            values._accumulate(g[segment_ids])

    return Tensor._make(out, (values,), backward_fn, "segment_sum_ref")


def ref_segment_softmax(scores, segment_ids, num_segments):
    """The original op-by-op chain: sub, exp, add.at sum, gather, div."""
    maxes = ref_segment_max_array(scores.data, segment_ids, num_segments)
    shift = Tensor(maxes[segment_ids])
    expd = (scores - shift).exp()
    denom = ref_segment_sum(expd, segment_ids, num_segments)
    return expd / denom.index_rows(segment_ids)


def make_case(rng, n_edges, num_segments, trailing, sorted_ids, empty_segments):
    """Random (data, segment_ids) with controllable shape and sortedness."""
    hi = max(1, num_segments // 2) if empty_segments else num_segments
    seg = rng.integers(0, hi, size=n_edges).astype(np.int64)
    if sorted_ids:
        seg.sort()
    data = rng.normal(size=(n_edges,) + trailing)
    return data, seg


# 1-D operands, operands under the element cutoff, and few- / many-column
# operands over it, unsorted (stable sort) and presorted.
PATH_CASES = [
    pytest.param(5, 7, (), False, True, id="tiny-1d"),
    pytest.param(0, 4, (3,), False, False, id="no-edges"),
    pytest.param(1, 3, (2,), False, True, id="single-row"),
    pytest.param(200, 16, (), False, False, id="mid-1d-fastpath"),
    pytest.param(_SMALL_E + 500, 64, (4,), False, True, id="colwise-unsorted"),
    pytest.param(_SMALL_E + 500, 64, (_COLWISE_MAX_COLS + 8,), False, True,
                 id="csr-sort-unsorted"),
    pytest.param(_SMALL_E + 500, 64, (_COLWISE_MAX_COLS + 8,), True, False,
                 id="csr-presorted"),
    pytest.param(_SMALL_E + 200, 32, (2, 3), False, True, id="3d-colwise"),
    pytest.param(_SMALL_E + 200, 32, (3, 4), False, True, id="3d-csr"),
]


@pytest.mark.parametrize(
    "n_edges,num_segments,trailing,sorted_ids,empty_segments", PATH_CASES
)
def test_segment_sum_bitwise_forward_and_grad(
    n_edges, num_segments, trailing, sorted_ids, empty_segments
):
    rng = np.random.default_rng(n_edges * 31 + num_segments)
    data, seg = make_case(rng, n_edges, num_segments, trailing, sorted_ids,
                          empty_segments)
    g = rng.normal(size=(num_segments,) + trailing)

    x_new = Tensor(data.copy(), requires_grad=True)
    out_new = segment_sum(x_new, seg, num_segments)
    out_new.backward(g)

    x_ref = Tensor(data.copy(), requires_grad=True)
    out_ref = ref_segment_sum(x_ref, seg, num_segments)
    out_ref.backward(g)

    assert np.array_equal(out_new.data, out_ref.data)
    assert np.array_equal(x_new.grad, x_ref.grad)


@pytest.mark.parametrize(
    "n_edges,num_segments,trailing,sorted_ids,empty_segments", PATH_CASES
)
def test_segment_max_bitwise(
    n_edges, num_segments, trailing, sorted_ids, empty_segments
):
    rng = np.random.default_rng(n_edges * 17 + num_segments)
    data, seg = make_case(rng, n_edges, num_segments, trailing, sorted_ids,
                          empty_segments)
    out_new = _segment_max_array(data, SegmentIndex(seg, num_segments))
    out_ref = ref_segment_max_array(data, seg, num_segments)
    assert np.array_equal(out_new, out_ref)  # -inf empty rows compare equal


@pytest.mark.parametrize(
    "n_edges,num_segments,trailing,sorted_ids,empty_segments",
    [c for c in PATH_CASES if c.values[0] > 0],  # softmax of 0 edges is trivial
)
def test_segment_softmax_bitwise_forward_and_grad(
    n_edges, num_segments, trailing, sorted_ids, empty_segments
):
    rng = np.random.default_rng(n_edges * 13 + num_segments)
    data, seg = make_case(rng, n_edges, num_segments, trailing, sorted_ids,
                          empty_segments)
    data = data * 4.0  # spread logits so the max shift matters
    g = rng.normal(size=data.shape)

    x_new = Tensor(data.copy(), requires_grad=True)
    out_new = segment_softmax(x_new, seg, num_segments)
    out_new.backward(g)

    x_ref = Tensor(data.copy(), requires_grad=True)
    out_ref = ref_segment_softmax(x_ref, seg, num_segments)
    out_ref.backward(g)

    assert np.array_equal(out_new.data, out_ref.data)
    assert np.array_equal(x_new.grad, x_ref.grad)


@given(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_segment_kernels_bitwise_property(n_edges, n_seg, d, sorted_ids, seed):
    """Hypothesis sweep over ragged segment layouts (incl. empty/1-D)."""
    rng = np.random.default_rng(seed)
    trailing = () if d == 0 else (d,)
    data, seg = make_case(rng, n_edges, n_seg, trailing, sorted_ids, True)

    assert np.array_equal(
        _segment_max_array(data, SegmentIndex(seg, n_seg)),
        ref_segment_max_array(data, seg, n_seg),
    )

    g = rng.normal(size=(n_seg,) + trailing)
    x_new = Tensor(data.copy(), requires_grad=True)
    segment_sum(x_new, seg, n_seg).backward(g)
    x_ref = Tensor(data.copy(), requires_grad=True)
    ref_segment_sum(x_ref, seg, n_seg).backward(g)
    assert np.array_equal(x_new.grad, x_ref.grad)

    if n_edges:
        ge = rng.normal(size=data.shape)
        s_new = Tensor(data.copy(), requires_grad=True)
        out_new = segment_softmax(s_new, seg, n_seg)
        out_new.backward(ge)
        s_ref = Tensor(data.copy(), requires_grad=True)
        out_ref = ref_segment_softmax(s_ref, seg, n_seg)
        out_ref.backward(ge)
        assert np.array_equal(out_new.data, out_ref.data)
        assert np.array_equal(s_new.grad, s_ref.grad)


@given(
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_stable_order_matches_stable_argsort(n_edges, n_seg, seed):
    rng = np.random.default_rng(seed)
    seg = rng.integers(0, n_seg, size=n_edges).astype(np.int64)
    assert np.array_equal(
        _stable_order(seg, n_seg), np.argsort(seg, kind="stable")
    )


def test_selection_csr_equals_sequential_add_at_not_reduceat():
    """The kernel must reproduce *sequential* accumulation order.

    ``np.add.reduceat`` reduces pairwise and is allowed to differ in the
    last float bits; the selection-CSR product is not.  This fixes the
    accumulation-order contract the engine equivalence tests rely on.
    """
    rng = np.random.default_rng(9)
    E, S, d = _SMALL_E + 300, 40, _COLWISE_MAX_COLS + 4
    data = rng.normal(size=(E, d)) * 1e3 + rng.normal(size=(E, d))
    seg = np.sort(rng.integers(0, S, size=E)).astype(np.int64)
    out = segment_sum(Tensor(data), seg, S).data
    assert np.array_equal(out, ref_segment_sum_array(data, seg, S))
    # sanity: scipy CSR row-sum really is a sequential left-to-right sum
    indptr = np.zeros(S + 1, dtype=np.int64)
    np.cumsum(np.bincount(seg, minlength=S), out=indptr[1:])
    sel = sp.csr_matrix(
        (np.ones(E), np.arange(E, dtype=np.int64), indptr), shape=(S, E)
    )
    assert np.array_equal(sel @ data, out)


# --------------------------------------------------------------------- #
# the shapes the workloads run (recorded from benchmarks/e2e), both call
# forms, both entries into the CSR routine
# --------------------------------------------------------------------- #
WORKLOAD_ROWS = (1, 7, 31, 32, 33, 250, 400, 900, 1023, 1024, 1500)
WORKLOAD_TRAILING = ((16,), (32,), (64,), (128,), (4, 8))


@pytest.mark.parametrize("sorted_ids", [True, False], ids=["sorted", "unsorted"])
@pytest.mark.parametrize("n_rows", WORKLOAD_ROWS)
def test_workload_shapes_bitwise_forward_and_grads(csr_entry, n_rows, sorted_ids):
    for trailing in WORKLOAD_TRAILING:
        rng = np.random.default_rng(n_rows * 7 + len(trailing) + trailing[0])
        num_segments = max(2, n_rows // 3)
        data, seg = make_case(rng, n_rows, num_segments, trailing, sorted_ids, True)
        index = SegmentIndex(seg, num_segments)
        g = rng.normal(size=(num_segments,) + trailing)
        expected = ref_segment_sum_array(data, seg, num_segments)

        # segment_sum: raw ids and the index give the reference, bit for bit
        grads = []
        for ids, n in ((seg, num_segments), (index, None)):
            x = Tensor(data.copy(), requires_grad=True)
            out = segment_sum(x, ids, n)
            out.backward(g)
            assert np.array_equal(out.data, expected), (trailing, type(ids))
            grads.append(x.grad)
        assert np.array_equal(grads[0], g[seg])
        assert np.array_equal(grads[1], g[seg])

        # index_rows: the gather's adjoint is the same scatter-add
        table = rng.normal(size=(num_segments,) + trailing)
        ge = rng.normal(size=data.shape)
        expected_grad = ref_segment_sum_array(ge, seg, num_segments)
        for ids in (seg, index):
            t = Tensor(table.copy(), requires_grad=True)
            rows = t.index_rows(ids)
            rows.backward(ge)
            assert np.array_equal(rows.data, table[seg])
            assert np.array_equal(t.grad, expected_grad), (trailing, type(ids))


@pytest.mark.parametrize("n_rows,trailing", [(12, (8,)), (400, (32,)), (900, (4,))])
def test_mean_and_softmax_accept_an_index(csr_entry, n_rows, trailing):
    rng = np.random.default_rng(n_rows)
    num_segments = n_rows // 3
    data, seg = make_case(rng, n_rows, num_segments, trailing, False, True)
    index = SegmentIndex(seg, num_segments)
    g = rng.normal(size=(num_segments,) + trailing)
    ge = rng.normal(size=data.shape)
    for fn, grad in ((segment_mean, g), (segment_softmax, ge)):
        a = Tensor(data.copy(), requires_grad=True)
        out_a = fn(a, seg, num_segments)
        out_a.backward(grad)
        b = Tensor(data.copy(), requires_grad=True)
        out_b = fn(b, index)
        out_b.backward(grad)
        assert np.array_equal(out_a.data, out_b.data)
        assert np.array_equal(a.grad, b.grad)
    # the mean divides the reference sum by the reference counts
    counts = np.maximum(np.bincount(seg, minlength=num_segments), 1.0)
    inv = (1.0 / counts).reshape((num_segments,) + (1,) * len(trailing))
    assert np.array_equal(
        segment_mean(Tensor(data), index).data,
        ref_segment_sum_array(data, seg, num_segments) * inv,
    )
    assert np.array_equal(
        segment_softmax(Tensor(data), index).data,
        ref_segment_softmax(Tensor(data), seg, num_segments).data,
    )


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
def test_non_contiguous_and_non_float64_operands(csr_entry, dtype):
    rng = np.random.default_rng(5)
    n_rows, num_segments = 300, 40
    seg = rng.integers(0, num_segments, size=n_rows)
    index = SegmentIndex(seg, num_segments)
    wide = (rng.normal(size=(2 * n_rows, 64)) * 100).astype(dtype)
    for data in (
        wide[:n_rows],                      # contiguous
        wide[::2],                          # strided rows
        wide[:n_rows, ::2],                 # strided columns
        np.asfortranarray(wide[:n_rows]),   # column-major
    ):
        out = _segment_sum_array(data, index)
        assert out.dtype == dtype
        assert np.array_equal(out, ref_segment_sum_array(data, seg, num_segments))
    # strided ids, as a view of a larger array
    ids2 = np.repeat(seg, 2)[::2]
    assert not ids2.flags.c_contiguous
    assert np.array_equal(
        _segment_sum_array(wide[:n_rows], SegmentIndex(ids2, num_segments)),
        ref_segment_sum_array(wide[:n_rows], seg, num_segments),
    )


@pytest.mark.parametrize("n_rows,trailing", [(4, ()), (4, (2,)), (400, (32,))])
@pytest.mark.parametrize("bad", [-1, 50])
def test_out_of_range_ids_still_raise(n_rows, trailing, bad):
    seg = np.zeros(n_rows, dtype=np.int64)
    seg[-1] = bad
    values = Tensor(np.ones((n_rows,) + trailing))
    message = r"segment ids must lie in \[0, 50\); got range \[%d, %d\]" % (
        min(bad, 0), max(bad, 0)
    )
    for fn in (segment_sum, segment_mean, segment_softmax):
        with pytest.raises(IndexError, match=message):
            fn(values, seg, 50)
    with pytest.raises(IndexError, match=message):
        SegmentIndex(seg, 50)


def test_index_must_match_its_operands():
    index = SegmentIndex(np.array([0, 2, 2, 1]), 3)
    with pytest.raises(ValueError, match="caller expects 4"):
        segment_sum(Tensor(np.ones((4, 2))), index, 4)
    with pytest.raises(ValueError, match="data has 5 rows"):
        segment_sum(Tensor(np.ones((5, 2))), index)
    with pytest.raises(ValueError, match="covers 3 rows, tensor has 6"):
        Tensor(np.ones((6, 2))).index_rows(index)
    with pytest.raises(TypeError, match="num_segments is required"):
        segment_sum(Tensor(np.ones((4, 2))), np.array([0, 2, 2, 1]))
    with pytest.raises(ValueError, match="must be 1-D"):
        SegmentIndex(np.zeros((2, 2), dtype=np.int64), 3)


def test_index_builds_each_structure_once(monkeypatch):
    calls = {"sorted": 0, "order": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(
        sparse, "_is_nondecreasing", counting("sorted", sparse._is_nondecreasing)
    )
    monkeypatch.setattr(
        sparse, "_stable_order", counting("order", sparse._stable_order)
    )
    rng = np.random.default_rng(11)
    seg = rng.integers(0, 30, size=200)
    index = SegmentIndex(seg, 30)
    assert (index._sorted, index._counts, index._indptr, index._cols) == (None,) * 4
    data = rng.normal(size=(200, 16))
    for _ in range(3):  # forward, and the adjoint of a gather, repeatedly
        segment_mean(Tensor(data), index)
        t = Tensor(rng.normal(size=(30, 16)), requires_grad=True)
        t.index_rows(index).backward(data)
    assert calls == {"sorted": 1, "order": 1}
    assert index.counts is index.counts and index.indptr is index.indptr
    assert index.cols is index.cols
    assert np.array_equal(index.cols, np.argsort(seg, kind="stable"))
    assert np.array_equal(index.indptr[1:], np.cumsum(np.bincount(seg, minlength=30)))

    # sorted ids never pay for a sort; 1-D and small operands build nothing
    calls.update(sorted=0, order=0)
    ordered = SegmentIndex(np.sort(seg), 30)
    segment_sum(Tensor(data), ordered)
    assert calls == {"sorted": 1, "order": 0}
    assert np.array_equal(ordered.cols, np.arange(200))
    assert ordered._cols is None  # an arange is remade, not held
    small = SegmentIndex(seg[:8], 30)
    segment_sum(Tensor(data[:8]), small)
    segment_sum(Tensor(data[:, 0]), index)
    assert (small._sorted, small._indptr, small._cols) == (None, None, None)
