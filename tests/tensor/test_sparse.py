"""Tests for sparse/segment kernels (segment ops, edge softmax, gathers)."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    gather_segment_sum,
    segment_mean,
    segment_softmax,
    segment_sum,
)
from repro.tensor.sparse import SegmentIndex, _segment_max_array, segment_count
from tests.tensor.test_autograd import numeric_grad


class TestSegmentSum:
    def test_values(self):
        v = Tensor(np.arange(8.0).reshape(4, 2))
        out = segment_sum(v, np.array([0, 0, 2, 2]), 3)
        np.testing.assert_allclose(out.data, [[2, 4], [0, 0], [10, 12]])

    def test_empty_segment_is_zero(self):
        v = Tensor(np.ones((2, 3)))
        out = segment_sum(v, np.array([0, 0]), 4)
        np.testing.assert_allclose(out.data[1:], 0.0)

    def test_grad(self):
        v = Tensor(np.ones((4, 2)), requires_grad=True)
        w = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        (segment_sum(v, np.array([0, 2, 2, 1]), 3) * Tensor(w)).sum().backward()
        np.testing.assert_allclose(v.grad, [w[0], w[2], w[2], w[1]])

    def test_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            segment_sum(Tensor(np.ones((2, 1))), np.array([0, 5]), 3)

    def test_1d_values(self):
        out = segment_sum(Tensor(np.array([1.0, 2.0, 3.0])), np.array([1, 1, 0]), 2)
        np.testing.assert_allclose(out.data, [3.0, 3.0])


class TestSegmentMean:
    def test_values(self):
        v = Tensor(np.array([[2.0], [4.0], [9.0]]))
        out = segment_mean(v, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[3.0], [9.0]])

    def test_empty_segment_zero_not_nan(self):
        out = segment_mean(Tensor(np.ones((1, 2))), np.array([0]), 3)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data[1:], 0.0)

    def test_grad_numeric(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 2))
        seg = np.array([0, 1, 1, 1, 2])
        t = Tensor(x, requires_grad=True)
        (segment_mean(t, seg, 3) ** 2).sum().backward()
        num = numeric_grad(
            lambda v: (segment_mean(Tensor(v), seg, 3) ** 2).sum().item(), x
        )
        np.testing.assert_allclose(t.grad, num, rtol=1e-6)


def segment_max(values, segment_ids, num_segments):
    """The per-segment max behind ``segment_softmax``'s detached shift."""
    return _segment_max_array(values, SegmentIndex(segment_ids, num_segments))


class TestSegmentMax:
    def test_values(self):
        v = np.array([1.0, 5.0, 2.0, -1.0])
        out = segment_max(v, np.array([0, 0, 1, 1]), 3)
        np.testing.assert_allclose(out[:2], [5.0, 2.0])
        assert out[2] == -np.inf

    def test_2d(self):
        v = np.array([[1.0, 9.0], [5.0, 0.0]])
        out = segment_max(v, np.array([0, 0]), 1)
        np.testing.assert_allclose(out, [[5.0, 9.0]])


class TestSegmentCount:
    def test_counts(self):
        np.testing.assert_allclose(
            segment_count(np.array([0, 0, 2]), 4), [2, 0, 1, 0]
        )


class TestSegmentSoftmax:
    def test_sums_to_one_per_segment(self):
        rng = np.random.default_rng(0)
        scores = Tensor(rng.normal(size=10))
        seg = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, 2])
        alpha = segment_softmax(scores, seg, 3)
        sums = np.bincount(seg, weights=alpha.data)
        np.testing.assert_allclose(sums, np.ones(3), atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=6)
        seg = np.array([0, 0, 1, 1, 1, 1])
        a = segment_softmax(Tensor(s), seg, 2).data
        b = segment_softmax(Tensor(s + 50.0), seg, 2).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_multihead_2d(self):
        rng = np.random.default_rng(2)
        s = Tensor(rng.normal(size=(5, 3)))
        seg = np.array([0, 0, 1, 1, 1])
        alpha = segment_softmax(s, seg, 2)
        for h in range(3):
            sums = np.bincount(seg, weights=alpha.data[:, h])
            np.testing.assert_allclose(sums, np.ones(2), atol=1e-12)

    def test_grad_numeric(self):
        rng = np.random.default_rng(3)
        s = rng.normal(size=6)
        w = rng.normal(size=6)
        seg = np.array([0, 0, 0, 1, 1, 1])
        t = Tensor(s, requires_grad=True)
        (segment_softmax(t, seg, 2) * Tensor(w)).sum().backward()
        num = numeric_grad(
            lambda v: (segment_softmax(Tensor(v), seg, 2) * Tensor(w)).sum().item(),
            s,
        )
        np.testing.assert_allclose(t.grad, num, rtol=1e-5, atol=1e-8)


class TestGatherSegmentSum:
    """The fused gather→sum is the dense product ``A @ x`` of the edges'
    adjacency (one entry per edge, repeated edges counted twice)."""

    @staticmethod
    def adjacency(dst, src, shape):
        adj = np.zeros(shape)
        np.add.at(adj, (dst, src), 1.0)
        return adj

    def test_matches_dense(self):
        rng = np.random.default_rng(0)
        src, dst = rng.integers(0, 6, 9), rng.integers(0, 4, 9)
        x = rng.normal(size=(6, 3))
        out = gather_segment_sum(Tensor(x), src, dst, 4)
        np.testing.assert_allclose(out.data, self.adjacency(dst, src, (4, 6)) @ x)

    def test_grad_is_transpose_product(self):
        rng = np.random.default_rng(1)
        src, dst = np.array([1, 0, 2, 2]), np.array([0, 1, 1, 2])
        x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        g = rng.normal(size=(3, 2))
        gather_segment_sum(x, src, dst, 3).backward(g)
        np.testing.assert_allclose(x.grad, self.adjacency(dst, src, (3, 3)).T @ g)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="2 source ids"):
            gather_segment_sum(Tensor(np.ones((4, 2))), [0, 1], [0], 2)
        with pytest.raises(IndexError):
            gather_segment_sum(Tensor(np.ones((4, 2))), [0, 4], [0, 1], 2)

    def test_duplicate_edges_accumulate(self):
        x = Tensor(np.array([[1.0], [10.0]]))
        out = gather_segment_sum(x, np.array([1, 1]), np.array([0, 0]), 2)
        np.testing.assert_array_equal(out.data, [[20.0], [0.0]])

