"""Core autograd engine tests: op forwards, adjoints, tape mechanics."""

import numpy as np
import pytest

from repro.tensor import Tensor, concat, stack, no_grad
from repro.tensor.tensor import add_n


def numeric_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return g


def check_op(op, *shapes, rtol=1e-6, rng_seed=0):
    """Compare analytic vs numeric gradients of `op` over random inputs."""
    rng = np.random.default_rng(rng_seed)
    arrays = [rng.normal(size=s) for s in shapes]
    for which in range(len(arrays)):
        def scalar(x):
            args = [Tensor(a) for a in arrays]
            args[which] = Tensor(x)
            return op(*args).sum().item()

        args = [Tensor(a, requires_grad=(i == which)) for i, a in enumerate(arrays)]
        out = op(*args).sum()
        out.backward()
        analytic = args[which].grad
        numeric = numeric_grad(scalar, arrays[which])
        np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=1e-8)


class TestArithmeticGradients:
    def test_add(self):
        check_op(lambda a, b: a + b, (3, 4), (3, 4))

    def test_add_broadcast_row(self):
        check_op(lambda a, b: a + b, (3, 4), (4,))

    def test_add_broadcast_scalar_axis(self):
        check_op(lambda a, b: a + b, (3, 4), (3, 1))

    def test_sub(self):
        check_op(lambda a, b: a - b, (2, 5), (2, 5))

    def test_mul(self):
        check_op(lambda a, b: a * b, (3, 4), (3, 4))

    def test_mul_broadcast(self):
        check_op(lambda a, b: a * b, (3, 4, 2), (4, 1))

    def test_div(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 3))
        b = rng.uniform(1.0, 2.0, size=(3, 3))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta / tb).sum().backward()
        np.testing.assert_allclose(ta.grad, 1.0 / b)
        np.testing.assert_allclose(tb.grad, -a / b**2)

    def test_pow(self):
        check_op(lambda a: a**3, (4,))

    def test_neg(self):
        check_op(lambda a: -a, (3, 2))

    def test_matmul(self):
        check_op(lambda a, b: a @ b, (3, 4), (4, 5))

    def test_matmul_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            Tensor(np.ones(3)) @ Tensor(np.ones((3, 2)))


class TestShapeOps:
    def test_reshape_grad(self):
        check_op(lambda a: (a.reshape(6, 2) * 2.0), (3, 4))

    def test_transpose_grad(self):
        check_op(lambda a: a.T * 3.0, (3, 4))

    def test_index_rows_grad_with_duplicates(self):
        idx = np.array([0, 1, 1, 2])
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        x.index_rows(idx).sum().backward()
        np.testing.assert_allclose(x.grad, [[1, 1], [2, 2], [1, 1]])

    def test_concat_grad(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((4, 3)), requires_grad=True)
        (concat([a, b], axis=0) * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_allclose(b.grad, np.full((4, 3), 2.0))

    def test_stack_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        stack([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))
        np.testing.assert_allclose(b.grad, np.ones(3))


class TestReductions:
    def test_sum_all(self):
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        x.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((3, 3)))

    def test_sum_axis(self):
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        (x.sum(axis=0) * np.arange(4.0)).sum().backward()
        np.testing.assert_allclose(x.grad, np.tile(np.arange(4.0), (3, 1)))

    def test_sum_keepdims(self):
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        x.sum(axis=1, keepdims=True).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((3, 4)))

    def test_mean(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full(4, 0.25))

    def test_mean_axis(self):
        x = Tensor(np.ones((2, 4)), requires_grad=True)
        x.mean(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 4), 0.25))


class TestElementwise:
    def test_exp(self):
        check_op(lambda a: a.exp(), (5,))

    def test_log(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.5, 2.0, size=(4,))
        t = Tensor(x, requires_grad=True)
        t.log().sum().backward()
        np.testing.assert_allclose(t.grad, 1.0 / x)

    def test_maximum_scalar(self):
        x = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
        x.maximum_scalar(0.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 1.0])


class TestTapeMechanics:
    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [7.0])

    def test_diamond_graph(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        a = x * 2.0
        b = x * 5.0
        (a * b).backward(np.array([1.0]))
        # d/dx (2x * 5x) = 20x
        np.testing.assert_allclose(x.grad, [60.0])

    def test_backward_requires_scalar_without_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError, match="scalar"):
            (x * 2.0).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(2)).backward(np.ones(2))

    def test_gradient_shape_mismatch_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="shape"):
            (x * 1.0).backward(np.ones(4))

    def test_no_grad_suppresses_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_deep_chain_does_not_overflow(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 0.0
        y.backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [1.0])

    def test_add_n(self):
        xs = [Tensor(np.full(3, float(i)), requires_grad=True) for i in range(4)]
        out = add_n(xs)
        np.testing.assert_allclose(out.data, np.full(3, 6.0))
        out.sum().backward()
        for x in xs:
            np.testing.assert_allclose(x.grad, np.ones(3))

    def test_add_n_empty_raises(self):
        with pytest.raises(ValueError):
            add_n([])

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 2.0).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None
