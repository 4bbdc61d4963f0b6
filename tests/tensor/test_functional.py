"""Tests for activations, softmax, dropout, and losses."""

import numpy as np
import pytest

from repro.tensor import Tensor, functional as F
from tests.tensor.test_autograd import numeric_grad


class TestActivations:
    def test_relu_values(self):
        x = Tensor(np.array([-2.0, 0.0, 3.0]))
        np.testing.assert_allclose(F.relu(x).data, [0.0, 0.0, 3.0])

    def test_relu_grad(self):
        x = Tensor(np.array([-2.0, 0.5]), requires_grad=True)
        F.relu(x).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0])

    def test_leaky_relu_values(self):
        x = Tensor(np.array([-1.0, 2.0]))
        np.testing.assert_allclose(F.leaky_relu(x, 0.2).data, [-0.2, 2.0])

    def test_leaky_relu_grad(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        F.leaky_relu(x, 0.1).sum().backward()
        np.testing.assert_allclose(x.grad, [0.1, 1.0])

    def test_elu_values(self):
        x = Tensor(np.array([-1.0, 1.0]))
        out = F.elu(x).data
        np.testing.assert_allclose(out, [np.expm1(-1.0), 1.0])

    def test_elu_grad_numeric(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(7,))
        t = Tensor(x, requires_grad=True)
        F.elu(t).sum().backward()
        num = numeric_grad(lambda v: F.elu(Tensor(v)).sum().item(), x)
        np.testing.assert_allclose(t.grad, num, rtol=1e-6)


class TestSoftmax:
    def test_log_softmax_normalizes(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 6)))
        p = np.exp(F.log_softmax(x).data)
        np.testing.assert_allclose(p.sum(axis=1), np.ones(4))

    def test_softmax_shift_invariance(self):
        x = np.random.default_rng(0).normal(size=(3, 5))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_log_softmax_stable_at_large_values(self):
        x = Tensor(np.array([[1e4, 0.0]]))
        out = F.log_softmax(x).data
        assert np.all(np.isfinite(out))

    def test_log_softmax_grad_numeric(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 4))
        t = Tensor(x, requires_grad=True)
        (F.log_softmax(t) * Tensor(w)).sum().backward()
        num = numeric_grad(
            lambda v: (F.log_softmax(Tensor(v)) * Tensor(w)).sum().item(), x
        )
        np.testing.assert_allclose(t.grad, num, rtol=1e-5, atol=1e-8)


class TestCrossEntropy:
    def test_matches_manual_nll(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 3))
        labels = rng.integers(0, 3, size=6)
        loss = F.cross_entropy(Tensor(logits), labels).item()
        # Manual computation.
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -logp[np.arange(6), labels].mean()
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_weight_total_decomposition(self):
        """Per-device losses with weight_total sum to the global mean."""
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(10, 4))
        labels = rng.integers(0, 4, size=10)
        full = F.cross_entropy(Tensor(logits), labels).item()
        part_a = F.cross_entropy(Tensor(logits[:3]), labels[:3], weight_total=10).item()
        part_b = F.cross_entropy(Tensor(logits[3:]), labels[3:], weight_total=10).item()
        assert part_a + part_b == pytest.approx(full, rel=1e-12)

    def test_grad_numeric(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        t = Tensor(logits, requires_grad=True)
        F.cross_entropy(t, labels).backward()
        num = numeric_grad(
            lambda v: F.cross_entropy(Tensor(v), labels).item(), logits
        )
        np.testing.assert_allclose(t.grad, num, rtol=1e-5, atol=1e-8)

    def test_label_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.ones((3, 2))), np.array([0, 1]))


class TestBinaryCrossEntropy:
    def test_matches_manual(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=8)
        t = rng.integers(0, 2, size=8).astype(float)
        loss = F.binary_cross_entropy_with_logits(Tensor(x), t).item()
        p = 1.0 / (1.0 + np.exp(-x))
        expected = -(t * np.log(p) + (1 - t) * np.log(1 - p)).mean()
        assert loss == pytest.approx(expected, rel=1e-10)

    def test_stable_at_extreme_logits(self):
        x = Tensor(np.array([500.0, -500.0]))
        loss = F.binary_cross_entropy_with_logits(x, np.array([1.0, 0.0]))
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_grad_numeric(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=6)
        t = rng.integers(0, 2, size=6).astype(float)
        tx = Tensor(x, requires_grad=True)
        F.binary_cross_entropy_with_logits(tx, t).backward()
        num = numeric_grad(
            lambda v: F.binary_cross_entropy_with_logits(Tensor(v), t).item(), x
        )
        np.testing.assert_allclose(tx.grad, num, rtol=1e-6, atol=1e-9)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.binary_cross_entropy_with_logits(
                Tensor(np.ones(3)), np.ones(4)
            )
