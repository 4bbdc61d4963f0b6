"""Tests for the Adam optimizer."""

import numpy as np
import pytest

from repro.tensor import Tensor
from repro.tensor.module import Parameter
from repro.tensor.optim import Adam


def quadratic_step(opt, p):
    """One step on f(p) = 0.5 * ||p||^2 (gradient = p)."""
    p.grad = p.data.copy()
    opt.step()


class TestAdam:
    def test_first_step_size_is_lr(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.01)
        quadratic_step(opt, p)
        # Bias correction makes the first step ~= lr * sign(grad).
        np.testing.assert_allclose(p.data, [1.0 - 0.01], rtol=1e-6)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([4.0, -4.0]))
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            quadratic_step(opt, p)
        assert np.abs(p.data).max() < 1e-3

    def test_state_persists_across_steps(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.01)
        quadratic_step(opt, p)
        quadratic_step(opt, p)
        assert opt._t == 2

    def test_rejects_bad_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.ones(1))], betas=(1.0, 0.999))

    def test_skips_none_grad(self):
        p = Parameter(np.array([1.0]))
        Adam([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])


class TestOptimizerBase:
    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_nonpositive_lr_raises(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.ones(1))], lr=0.0)

    def test_zero_grad(self):
        p = Parameter(np.ones(2))
        p.grad = np.ones(2)
        opt = Adam([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None
