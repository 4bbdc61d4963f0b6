"""Tests for Module / Parameter containers and Linear."""

import numpy as np
import pytest

from repro.tensor import Linear, Module, ModuleList, Parameter, Tensor


class TwoLayer(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 8, rng=np.random.default_rng(0))
        self.fc2 = Linear(8, 2, rng=np.random.default_rng(1))

    def forward(self, x):
        return self.fc2(self.fc1(x))


class TestModule:
    def test_named_parameters_order_and_names(self):
        m = TwoLayer()
        names = [n for n, _ in m.named_parameters()]
        assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]

    def test_parameters_require_grad(self):
        for p in TwoLayer().parameters():
            assert isinstance(p, Parameter) and p.requires_grad

    def test_num_parameters(self):
        m = TwoLayer()
        assert sum(p.size for p in m.parameters()) == 4 * 8 + 8 + 8 * 2 + 2

    def test_zero_grad(self):
        m = TwoLayer()
        out = m(Tensor(np.ones((3, 4))))
        out.sum().backward()
        assert all(p.grad is not None for p in m.parameters())
        m.zero_grad()
        assert all(p.grad is None for p in m.parameters())

    def test_train_eval_propagates(self):
        m = TwoLayer()
        m.eval()
        assert not m.training and not m.fc1.training
        m.train()
        assert m.training and m.fc2.training


class TestStateDict:
    def test_round_trip(self):
        a, b = TwoLayer(), TwoLayer()
        b.fc1.weight.data += 1.0
        state = a.state_dict()
        b.load_state_dict(state)
        for (n1, p1), (n2, p2) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_state_dict_is_copy(self):
        m = TwoLayer()
        state = m.state_dict()
        state["fc1.weight"] += 100.0
        assert not np.allclose(m.fc1.weight.data, state["fc1.weight"])

    def test_missing_key_raises(self):
        m = TwoLayer()
        state = m.state_dict()
        del state["fc1.bias"]
        with pytest.raises(KeyError, match="missing"):
            m.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        m = TwoLayer()
        state = m.state_dict()
        state["fc1.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError, match="shape"):
            m.load_state_dict(state)


class TestModuleList:
    def test_iteration_and_indexing(self):
        ml = ModuleList([Linear(2, 2), Linear(2, 3)])
        assert len(ml) == 2
        assert ml[1].out_dim == 3
        assert [m.out_dim for m in ml] == [2, 3]

    def test_parameters_collected(self):
        ml = ModuleList([Linear(2, 2, bias=False), Linear(2, 2, bias=False)])
        assert len(list(ml.named_parameters())) == 2


class TestLinear:
    def test_forward_shape(self):
        fc = Linear(5, 3)
        assert fc(Tensor(np.ones((7, 5)))).shape == (7, 3)

    def test_no_bias(self):
        fc = Linear(5, 3, bias=False)
        assert fc.bias is None
        assert len(list(fc.named_parameters())) == 1

    def test_gradients_flow(self):
        fc = Linear(3, 2)
        fc(Tensor(np.ones((4, 3)))).sum().backward()
        assert fc.weight.grad is not None
        assert fc.bias.grad is not None
