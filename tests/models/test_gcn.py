"""Tests for the GCN model and its partial-mean decomposition."""

import numpy as np
import pytest

from repro.models import GCN, GCNLayer
from repro.models.base import extend_with_self_edges
from repro.sampling import NeighborSampler
from repro.sampling.block import Block
from repro.graph.datasets import small_dataset
from repro.tensor import Tensor, functional as F
from repro.tensor.sparse import SegmentIndex, gather_segment_sum
from tests.tensor.test_autograd import numeric_grad


@pytest.fixture(scope="module")
def block():
    return Block.from_global_edges(np.array([10, 11, 12]), np.array([5, 5, 6]))


class TestGCNLayer:
    def test_forward_matches_manual(self, block):
        layer = GCNLayer(4, 3, activation=False, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(block.num_src, 4))
        out = layer.full_forward(block, Tensor(x)).data
        src_of = {5: [10, 11], 6: [12]}
        for i, v in enumerate(block.dst_nodes):
            rows = [np.nonzero(block.src_nodes == u)[0][0] for u in src_of[v]]
            rows.append(block.dst_in_src[i])  # the self loop
            mean = x[rows].mean(axis=0)
            expect = mean @ layer.weight.data + layer.bias.data
            np.testing.assert_allclose(out[i], expect, atol=1e-12)

    def test_self_loop_flag(self):
        assert GCNLayer(4, 3).self_loop_in_aggregation
        assert not GCNLayer(4, 3).is_attention

    def test_gradient_numeric(self, block):
        layer = GCNLayer(3, 2, activation=True, rng=np.random.default_rng(2))
        x0 = np.random.default_rng(3).normal(size=(block.num_src, 3))
        x = Tensor(x0, requires_grad=True)
        (layer.full_forward(block, x) ** 2).sum().backward()
        num = numeric_grad(
            lambda v: (layer.full_forward(block, Tensor(v)) ** 2).sum().item(), x0
        )
        np.testing.assert_allclose(x.grad, num, rtol=1e-5, atol=1e-8)

    def test_partials_reconstruct_full(self, block):
        """Split the self-augmented edge set across 'devices' and rebuild."""
        rng = np.random.default_rng(4)
        layer = GCNLayer(4, 3, activation=True, rng=rng)
        x = Tensor(rng.normal(size=(block.num_src, 4)))
        full = layer.full_forward(block, x).data

        z = x @ layer.weight
        es, ed = extend_with_self_edges(block)
        psum_tot = np.zeros((block.num_dst, 3))
        counts_tot = np.zeros(block.num_dst)
        for p in range(3):
            mask = (es % 3) == p
            dst = SegmentIndex(ed[mask], block.num_dst)
            psum_tot += gather_segment_sum(z, es[mask], dst).data
            counts_tot += dst.counts
        recon = layer.combine_partials(Tensor(psum_tot), counts_tot).data
        np.testing.assert_allclose(recon, full, atol=1e-12)


class TestGCNModel:
    def test_layer_dims(self):
        m = GCN(16, 32, 5, num_layers=3)
        dims = [(l.in_dim, l.out_dim) for l in m.layers]
        assert dims == [(16, 32), (32, 32), (32, 5)]

    def test_training_reduces_loss(self):
        from repro.tensor.optim import Adam

        ds = small_dataset(n=800, feature_dim=8, num_classes=3)
        s = NeighborSampler(ds.graph, [4, 4], global_seed=0)
        m = GCN(8, 16, 3, num_layers=2, seed=0)
        opt = Adam(m.parameters(), lr=5e-3)
        seeds = ds.train_seeds[:128]
        losses = []
        for step in range(30):
            mb = s.sample(seeds, epoch=step)
            out = m(mb, Tensor(ds.features[mb.input_nodes]))
            loss = F.cross_entropy(out, ds.labels[mb.blocks[-1].dst_nodes])
            m.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.7

    def test_rejects_zero_layers(self):
        with pytest.raises(ValueError):
            GCN(8, 16, 3, num_layers=0)
