"""Tests for GraphSAGE: layer math, gradients, and partial-agg identities."""

import numpy as np
import pytest

from repro.models import GraphSAGE, SAGELayer
from repro.sampling import NeighborSampler
from repro.sampling.block import Block
from repro.graph.datasets import small_dataset
from repro.tensor import Tensor, functional as F
from repro.tensor.sparse import SegmentIndex, gather_segment_sum
from tests.tensor.test_autograd import numeric_grad


@pytest.fixture(scope="module")
def block():
    # 2 dst (5, 6): 5 <- {10, 11}, 6 <- {12}
    return Block.from_global_edges(np.array([10, 11, 12]), np.array([5, 5, 6]))


class TestSAGELayer:
    def test_forward_matches_manual(self, block):
        rng = np.random.default_rng(0)
        layer = SAGELayer(4, 3, activation=False, rng=rng)
        x = np.random.default_rng(1).normal(size=(block.num_src, 4))
        out = layer.full_forward(block, Tensor(x)).data

        # Manual: mean of neighbor rows, then affine.
        src_of = {5: [10, 11], 6: [12]}
        for i, v in enumerate(block.dst_nodes):
            rows = [np.nonzero(block.src_nodes == u)[0][0] for u in src_of[v]]
            mean = x[rows].mean(axis=0)
            self_row = x[block.dst_in_src[i]]
            expect = mean @ layer.w_neigh.data + self_row @ layer.w_self.data + layer.bias.data
            np.testing.assert_allclose(out[i], expect, atol=1e-12)

    def test_activation_applied(self, block):
        layer = SAGELayer(4, 3, activation=True)
        x = Tensor(np.random.default_rng(0).normal(size=(block.num_src, 4)))
        assert np.all(layer.full_forward(block, x).data >= 0)

    def test_shape_mismatch_raises(self, block):
        layer = SAGELayer(4, 3)
        with pytest.raises(ValueError):
            layer.full_forward(block, Tensor(np.ones((2, 4))))

    def test_gradient_numeric(self, block):
        layer = SAGELayer(3, 2, activation=True, rng=np.random.default_rng(2))
        x0 = np.random.default_rng(3).normal(size=(block.num_src, 3))

        def run(xv):
            out = layer.full_forward(block, Tensor(xv, requires_grad=True))
            return (out * out).sum()

        x = Tensor(x0, requires_grad=True)
        (layer.full_forward(block, x) ** 2).sum().backward()
        num = numeric_grad(lambda v: run(v).item(), x0)
        np.testing.assert_allclose(x.grad, num, rtol=1e-5, atol=1e-8)

    def test_forward_flops_positive(self, block):
        assert SAGELayer(4, 3).forward_flops(block) > 0


class TestPartialIdentity:
    """The SNP decomposition must reconstruct full_forward exactly."""

    def test_two_way_split_reconstructs(self, block):
        rng = np.random.default_rng(4)
        layer = SAGELayer(4, 3, activation=True, rng=rng)
        x = Tensor(rng.normal(size=(block.num_src, 4)))
        full = layer.full_forward(block, x).data

        # Split edges into two "devices" by parity.
        z = x @ layer.w_neigh
        halves = [block.edge_src % 2 == 0, block.edge_src % 2 == 1]
        psum_tot = np.zeros((block.num_dst, 3))
        counts_tot = np.zeros(block.num_dst)
        for mask in halves:
            dst = SegmentIndex(block.edge_dst[mask], block.num_dst)
            psum_tot += gather_segment_sum(z, block.edge_src[mask], dst).data
            counts_tot += dst.counts
        self_term = x.index_rows(block.dst_in_src) @ layer.w_self
        recon = layer.combine_partials(
            Tensor(psum_tot), counts_tot, self_term
        ).data
        np.testing.assert_allclose(recon, full, atol=1e-12)


class TestGraphSAGEModel:
    def test_layer_dims(self):
        m = GraphSAGE(16, 32, 5, num_layers=3)
        dims = [(l.in_dim, l.out_dim) for l in m.layers]
        assert dims == [(16, 32), (32, 32), (32, 5)]

    def test_last_layer_no_activation(self):
        m = GraphSAGE(16, 32, 5, num_layers=3)
        assert not m.layers[2].activation
        assert m.layers[0].activation

    def test_forward_on_sampled_batch(self):
        ds = small_dataset(n=600, feature_dim=8, num_classes=3)
        s = NeighborSampler(ds.graph, [3, 3], global_seed=0)
        mb = s.sample(ds.train_seeds[:16])
        m = GraphSAGE(8, 16, 3, num_layers=2, seed=0)
        out = m(mb, Tensor(ds.features[mb.input_nodes]))
        assert out.shape == (mb.blocks[-1].num_dst, 3)

    def test_training_reduces_loss(self):
        from repro.tensor.optim import Adam

        ds = small_dataset(n=800, feature_dim=8, num_classes=3)
        s = NeighborSampler(ds.graph, [4, 4], global_seed=0)
        m = GraphSAGE(8, 16, 3, num_layers=2, seed=0)
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
            GraphSAGE(8, 16, 3, num_layers=0)

    def test_parameter_bytes(self):
        m = GraphSAGE(8, 16, 3, num_layers=2)
        assert m.parameter_bytes() == sum(p.data.nbytes for p in m.parameters())
        assert m.first_layer_parameter_bytes() < m.parameter_bytes()

