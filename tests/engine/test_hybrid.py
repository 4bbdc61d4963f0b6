"""Tests for the hybrid strategy (GDP across machines, SNP within)."""

import numpy as np
import pytest

from repro.cluster import multi_machine_cluster, single_machine_cluster
from repro.core import APT
from repro.engine import HybridGDPSNPStrategy, make_strategy
from repro.engine.base import sample_batches
from repro.engine.context import ExecutionContext
from repro.graph.datasets import small_dataset
from repro.graph.partition import metis_like_partition
from repro.models import GAT, GCN, GraphSAGE
from repro.config import APTConfig


@pytest.fixture(scope="module")
def ds():
    return small_dataset(n=1500, feature_dim=16, num_classes=4, seed=7)


@pytest.fixture(scope="module")
def parts(ds):
    return metis_like_partition(ds.graph, 4, seed=0)


def build_ctx(ds, parts, model=None):
    cluster = multi_machine_cluster(2, 2, gpu_cache_bytes=ds.feature_bytes * 0.06)
    if model is None:
        model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, 2, seed=1)
    return ExecutionContext.build(
        ds, cluster, model, [4, 4], parts=parts, global_batch_size=128
    )


class TestRouting:
    def test_registered(self):
        assert make_strategy("hyb").name == "hyb"

    def test_seeds_split_by_machine_then_slot(self, ds, parts):
        ctx = build_ctx(ds, parts)
        s = HybridGDPSNPStrategy()
        s.prepare(ctx)
        gb = ds.train_seeds[:100]
        out = s.assign_seeds(ctx, gb)
        # Machine 0 gets the first half, machine 1 the second.
        first = np.sort(np.concatenate([x for x in out[:2] if x is not None]))
        second = np.sort(np.concatenate([x for x in out[2:] if x is not None]))
        np.testing.assert_array_equal(first, np.sort(gb[:50]))
        np.testing.assert_array_equal(second, np.sort(gb[50:]))
        # Within a machine, a device only gets seeds of its slot.
        for d, seeds in enumerate(out):
            if seeds is not None:
                assert np.all(s._slot_of_node[seeds] == d % 2)

    def test_server_of_nodes_stays_in_machine(self, ds, parts):
        ctx = build_ctx(ds, parts)
        s = HybridGDPSNPStrategy()
        s.prepare(ctx)
        nodes = np.arange(100)
        for requester in range(4):
            owners = s.server_of_nodes(nodes, requester)
            m = ctx.cluster.machine_of(requester)
            assert all(ctx.cluster.machine_of(int(o)) == m for o in owners)

    def test_no_cross_machine_tasks(self, ds, parts):
        ctx = build_ctx(ds, parts)
        s = HybridGDPSNPStrategy()
        s.prepare(ctx)
        seeds = s.assign_seeds(ctx, ds.train_seeds[:128])
        batches = sample_batches(ctx, seeds, 0)
        plan = s.plan_batch(ctx, batches)
        for task in plan.tasks:
            machine_of = ctx.cluster.machine_of
            assert machine_of(task.requester) == machine_of(task.server)

    def test_no_cross_machine_hidden_bytes(self, ds, parts):
        ctx = build_ctx(ds, parts)
        s = HybridGDPSNPStrategy()
        s.prepare(ctx)
        seeds = s.assign_seeds(ctx, ds.train_seeds[:128])
        batches = sample_batches(ctx, seeds, 0)
        s.plan_batch(ctx, batches)
        B = ctx.recorder.hidden_bytes
        for i in range(4):
            for j in range(4):
                if ctx.cluster.machine_of(i) != ctx.cluster.machine_of(j):
                    assert B[i, j] == 0.0

    def test_heterogeneous_machines_rejected(self, ds, parts):
        from repro.cluster import ClusterSpec, MachineSpec

        cluster = ClusterSpec(
            machines=(MachineSpec(num_gpus=2), MachineSpec(num_gpus=3))
        )
        model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, 2, seed=1)
        ctx = ExecutionContext.build(ds, cluster, model, [4, 4], parts=None)
        ctx.parts = np.zeros(ds.num_nodes, dtype=np.int64)
        with pytest.raises(ValueError, match="homogeneous"):
            HybridGDPSNPStrategy().prepare(ctx)


class TestHybridEquivalence:
    @pytest.mark.parametrize(
        "model_factory",
        [
            lambda ds: GraphSAGE(ds.feature_dim, 8, ds.num_classes, 2, seed=3),
            lambda ds: GAT(ds.feature_dim, 4, ds.num_classes, 2, heads=2, seed=3),
            lambda ds: GCN(ds.feature_dim, 8, ds.num_classes, 2, seed=3),
        ],
        ids=["sage", "gat", "gcn"],
    )
    def test_matches_gdp(self, ds, model_factory):
        cluster = multi_machine_cluster(2, 2, gpu_cache_bytes=ds.feature_bytes * 0.06)
        states = {}
        for name in ("gdp", "hyb"):
            model = model_factory(ds)
            apt = APT(ds, model, cluster, APTConfig(fanouts=(4, 4), global_batch_size=256, seed=0))
            apt.prepare()
            apt.run_strategy(name, 1, lr=1e-2)
            states[name] = model.state_dict()
        for key in states["gdp"]:
            np.testing.assert_allclose(
                states["hyb"][key], states["gdp"][key], atol=1e-9, err_msg=key
            )

    def test_single_machine_degenerates_to_snp_routing(self, ds, parts):
        """On one machine the hybrid routes exactly like SNP with the slot
        partition (same virtual-node count)."""
        cluster = single_machine_cluster(4, gpu_cache_bytes=ds.feature_bytes * 0.06)
        model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, 2, seed=1)

        ctx_h = ExecutionContext.build(
            ds, cluster, model, [4, 4], parts=parts, global_batch_size=128
        )
        hyb = HybridGDPSNPStrategy()
        hyb.prepare(ctx_h)
        # With one machine the slot map IS the device partition.
        np.testing.assert_array_equal(hyb._slot_of_node, parts)
