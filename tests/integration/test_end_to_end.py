"""End-to-end integration tests across subsystems."""

import numpy as np
import pytest

from repro.cluster import multi_machine_cluster, single_machine_cluster
from repro.config import APTConfig, scaled_gpu_cache_bytes
from repro.core import APT
from repro.engine.context import ExecutionContext
from repro.engine.trainer import evaluate_accuracy
from repro.graph import fs_like, im_like, ps_like
from repro.models import GAT, GCN, GraphSAGE


class TestFullWorkflowOnAnalogs:
    @pytest.mark.parametrize("factory", [ps_like, fs_like, im_like])
    def test_prepare_plan_run(self, factory):
        ds = factory(n=4000)
        cluster = single_machine_cluster(
            4, gpu_cache_bytes=scaled_gpu_cache_bytes(ds)
        )
        model = GraphSAGE(ds.feature_dim, 16, ds.num_classes, 2, seed=0)
        apt = APT(ds, model, cluster, APTConfig(fanouts=(5, 5), global_batch_size=512, seed=0))
        apt.prepare()
        report = apt.plan()
        assert report.chosen in ("gdp", "nfp", "snp", "dnp")
        result = apt.run(num_epochs=2, lr=5e-3)
        assert result.epochs[1].mean_loss < result.epochs[0].mean_loss
        assert result.wall_seconds > 0


class TestDistributedGAT:
    def test_gat_trains_distributed(self):
        ds = ps_like(n=3000)
        cluster = multi_machine_cluster(
            2, 2, gpu_cache_bytes=scaled_gpu_cache_bytes(ds)
        )
        model = GAT(ds.feature_dim, 4, ds.num_classes, 2, heads=2, seed=0)
        apt = APT(ds, model, cluster, APTConfig(fanouts=(5, 5), global_batch_size=256, seed=0))
        apt.prepare()
        result = apt.run_strategy("dnp", 2, lr=5e-3)
        assert result.epochs[1].mean_loss < result.epochs[0].mean_loss


class TestAccuracyAcrossModels:
    @pytest.mark.parametrize(
        "model_factory",
        [
            lambda ds: GraphSAGE(ds.feature_dim, 16, ds.num_classes, 2, seed=0),
            lambda ds: GCN(ds.feature_dim, 16, ds.num_classes, 2, seed=0),
            lambda ds: GAT(ds.feature_dim, 8, ds.num_classes, 2, heads=2, seed=0),
        ],
        ids=["sage", "gcn", "gat"],
    )
    def test_learns_community_labels(self, model_factory):
        from repro.graph.datasets import small_dataset

        ds = small_dataset(n=2000, feature_dim=16, num_classes=4, seed=1)
        cluster = single_machine_cluster(2, gpu_cache_bytes=0.1 * ds.feature_bytes)
        model = model_factory(ds)
        apt = APT(ds, model, cluster, APTConfig(fanouts=(4, 4), global_batch_size=128, seed=0))
        apt.prepare()
        apt.run_strategy("gdp", 6, lr=5e-3)
        ctx = ExecutionContext.build(ds, cluster, model, [4, 4])
        held_out = np.setdiff1d(np.arange(ds.num_nodes), ds.train_seeds)[:1000]
        acc = evaluate_accuracy(ctx, seeds=held_out)
        assert acc > 0.55


class TestDeterminismEndToEnd:
    def test_identical_runs_identical_results(self):
        ds = ps_like(n=3000)
        cluster = single_machine_cluster(
            4, gpu_cache_bytes=scaled_gpu_cache_bytes(ds)
        )

        def run():
            model = GraphSAGE(ds.feature_dim, 16, ds.num_classes, 2, seed=0)
            apt = APT(ds, model, cluster, APTConfig(fanouts=(5, 5), global_batch_size=512, seed=0))
            apt.prepare()
            res = apt.run_strategy("dnp", 2, lr=5e-3)
            return res.epochs[-1].mean_loss, res.wall_seconds, model.state_dict()

        l1, w1, s1 = run()
        l2, w2, s2 = run()
        assert l1 == l2
        assert w1 == w2
        for k in s1:
            np.testing.assert_array_equal(s1[k], s2[k])
