"""End-to-end tests of the APT facade (Prepare -> Plan -> Adapt -> Run)."""

import numpy as np
import pytest

from repro.cluster import multi_machine_cluster, single_machine_cluster
from repro.config import APTConfig
from repro.core import APT
from repro.graph.datasets import small_dataset
from repro.graph.partition import metis_like_partition
from repro.models import GraphSAGE


@pytest.fixture(scope="module")
def ds():
    return small_dataset(n=1500, feature_dim=16, num_classes=4, seed=7)


def make_apt(ds, cluster=None, **kw):
    if cluster is None:
        cluster = single_machine_cluster(4, gpu_cache_bytes=ds.feature_bytes * 0.05)
    model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, 2, seed=1)
    return APT(
        ds,
        model,
        cluster,
        APTConfig(fanouts=(4, 4), global_batch_size=256, seed=0, **kw),
    )


class TestPrepare:
    def test_metis_partition_built(self, ds):
        apt = make_apt(ds)
        apt.prepare()
        assert apt.context.parts.shape == (ds.num_nodes,)
        assert apt.context.parts.max() == 3

    def test_random_partition_mode(self, ds):
        apt = make_apt(ds, partition="random")
        apt.prepare()
        assert len(np.unique(apt.context.parts)) == 4

    def test_explicit_partition_array(self, ds):
        parts = metis_like_partition(ds.graph, 4, seed=9)
        apt = make_apt(ds)
        apt.config.partition = parts
        apt.prepare()
        np.testing.assert_array_equal(apt.context.parts, parts)

    def test_unknown_partition_mode(self, ds):
        apt = make_apt(ds)
        apt.config.partition = "bogus"
        with pytest.raises(ValueError):
            apt.prepare()

    def test_node_machine_groups_parts(self, ds):
        cluster = multi_machine_cluster(2, 2, gpu_cache_bytes=ds.feature_bytes * 0.05)
        apt = make_apt(ds, cluster=cluster)
        apt.prepare()
        # Nodes in device-partition d live on machine_of(d).
        for d in range(4):
            nodes = apt.context.parts == d
            assert np.all(apt.context.node_machine[nodes] == cluster.machine_of(d))

    def test_fanout_layer_mismatch_rejected(self, ds):
        model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, 3, seed=1)
        with pytest.raises(ValueError, match="fanouts"):
            APT(ds, model, single_machine_cluster(2), APTConfig(fanouts=(4, 4)))


class TestPlan:
    def test_plan_returns_all_estimates(self, ds):
        apt = make_apt(ds)
        report = apt.plan()
        assert set(report.estimates) == {"gdp", "nfp", "snp", "dnp"}
        assert report.chosen in report.estimates

    def test_plan_subset(self, ds):
        apt = make_apt(ds)
        report = apt.plan(strategies=("gdp", "dnp"))
        assert set(report.estimates) == {"gdp", "dnp"}


class TestRun:
    def test_run_uses_planned_strategy(self, ds):
        apt = make_apt(ds)
        result = apt.run(num_epochs=1)
        assert result.strategy == apt.plan_report.chosen
        assert result.epochs[0].wall_seconds > 0

    def test_run_explicit_strategy(self, ds):
        apt = make_apt(ds)
        apt.prepare()
        result = apt.run(num_epochs=1, strategy="dnp")
        assert result.strategy == "dnp"

    def test_run_strategy_resets_model(self, ds):
        apt = make_apt(ds)
        apt.prepare()
        apt.run_strategy("gdp", 1, lr=1e-2)
        state_a = apt.model.state_dict()
        apt.run_strategy("gdp", 1, lr=1e-2)
        state_b = apt.model.state_dict()
        for k in state_a:
            np.testing.assert_array_equal(state_a[k], state_b[k])

    def test_unknown_strategy_rejected(self, ds):
        apt = make_apt(ds)
        with pytest.raises(KeyError):
            apt.run_strategy("nope")

    def test_compare_all(self, ds):
        apt = make_apt(ds)
        apt.prepare()
        results = apt.compare_all(num_epochs=1, numerics=False)
        assert set(results) == {"gdp", "nfp", "snp", "dnp"}
        for r in results.values():
            assert r.epoch_seconds > 0

    def test_chosen_strategy_is_near_optimal(self, ds):
        """The headline APT property at test scale: chosen strategy within
        2x of the actual best (usually it IS the best)."""
        apt = make_apt(ds)
        report = apt.plan()
        results = apt.compare_all(num_epochs=1, numerics=False)
        times = {n: r.epoch_seconds for n, r in results.items()}
        best = min(times.values())
        assert times[report.chosen] <= 2.0 * best

    def test_multi_epoch_loss_decreases(self, ds):
        apt = make_apt(ds)
        apt.prepare()
        result = apt.run_strategy("gdp", 4, lr=5e-3)
        assert result.epochs[-1].mean_loss < result.epochs[0].mean_loss
