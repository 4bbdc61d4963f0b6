"""Tests for the APT dry-run (§3.2 / Plan step)."""

import numpy as np
import pytest

from repro.cluster import single_machine_cluster
from repro.config import APTConfig
from repro.core import APT, access_frequency_census
from repro.graph.datasets import small_dataset
from repro.graph.partition import metis_like_partition
from repro.models import GraphSAGE


@pytest.fixture(scope="module")
def ds():
    return small_dataset(n=1500, feature_dim=16, num_classes=4, seed=7)


@pytest.fixture(scope="module")
def apt(ds):
    cluster = single_machine_cluster(4, gpu_cache_bytes=ds.feature_bytes * 0.05)
    model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, 2, seed=1)
    parts = metis_like_partition(ds.graph, 4, seed=0)
    config = APTConfig(
        fanouts=(4, 4), global_batch_size=256, seed=0, partition=parts
    )
    return APT(ds, model, cluster, config)


@pytest.fixture(scope="module")
def dryrun(apt):
    return apt.context.dryrun


class TestAccessFrequencyCensus:
    def test_nonzero_total(self, ds):
        freq = access_frequency_census(ds, [4, 4], 256)
        assert freq.sum() > 0
        assert freq.shape == (ds.num_nodes,)

    def test_epoch_stability_on_skewed_graph(self):
        """Paper: top-1% node overlap across epochs is ~95% on PS.  The
        meaningful invariant is *access-mass* stability: the hot set found
        in epoch 0 must keep absorbing a similar share of epoch 1's
        accesses (that is what makes one dry-run epoch enough for cache
        configuration)."""
        from repro.graph import ps_like

        skewed = ps_like(n=6000)
        f0 = access_frequency_census(skewed, [5, 5], 512, epoch=0)
        f1 = access_frequency_census(skewed, [5, 5], 512, epoch=1)
        k = max(skewed.num_nodes // 10, 10)  # top 10%
        hot0 = np.argsort(-f0)[:k]
        coverage_self = f0[hot0].sum() / f0.sum()
        coverage_next = f1[hot0].sum() / f1.sum()
        assert coverage_next > 0.85 * coverage_self

    def test_high_degree_nodes_accessed_more(self, ds):
        freq = access_frequency_census(ds, [4, 4], 256)
        deg = ds.graph.in_degrees
        hot = np.argsort(-deg)[:50]
        cold = np.argsort(deg)[:50]
        assert freq[hot].mean() > freq[cold].mean()


class TestDryRunStats:
    def test_runs_all_strategies(self, dryrun):
        stats = dryrun.run_all()
        assert set(stats) == {"gdp", "nfp", "snp", "dnp"}

    def test_gdp_has_no_shuffle_volume(self, dryrun):
        stats = dryrun.run("gdp")
        assert stats.recorder.total_hidden_bytes() == 0.0
        assert stats.t_build > 0  # sampling time still counts

    def test_nfp_largest_shuffle(self, dryrun):
        stats = dryrun.run_all()
        hid = {k: v.recorder.total_hidden_bytes() for k, v in stats.items()}
        assert hid["nfp"] >= hid["snp"] >= hid["dnp"] >= hid["gdp"]

    def test_dim_fraction_reported(self, dryrun):
        stats = dryrun.run_all()
        assert stats["nfp"].dim_fraction == pytest.approx(0.25)
        assert stats["gdp"].dim_fraction == 1.0

    def test_access_frequency_cached(self, apt, dryrun):
        """One census per task: every dry-run reads the APT's."""
        f1 = apt.access_freq
        f2 = apt.access_freq
        assert f1 is f2
        assert dryrun.run("gdp").recorder.access_frequency is f1

    def test_num_batches(self, dryrun, ds):
        stats = dryrun.run("gdp")
        assert stats.num_batches == -(-ds.train_seeds.size // 256)


# ---------------------------------------------------------------------- #
# the dry-run samples the way the run it prices does (paper §3.2: T_build
# is the dry-run's sample phase)
# ---------------------------------------------------------------------- #
PRICED_SPECS = ("gdp", "nfp", "snp", "dnp", "hyb", "layerwise:gdp,snp")


@pytest.fixture(scope="module", params=[False, True], ids=["gpu", "cpu"])
def priced_apt(request):
    from repro.cluster import multi_machine_cluster
    from repro.graph import ps_like

    ds = ps_like(3000)
    cluster = multi_machine_cluster(
        2, 2, gpu_cache_bytes=ds.feature_bytes * 0.05
    )
    model = GraphSAGE(ds.feature_dim, 16, ds.num_classes, 2, seed=1)
    config = APTConfig(
        fanouts=(5, 5), global_batch_size=256, seed=0,
        cpu_sampling=request.param,
    )
    return APT(ds, model, cluster, config)


@pytest.mark.parametrize("spec", PRICED_SPECS)
def test_dryrun_t_build_is_the_run_epochs_sample_phase(priced_apt, spec):
    """With or without ``cpu_sampling`` (Fig. 7's DistDGL-like baseline),
    the dry-run's T_build equals the sample phase the executed epoch
    charges, to the bit."""
    t_build = priced_apt.context.dryrun.run(spec).t_build
    epoch = priced_apt.run_strategy(spec, 1, numerics=False).result.epochs[0]
    assert t_build == epoch.phases["sample"]
