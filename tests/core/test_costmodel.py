"""Tests for the APT cost models (§3.2)."""

import numpy as np
import pytest

from repro.cluster import multi_machine_cluster, single_machine_cluster
from repro.core import APT, CostModel
from repro.core.costmodel import (
    dnp_shuffle_volume,
    nfp_shuffle_volume,
    snp_shuffle_volume,
)
from repro.graph.datasets import small_dataset
from repro.graph.partition import metis_like_partition
from repro.models import GraphSAGE
from repro.config import APTConfig


@pytest.fixture(scope="module")
def setup():
    ds = small_dataset(n=1500, feature_dim=16, num_classes=4, seed=7)
    cluster = single_machine_cluster(4, gpu_cache_bytes=ds.feature_bytes * 0.05)
    model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, 2, seed=1)
    parts = metis_like_partition(ds.graph, 4, seed=0)
    config = APTConfig(
        fanouts=(4, 4), global_batch_size=256, seed=0, partition=parts
    )
    apt = APT(ds, model, cluster, config)
    return ds, cluster, model, apt.context.dryrun.run_all()


class TestClosedFormVolumes:
    def test_nfp_formula(self):
        assert nfp_shuffle_volume(32, 8, 1000) == 2 * 32 * 8 * 1000 * 8.0

    def test_snp_dnp_formulas(self):
        assert snp_shuffle_volume(32, 500) == 2 * 32 * 500 * 8.0
        assert dnp_shuffle_volume(32, 400) == 2 * 32 * 400 * 8.0

    def test_recorded_nfp_volume_matches_formula(self, setup):
        """Recorded bytes = d'(C-1)N_d forward; the paper's 2d'CN_d counts
        both directions and rounds C-1 to C."""
        ds, cluster, model, stats = setup
        rec = stats["nfp"].recorder
        forward = rec.total_hidden_bytes()
        formula_both_dirs = nfp_shuffle_volume(
            model.hidden_dim, cluster.num_devices, rec.n_dst
        )
        ratio = 2.0 * forward / formula_both_dirs
        assert ratio == pytest.approx((cluster.num_devices - 1) / cluster.num_devices)

    def test_recorded_dnp_volume_matches_formula(self, setup):
        ds, cluster, model, stats = setup
        rec = stats["dnp"].recorder
        assert 2.0 * rec.total_hidden_bytes() == pytest.approx(
            dnp_shuffle_volume(model.hidden_dim, rec.n_virtual)
        )


class TestCostModel:
    def test_gdp_shuffle_free_and_volume_ordering(self, setup):
        ds, cluster, model, stats = setup
        cm = CostModel(cluster, ds.feature_dim)
        est = cm.estimate_all(stats)
        assert est["gdp"].t_shuffle == 0.0
        # The *bandwidth volumes* follow the paper's ordering (time may
        # reorder at tiny scale where per-message latency dominates).
        vols = {k: v.recorder.total_hidden_bytes() for k, v in stats.items()}
        assert vols["nfp"] >= vols["snp"] >= vols["dnp"] >= vols["gdp"]

    def test_total_is_sum(self, setup):
        ds, cluster, _, stats = setup
        est = CostModel(cluster, ds.feature_dim).estimate(stats["snp"])
        assert est.total == pytest.approx(
            est.t_build + est.t_load + est.t_shuffle + est.t_skew
        )

    def test_compute_skew_flag_off_reproduces_paper_model(self, setup):
        ds, cluster, _, stats = setup
        cm = CostModel(cluster, ds.feature_dim, include_compute_skew=False)
        for est in cm.estimate_all(stats).values():
            assert est.t_skew == 0.0

    def test_noise_perturbs_profile(self, setup):
        ds, cluster, _, stats = setup
        clean = CostModel(cluster, ds.feature_dim, bandwidth_noise=0.0)
        noisy = CostModel(cluster, ds.feature_dim, bandwidth_noise=0.1, noise_seed=1)
        assert clean.profile["pcie"] != noisy.profile["pcie"]
        # Noise is bounded.
        assert abs(noisy.profile["pcie"] / clean.profile["pcie"] - 1.0) < 0.1

    def test_noise_bound_validated(self, setup):
        ds, cluster, _, _ = setup
        with pytest.raises(ValueError):
            CostModel(cluster, ds.feature_dim, bandwidth_noise=0.9)

    def test_nfp_load_uses_dim_fraction(self, setup):
        """NFP reads 1/C of each row; its estimated per-row load cost must
        reflect that."""
        ds, cluster, _, stats = setup
        cm = CostModel(cluster, ds.feature_dim)
        nfp = stats["nfp"]
        # Same stats with full rows must cost C times more in the
        # bandwidth term (the per-batch latency term is volume-independent).
        import dataclasses

        full = dataclasses.replace(nfp, dim_fraction=1.0)
        lat = cm.load_latency_seconds(nfp)
        assert cm.load_latency_seconds(full) == pytest.approx(lat)
        assert cm.load_seconds(full) - lat == pytest.approx(
            4.0 * (cm.load_seconds(nfp) - lat)
        )

    def test_load_latency_counts_nonempty_tiers_per_batch(self, setup):
        """Tiers with traffic pay one message latency per batch; GPU-cache
        hits pay none."""
        ds, cluster, _, stats = setup
        cm = CostModel(cluster, ds.feature_dim)
        nfp = stats["nfp"]
        lat = cm.load_latency_seconds(nfp)
        assert lat > 0.0
        # Bounded by every latency tier firing every batch.
        ceiling = nfp.num_batches * (
            cm.profile["msg_latency"]
            + cm.profile["pcie_latency"]
            + cm.profile["net_latency"]
        )
        assert lat <= ceiling + 1e-18

    def test_estimates_track_simulated_strategy_costs(self, setup):
        """Fig. 12's premise: per-strategy estimates track the simulated
        strategy-specific time (sampling + loading + hidden shuffling)."""
        ds, cluster, model, stats = setup
        from repro.core import APT

        cm = CostModel(cluster, ds.feature_dim)
        apt = APT(ds, model, cluster, APTConfig(fanouts=(4, 4), global_batch_size=256, seed=0))
        apt.prepare()
        for name in ("gdp", "snp", "dnp", "nfp"):
            run = apt.run_strategy(name, 1, numerics=False)
            est = cm.estimate(stats[name])
            # "sampling"+"loading" is a lower bound on the comparable time
            # (it omits the shuffle share of "training"); the whole epoch is
            # an upper bound.  The estimate must land between them, with
            # slack for the barrier effects the planner ignores.
            lower = run.breakdown["sampling"] + run.breakdown["loading"]
            upper = sum(run.breakdown.values())
            assert est.total <= upper * 1.5, name
            # The planner deliberately ignores per-batch barrier effects,
            # so it may undershoot — but not collapse.
            # (the fig12_cost_model benchmark case validates tight
            # accuracy at realistic scale.)
            assert est.total >= lower * 0.2, name
