"""Tests for the out-of-core disk tier (DESIGN.md §5.14).

The contract: a store over memory-mapped features serves *bit-identical*
rows to an in-RAM store over the same matrix, while classifying the
unpromoted remainder as :data:`Tier.DISK`, charging coalesced ranged
reads, and promoting hot rows into the CPU-resident buffer over time.
"""

import numpy as np
import pytest

from repro.cluster import Timeline, multi_machine_cluster, single_machine_cluster
from repro.config import APTConfig
from repro.core import APT
from repro.featurestore import (
    TIERS,
    Tier,
    UnifiedFeatureStore,
    coalesce_ranges,
    count_ranges,
    is_disk_backed,
    ranged_gather,
)
from repro.graph import open_streaming_dataset, write_dataset_dir
from repro.graph.datasets import small_dataset
from repro.models import GraphSAGE


def classify(store, ids):
    """Device 0's load set classified alone: its ids per tier."""
    split = store.classify([ids])
    return {t: split.node_ids[split.tiers == col] for col, t in enumerate(TIERS)}


@pytest.fixture(scope="module")
def ram_ds():
    return small_dataset(n=500, feature_dim=8, num_classes=3)


@pytest.fixture(scope="module")
def disk_ds(ram_ds, tmp_path_factory):
    out = write_dataset_dir(ram_ds, tmp_path_factory.mktemp("ds") / "d")
    return open_streaming_dataset(out)


class TestRangedReads:
    def test_coalesce_merges_near_ids(self):
        ranges = coalesce_ranges(np.array([0, 1, 2, 50, 51, 200]), gap=8)
        np.testing.assert_array_equal(ranges, [[0, 3], [50, 52], [200, 201]])

    def test_gap_controls_merging(self):
        ids = np.array([0, 10, 20])
        assert count_ranges(ids, gap=10) == 1
        assert count_ranges(ids, gap=9) == 3

    def test_count_empty_is_zero(self):
        assert count_ranges(np.empty(0, dtype=np.int64)) == 0

    def test_count_sorts_unsorted_input(self):
        assert count_ranges(np.array([100, 0, 1])) == 2

    def test_gather_bit_identical_to_fancy_index(self, disk_ds):
        rng = np.random.default_rng(0)
        ids = np.unique(rng.integers(0, disk_ds.num_nodes, size=120))
        got = ranged_gather(disk_ds.features, ids)
        np.testing.assert_array_equal(got, np.asarray(disk_ds.features)[ids])

    def test_gather_dense_run_uses_few_ranges(self, disk_ds):
        ids = np.arange(40, dtype=np.int64)
        assert count_ranges(ids) == 1
        got = ranged_gather(disk_ds.features, ids)
        np.testing.assert_array_equal(got, np.asarray(disk_ds.features)[:40])

    def test_gather_into_preallocated_out(self, disk_ds):
        ids = np.array([3, 4, 99], dtype=np.int64)
        out = np.empty((3, disk_ds.feature_dim))
        res = ranged_gather(disk_ds.features, ids, out=out)
        assert res is out
        np.testing.assert_array_equal(out, np.asarray(disk_ds.features)[ids])


class TestDiskTierStore:
    def test_auto_activates_on_memmap(self, ram_ds, disk_ds):
        cluster = single_machine_cluster(1)
        assert is_disk_backed(disk_ds.features)
        assert UnifiedFeatureStore(disk_ds, cluster).disk_tier_active
        assert not UnifiedFeatureStore(ram_ds, cluster).disk_tier_active

    def test_classify_reports_disk_tier(self, disk_ds):
        store = UnifiedFeatureStore(disk_ds, single_machine_cluster(1))
        split = classify(store, np.array([5, 6, 300]))
        np.testing.assert_array_equal(np.sort(split[Tier.DISK]), [5, 6, 300])
        assert split[Tier.LOCAL_CPU].size == 0

    def test_read_bit_identical_to_ram_store(self, ram_ds, disk_ds):
        cluster = single_machine_cluster(2)
        ram = UnifiedFeatureStore(ram_ds, cluster)
        disk = UnifiedFeatureStore(disk_ds, cluster)
        rng = np.random.default_rng(1)
        for _ in range(4):
            ids = rng.integers(0, ram_ds.num_nodes, size=90)  # dupes included
            f_ram, f_disk = ram.read(ids), disk.read(ids)
            np.testing.assert_array_equal(f_ram, f_disk)

    def test_charge_load_counts_ranged_reads(self, disk_ds):
        store = UnifiedFeatureStore(disk_ds, single_machine_cluster(1))
        ids = np.array([0, 1, 2, 100, 101, 400])
        report = store.charge_load(0, store.classify([ids])[0])
        assert report.rows[Tier.DISK] == 6
        assert report.ranged_reads == count_ranges(ids) == 3
        assert report.bytes[Tier.DISK] == 6 * disk_ds.feature_dim * 8
        assert store.disk_stats["rows"] == 6.0
        assert store.disk_stats["ranged_reads"] == 3.0

    def test_disk_slower_than_local_cpu(self, ram_ds, disk_ds):
        cluster = single_machine_cluster(1)
        ids = np.arange(200)
        r_ram, r_disk = (
            store.charge_load(0, store.classify([ids])[0])
            for store in (UnifiedFeatureStore(ram_ds, cluster),
                          UnifiedFeatureStore(disk_ds, cluster))
        )
        assert r_disk.seconds > r_ram.seconds

    def test_charges_timeline(self, disk_ds):
        store = UnifiedFeatureStore(disk_ds, single_machine_cluster(1))
        t = Timeline(1)
        store.charge_load(0, store.classify([np.arange(50)])[0], t)
        assert t.device_phase_seconds(0, "load") > 0

    def test_multi_machine_unpromoted_rows_hit_disk(self, disk_ds):
        """Out of core, every machine reads unpromoted rows from its own
        NVMe copy of the dataset directory — node_machine only decides
        where *promoted* rows become CPU-resident."""
        cluster = multi_machine_cluster(2, 1)
        machine = np.zeros(disk_ds.num_nodes, dtype=np.int64)
        machine[250:] = 1
        store = UnifiedFeatureStore(disk_ds, cluster, node_machine=machine)
        split = classify(store, np.array([5, 300]))
        np.testing.assert_array_equal(np.sort(split[Tier.DISK]), [5, 300])
        assert split[Tier.REMOTE_CPU].size == 0


class TestPromotion:
    def _store(self, disk_ds, budget_rows=32):
        store = UnifiedFeatureStore(disk_ds, single_machine_cluster(1))
        store.configure_disk_tier(
            promote_bytes=budget_rows * disk_ds.feature_dim * 8,
            promote_every=4,
        )
        return store

    def test_hot_rows_promoted_and_reclassified(self, disk_ds):
        store = self._store(disk_ds)
        hot = np.arange(10, dtype=np.int64)
        for _ in range(40):
            store.classify([hot])
        assert store.disk_resident_count() >= hot.size
        split = classify(store, hot)
        assert split[Tier.DISK].size == 0
        np.testing.assert_array_equal(np.sort(split[Tier.LOCAL_CPU]), hot)
        assert store.disk_stats["promotions"] > 0

    def test_promotion_preserves_values(self, disk_ds):
        store = self._store(disk_ds)
        hot = np.array([7, 8, 9, 450], dtype=np.int64)
        before = store.read(hot)
        for _ in range(40):
            store.classify([hot])
        after = store.read(hot)
        np.testing.assert_array_equal(before, after)
        np.testing.assert_array_equal(after, np.asarray(disk_ds.features)[hot])

    def test_budget_bounds_residency(self, disk_ds):
        store = self._store(disk_ds, budget_rows=16)
        for start in range(0, 400, 50):
            ids = np.arange(start, start + 50, dtype=np.int64)
            for _ in range(8):
                store.classify([ids])
        assert store.disk_resident_count() <= 16


class TestEndToEnd:
    def _losses(self, ds, seed=0):
        model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, 2, seed=1)
        cluster = single_machine_cluster(2, gpu_cache_bytes=0.0)
        apt = APT(ds, model, cluster,
                  APTConfig(fanouts=(4, 4), global_batch_size=64, seed=seed))
        apt.prepare()
        report = apt.run_strategy("gdp", 2)
        return [e.mean_loss for e in report.result.epochs]

    def test_losses_bit_identical_to_in_ram(self, ram_ds, disk_ds):
        """Out-of-core training is numerically invisible (same bytes)."""
        assert self._losses(ram_ds) == self._losses(disk_ds)
