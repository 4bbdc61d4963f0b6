"""Hotness-keyed serving cache: accounting + store re-keying pins."""

import numpy as np
import pytest

from repro.cluster import single_machine_cluster
from repro.featurestore.store import (
    HOTNESS_DECAY,
    TIERS,
    Tier,
    UnifiedFeatureStore,
)
from repro.serve import HotnessCache


@pytest.fixture
def store(tiny_dataset):
    cluster = single_machine_cluster(
        2, gpu_cache_bytes=tiny_dataset.feature_bytes * 0.05
    )
    return UnifiedFeatureStore(tiny_dataset, cluster)


def make_cache(store, tiny_dataset, **kw):
    return HotnessCache(
        store, tiny_dataset.num_nodes, tiny_dataset.feature_dim, 2, **kw
    )


class TestObservation:
    def test_counts_accumulate(self, store, tiny_dataset):
        cache = make_cache(store, tiny_dataset)
        cache.observe(np.array([1, 1, 2]))
        cache.observe(np.array([1]))
        assert cache.counts[1] == 3.0
        assert cache.counts[2] == 1.0
        assert cache.observed_rows == 4

    def test_empty_observation_is_noop(self, store, tiny_dataset):
        cache = make_cache(store, tiny_dataset)
        cache.observe(np.array([], dtype=np.int64))
        assert cache.observed_rows == 0


class TestRefresh:
    def test_refresh_keys_store_to_hot_set(self, store, tiny_dataset):
        cache = make_cache(store, tiny_dataset)
        hot_ids = np.arange(10, dtype=np.int64)
        for _ in range(50):
            cache.observe(hot_ids)
        size = cache.refresh()
        assert size > 0
        assert size == min(cache.capacity_nodes(), tiny_dataset.num_nodes)
        every = np.arange(tiny_dataset.num_nodes)
        split = store.classify([every, every])
        gpu = TIERS.index(Tier.GPU_CACHE)
        for device in range(2):
            assert split.rows[device, gpu] == size
        assert cache.refreshes == 1

    def test_decay_slides_the_window(self, store, tiny_dataset):
        cache = make_cache(store, tiny_dataset)
        cache.observe(np.array([3, 3, 3, 3]))
        cache.refresh()
        assert cache.counts[3] == pytest.approx(4.0 * HOTNESS_DECAY)

    def test_cache_bytes_budget_bounds_capacity(self, tiny_dataset):
        # The re-keyed tier's budget is the store's own per-device budget.
        row = tiny_dataset.feature_dim * 8.0
        cluster = single_machine_cluster(2, gpu_cache_bytes=10 * row)
        store = UnifiedFeatureStore(tiny_dataset, cluster)
        assert make_cache(store, tiny_dataset).capacity_nodes() == 10


class TestHitAccounting:
    def test_hit_fraction_over_recorder_ledger(self):
        load_rows = np.zeros((2, len(TIERS)))
        load_rows[0, TIERS.index(Tier.GPU_CACHE)] = 30.0
        load_rows[0, TIERS.index(Tier.LOCAL_CPU)] = 70.0
        load_rows[1, TIERS.index(Tier.GPU_CACHE)] = 10.0
        load_rows[1, TIERS.index(Tier.REMOTE_CPU)] = 90.0
        assert HotnessCache.hit_fraction(load_rows) == pytest.approx(0.2)

    def test_hit_fraction_empty_ledger(self):
        assert HotnessCache.hit_fraction(np.zeros((2, len(TIERS)))) == 0.0

    def test_to_dict_snapshot(self, store, tiny_dataset):
        cache = make_cache(store, tiny_dataset)
        cache.observe(np.array([0, 1]))
        cache.refresh()
        out = cache.to_dict()
        assert out["observed_rows"] == 2
        assert out["refreshes"] == 1
        assert out["last_hot_size"] >= 1
