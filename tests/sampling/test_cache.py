"""Tests for sample-once reuse (:mod:`repro.sampling.cache`).

The contract is strict: every batch returned — exact hit, restriction of
a global batch, stored split, or fresh miss — must be **bit-identical** to
what ``sampler.sample(seeds, epoch=epoch)`` would have produced.  These
tests pin that contract, the second-use rule for device splits, the LRU
byte budget, and the scope isolation of the cache key.
"""

import numpy as np
import pytest

from repro.sampling import NeighborSampler
from repro.sampling.cache import SampleCache, sample_device_batches
from repro.utils.ids import sorted_unique as _sorted_unique


@pytest.fixture(scope="module")
def graph(tiny_dataset):
    return tiny_dataset.graph


@pytest.fixture
def sampler(graph):
    return NeighborSampler(graph, fanouts=[3, 5], global_seed=11)


def assert_batches_identical(a, b):
    assert np.array_equal(a.seeds, b.seeds)
    assert len(a.blocks) == len(b.blocks)
    for ba, bb in zip(a.blocks, b.blocks):
        assert np.array_equal(ba.src_nodes, bb.src_nodes)
        assert np.array_equal(ba.dst_nodes, bb.dst_nodes)
        assert np.array_equal(ba.dst_in_src, bb.dst_in_src)
        assert np.array_equal(ba.edge_src, bb.edge_src)
        assert np.array_equal(ba.edge_dst, bb.edge_dst)


class TestLookupPaths:
    def test_exact_hit_returns_identical_batch(self, sampler):
        cache = SampleCache()
        seeds = np.arange(0, 200, 2)
        first = cache.sample(sampler, seeds, epoch=0)
        again = cache.sample(sampler, seeds, epoch=0)
        assert again is first
        assert cache.stats.to_dict() == {
            "hits": 1, "restrictions": 0, "misses": 1, "evictions": 0,
        }
        assert_batches_identical(first, sampler.sample(seeds, epoch=0))

    def test_hit_ignores_seed_order_and_duplicates(self, sampler):
        cache = SampleCache()
        cache.sample(sampler, np.array([5, 9, 40, 77]), epoch=0)
        again = cache.sample(sampler, np.array([77, 9, 5, 40, 9]), epoch=0)
        assert cache.stats.hits == 1
        assert_batches_identical(
            again, sampler.sample(np.array([5, 9, 40, 77]), epoch=0)
        )

    def test_restriction_bitwise_equals_direct_sampling(self, sampler):
        """Each device split restricted out of one union sample == sampling
        that chunk directly, with and without a cache."""
        whole = np.arange(0, 600, 3)
        rng = np.random.default_rng(0)
        for cut in ([1], [7, 60], [whole.size - 1], [5, 6, 150]):
            order = rng.permutation(whole)
            chunks = np.split(order, cut)
            cache = SampleCache()
            for got in (
                sample_device_batches(sampler, chunks, 2),
                sample_device_batches(sampler, chunks, 2, cache),
            ):
                for chunk, mb in zip(chunks, got):
                    assert_batches_identical(mb, sampler.sample(chunk, epoch=2))
            # the union is one lookup (a miss); its splits are not counted
            assert cache.stats.to_dict() == {
                "hits": 0, "restrictions": 0, "misses": 1, "evictions": 0,
            }

    def test_scope_isolation(self, graph, sampler):
        """Any change to epoch, seed, or fanouts must miss."""
        cache = SampleCache()
        seeds = np.arange(50)
        cache.sample(sampler, seeds, epoch=0)
        cache.sample(sampler, seeds, epoch=1)  # different epoch
        other_seed = NeighborSampler(graph, fanouts=[3, 5], global_seed=12)
        cache.sample(other_seed, seeds, epoch=0)  # different global seed
        other_fan = NeighborSampler(graph, fanouts=[4, 5], global_seed=11)
        cache.sample(other_fan, seeds, epoch=0)  # different fanouts
        assert cache.stats.misses == 4
        assert cache.stats.hits == 0 and cache.stats.restrictions == 0
        # and each batch is still the right one for its scope
        assert_batches_identical(
            cache.sample(sampler, seeds, epoch=1), sampler.sample(seeds, epoch=1)
        )


class TestBudget:
    def test_lru_eviction_keeps_bytes_bounded(self, sampler):
        probe = SampleCache()
        one = probe.sample(sampler, np.arange(100), epoch=0).nbytes()
        cache = SampleCache(max_bytes=3 * one)
        for e in range(8):
            cache.sample(sampler, np.arange(100), epoch=e)
        assert cache.stats.evictions > 0
        assert cache._bytes <= cache.max_bytes
        assert len(cache) <= 8 - cache.stats.evictions
        # oldest epochs were evicted; re-requesting them re-samples
        cache.sample(sampler, np.arange(100), epoch=0)
        assert cache.stats.misses == 9

    def test_current_bytes_count_every_entry_and_its_built_indexes(self, sampler):
        # Restricting splits out of a cached batch builds each parent
        # block's destination index; the budget must already have counted
        # it, so the charge equals what the entries hold once built.
        cache = SampleCache()
        chunks = split_evenly(np.arange(0, 600, 3), 4)
        for epoch in (0, 1):
            for _ in range(2):  # the second use stores the splits
                sample_device_batches(sampler, chunks, epoch, cache)
        entries = list(cache._entries.values())
        assert len(entries) == 2 and all(len(e.splits) == 4 for e in entries)

        def held(block):
            index = block._dst_index
            built = 0 if index is None else sum(
                a.nbytes for a in (index._counts, index._indptr, index._cols)
                if a is not None
            )
            arrays = (block.src_nodes, block.dst_nodes, block.dst_in_src,
                      block.edge_src, block.edge_dst)
            return sum(a.nbytes for a in arrays) + built

        for e in entries:
            batches = [e.batch, *e.splits.values()]
            assert e.nbytes == sum(mb.nbytes() for mb in batches)
            for block in (b for mb in batches for b in mb.blocks):
                block.dst_index().indptr  # built now, if nothing built it yet
                assert held(block) == block.nbytes()
        assert cache._bytes == sum(e.nbytes for e in entries)

    def test_oversized_batch_served_uncached(self, sampler):
        cache = SampleCache(max_bytes=64)  # smaller than any real batch
        got = cache.sample(sampler, np.arange(100), epoch=0)
        assert len(cache) == 0 and cache._bytes == 0
        assert_batches_identical(got, sampler.sample(np.arange(100), epoch=0))

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            SampleCache(max_bytes=0)

    def test_clear_resets_storage(self, sampler):
        cache = SampleCache()
        cache.sample(sampler, np.arange(30), epoch=0)
        assert len(cache) == 1 and cache._bytes > 0
        cache.clear()
        assert len(cache) == 0 and cache._bytes == 0
        cache.sample(sampler, np.arange(30), epoch=0)
        assert cache.stats.misses == 2


@pytest.mark.parametrize(
    "arr",
    [
        np.array([], dtype=np.int64),
        np.array([4]),
        np.array([1, 2, 9]),            # already strictly increasing
        np.array([3, 3, 3]),
        np.array([9, 1, 4, 1, 9, 0]),
        np.arange(500)[::-1].copy(),
    ],
)
def test_sorted_unique_matches_np_unique(arr):
    assert np.array_equal(_sorted_unique(arr.astype(np.int64)), np.unique(arr))


def test_sorted_unique_random_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.integers(0, 40, size=rng.integers(0, 200)).astype(np.int64)
        assert np.array_equal(_sorted_unique(a), np.unique(a))


class TestKindBudgets:
    """Eval sweeps get their own pool and can never evict training entries."""

    def test_eval_insertions_never_evict_train(self, sampler):
        probe = SampleCache()
        one = probe.sample(sampler, np.arange(100), epoch=0).nbytes()
        cache = SampleCache(max_bytes=4 * one, eval_max_bytes=one)
        for e in range(3):
            cache.sample(sampler, np.arange(100), epoch=e, kind="train")
        train_bytes = cache._kind_bytes["train"]
        # An accuracy sweep: many distinct eval batches in one pseudo-epoch.
        for i in range(6):
            cache.sample(
                sampler, np.arange(i * 100, i * 100 + 100), epoch=10_000,
                kind="eval",
            )
        assert cache._kind_bytes["train"] == train_bytes
        assert cache._kind_bytes["eval"] <= one
        # Every training entry is still an exact hit.
        misses = cache.stats.misses
        for e in range(3):
            cache.sample(sampler, np.arange(100), epoch=e, kind="train")
        assert cache.stats.misses == misses

    def test_eval_pool_evicts_within_itself(self, sampler):
        probe = SampleCache()
        one = probe.sample(sampler, np.arange(100), epoch=0).nbytes()
        cache = SampleCache(max_bytes=16 * one, eval_max_bytes=2 * one)
        for i in range(5):
            cache.sample(
                sampler, np.arange(i * 100, i * 100 + 100), epoch=10_000,
                kind="eval",
            )
        assert cache.stats.evictions > 0
        assert cache._kind_bytes["eval"] <= 2 * one

    def test_default_eval_budget_is_quarter(self):
        cache = SampleCache(max_bytes=1024)
        assert cache._budgets["eval"] == 256

    def test_rejects_unknown_kind(self, sampler):
        cache = SampleCache()
        with pytest.raises(ValueError):
            cache.sample(sampler, np.arange(10), epoch=0, kind="test")

    def test_rejects_nonpositive_eval_budget(self):
        with pytest.raises(ValueError):
            SampleCache(max_bytes=1024, eval_max_bytes=-1)


def split_evenly(seeds, n):
    return np.array_split(np.asarray(seeds, dtype=np.int64), n)


class TestDeviceBatches:
    """``sample_device_batches``: one union sample per global batch."""

    def test_matches_per_chunk_sampling_over_random_splits(self, sampler):
        rng = np.random.default_rng(3)
        for trial in range(20):
            seeds = rng.choice(800, size=int(rng.integers(2, 300)), replace=False)
            cuts = np.sort(rng.choice(np.arange(1, seeds.size), size=min(
                int(rng.integers(1, 8)), seeds.size - 1), replace=False))
            chunks = np.split(seeds, cuts)
            epoch = int(rng.integers(0, 50))
            for cache in (None, SampleCache()):
                got = sample_device_batches(sampler, chunks, epoch, cache)
                for chunk, mb in zip(chunks, got):
                    assert_batches_identical(mb, sampler.sample(chunk, epoch=epoch))

    def test_none_and_empty_chunks_map_to_none(self, sampler):
        empty = np.array([], dtype=np.int64)
        chunks = [None, np.arange(10, 30), empty, np.arange(40, 45), None]
        for cache in (None, SampleCache()):
            got = sample_device_batches(sampler, chunks, 1, cache)
            assert [mb is None for mb in got] == [True, False, True, False, True]
            assert_batches_identical(got[1], sampler.sample(chunks[1], epoch=1))
            assert_batches_identical(got[3], sampler.sample(chunks[3], epoch=1))
        assert sample_device_batches(sampler, [None, empty], 0) == [None, None]
        assert sample_device_batches(sampler, [], 0) == []

    def test_duplicate_seeds_within_and_across_chunks(self, sampler):
        chunks = [np.array([9, 3, 9, 40]), np.array([40, 41, 3]), np.array([7, 7])]
        for cache in (None, SampleCache()):
            got = sample_device_batches(sampler, chunks, 4, cache)
            for chunk, mb in zip(chunks, got):
                assert_batches_identical(mb, sampler.sample(chunk, epoch=4))

    def test_one_sampler_call_per_global_batch(self, sampler, monkeypatch):
        calls = []
        real = NeighborSampler.sample

        def counting(self, seeds, epoch=0):
            calls.append(np.asarray(seeds).size)
            return real(self, seeds, epoch=epoch)

        monkeypatch.setattr(NeighborSampler, "sample", counting)
        chunks = split_evenly(np.arange(0, 400, 2), 4)
        sample_device_batches(sampler, chunks, 0)
        sample_device_batches(sampler, chunks, 0, SampleCache())
        assert calls == [200, 200]

    def test_single_active_chunk_is_the_union(self, sampler):
        chunk = np.array([31, 5, 17])
        cache = SampleCache()
        got = sample_device_batches(sampler, [None, chunk, None], 3, cache)
        assert_batches_identical(got[1], sampler.sample(chunk, epoch=3))
        assert cache.stats.to_dict() == {
            "hits": 0, "restrictions": 0, "misses": 1, "evictions": 0,
        }
        # it is the cached global batch itself, not a restriction of it
        assert cache.sample(sampler, chunk, epoch=3) is got[1]


class TestSecondUse:
    """Device splits are stored on a global batch's entry only once that
    entry is revisited, charged to it, and evicted with it."""

    def test_first_use_stores_nothing_second_use_stores(self, sampler):
        seeds = np.arange(0, 500, 5)
        chunks = split_evenly(seeds, 4)
        union_bytes = sampler.sample(seeds, epoch=0).nbytes()
        cache = SampleCache()
        first = sample_device_batches(sampler, chunks, 0, cache)
        assert len(cache) == 1 and cache._bytes == union_bytes
        # a miss: the splits come from the fresh sample, none is counted
        assert cache.stats.to_dict() == {
            "hits": 0, "restrictions": 0, "misses": 1, "evictions": 0,
        }
        second = sample_device_batches(sampler, chunks, 0, cache)
        assert all(a is not b for a, b in zip(first, second))
        assert cache._bytes == union_bytes + sum(
            mb.nbytes() for mb in second
        )
        third = sample_device_batches(sampler, chunks, 0, cache)
        assert all(a is b for a, b in zip(second, third))
        assert len(cache) == 1
        assert cache.stats.to_dict() == {
            # lookups: miss, hit, hit; splits: none counted on the miss,
            # 4 restrictions on the first hit, 4 stored hits on the second
            "hits": 2 + 4, "restrictions": 4, "misses": 1, "evictions": 0,
        }
        for chunk, mb in zip(chunks, third):
            assert_batches_identical(mb, sampler.sample(chunk, epoch=0))

    def test_second_use_of_a_census_entry_stores_splits(self, sampler):
        seeds = np.arange(0, 300, 3)
        chunks = split_evenly(seeds, 3)
        cache = SampleCache()
        cache.sample(sampler, seeds, epoch=0)  # the census pass
        planned = sample_device_batches(sampler, chunks, 0, cache)
        trained = sample_device_batches(sampler, chunks, 0, cache)
        assert all(a is b for a, b in zip(planned, trained))
        assert cache.stats.misses == 1 and cache.stats.restrictions == 3

    def test_split_bytes_stay_within_budget_under_eviction(self, sampler):
        probe = SampleCache()
        seeds = np.arange(0, 400, 4)
        chunks = split_evenly(seeds, 4)
        probe.sample(sampler, seeds, epoch=0)
        full = probe._bytes + sum(
            mb.nbytes() for mb in sample_device_batches(sampler, chunks, 0, probe)
        )
        cache = SampleCache(max_bytes=int(2.5 * full))
        for epoch in range(8):
            for _ in range(3):
                sample_device_batches(sampler, chunks, epoch, cache)
                assert cache._bytes <= cache.max_bytes
                assert cache._bytes == cache._kind_bytes["train"]
        assert cache.stats.evictions > 0
        assert len(cache) <= 2

    def test_split_that_would_outgrow_the_pool_is_not_stored(self, sampler):
        seeds = np.arange(0, 400, 4)
        chunks = split_evenly(seeds, 4)
        union_bytes = SampleCache().sample(sampler, seeds).nbytes()
        cache = SampleCache(max_bytes=union_bytes + 8)
        for _ in range(3):
            got = sample_device_batches(sampler, chunks, 0, cache)
            assert cache._bytes == union_bytes
        for chunk, mb in zip(chunks, got):
            assert_batches_identical(mb, sampler.sample(chunk, epoch=0))
