"""Tests for epoch iteration over seed batches."""

import numpy as np
import pytest

from repro.sampling import EpochIterator


class TestEpochIterator:
    def test_covers_all_seeds(self):
        seeds = np.arange(100)
        it = EpochIterator(seeds, 32)
        got = np.sort(np.concatenate(it.epoch_batches(0)))
        np.testing.assert_array_equal(got, seeds)

    def test_batch_sizes(self):
        it = EpochIterator(np.arange(100), 32)
        sizes = [len(b) for b in it.epoch_batches(0)]
        assert sizes == [32, 32, 32, 4]
        assert it.num_batches() == 4

    def test_epoch_changes_order(self):
        it = EpochIterator(np.arange(1000), 100, shuffle_seed=1)
        a = it.epoch_batches(0)[0]
        b = it.epoch_batches(1)[0]
        assert not np.array_equal(a, b)

    def test_deterministic_per_epoch(self):
        it1 = EpochIterator(np.arange(1000), 100, shuffle_seed=1)
        it2 = EpochIterator(np.arange(1000), 100, shuffle_seed=1)
        np.testing.assert_array_equal(
            it1.epoch_batches(3)[0], it2.epoch_batches(3)[0]
        )

    def test_duplicate_seeds_removed(self):
        it = EpochIterator(np.array([5, 5, 7]), 10)
        assert it.seeds.size == 2

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            EpochIterator(np.array([], dtype=np.int64), 10)

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError):
            EpochIterator(np.arange(10), 0)
