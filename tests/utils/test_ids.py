"""The sorted id-set primitive: equal to ``np.unique``, and its aliasing
contract at the two callers that store its result."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import single_machine_cluster
from repro.featurestore import UnifiedFeatureStore
from repro.graph.datasets import small_dataset
from repro.sampling import EpochIterator
from repro.utils.ids import sorted_unique


def _assert_same_as_np_unique(a):
    got, want = sorted_unique(a), np.unique(a)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("size", [0, 1, 40, 3_000, 13_000])
@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_matches_np_unique_at_measured_sizes(size, dtype):
    rng = np.random.default_rng(size)
    # duplicates (ids drawn from a range half the size) and negative ids
    a = rng.integers(-size // 4 - 1, size // 2 + 1, size=size).astype(dtype)
    _assert_same_as_np_unique(a)
    _assert_same_as_np_unique(np.unique(a))          # strictly increasing
    _assert_same_as_np_unique(np.sort(a))            # sorted, with repeats


@given(st.lists(st.integers(min_value=-2**62, max_value=2**62), max_size=200))
@settings(max_examples=200, deadline=None)
def test_property_equals_np_unique(values):
    _assert_same_as_np_unique(np.array(values, dtype=np.int64))


def test_strictly_increasing_input_is_returned_uncopied():
    a = np.array([2, 5, 11], dtype=np.int64)
    assert sorted_unique(a) is a
    b = np.array([5, 2, 2], dtype=np.int64)
    out = sorted_unique(b)
    assert out is not b and not np.shares_memory(out, b)


class TestCallersThatStoreTheResult:
    """``sorted_unique`` may return its argument; a caller that keeps the
    result must not alias the array its own caller passed in."""

    def test_epoch_iterator_seeds_survive_caller_mutation(self):
        seeds = np.arange(0, 200, 2, dtype=np.int64)   # strictly increasing
        it = EpochIterator(seeds, 32, shuffle_seed=3)
        before = it.epoch_batches(0)
        seeds[:] = -1
        assert np.array_equal(it.seeds, np.arange(0, 200, 2))
        after = it.epoch_batches(0)
        assert all(np.array_equal(x, y) for x, y in zip(before, after))

    def test_shared_gather_union_survives_caller_mutation(self):
        ds = small_dataset(n=300, feature_dim=4, num_classes=2)
        store = UnifiedFeatureStore(ds, single_machine_cluster(2))
        ids = np.array([3, 8, 21, 40], dtype=np.int64)  # strictly increasing
        assert store.begin_shared_gather([ids]) == (4, 4)
        try:
            staged = store.shared_rows().copy()
            ids[:] = [0, 1, 2, 5]
            pos = store.shared_positions(np.array([3, 8, 21, 40]))
            assert pos is not None and np.array_equal(pos, np.arange(4))
            assert store.shared_positions(ids) is None
            assert np.array_equal(store.shared_rows(), staged)
        finally:
            store.end_shared_gather()
