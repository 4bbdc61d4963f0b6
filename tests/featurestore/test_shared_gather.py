"""Shared-gather dedup: staged union, accounting invariance, laziness.

One global batch's per-device requests are materialized once as the sorted
unique union (GDP's layers read it through ``shared_positions``).  Reads
inside the scope — of a subset, of ids outside the union, of nothing —
must be bit-identical to ``features[ids]``, and tier charging must not
change at all.
"""

import numpy as np
import pytest

from repro.cluster import Timeline, single_machine_cluster
from repro.featurestore import Tier, UnifiedFeatureStore
from repro.graph.datasets import small_dataset


@pytest.fixture(scope="module")
def ds():
    return small_dataset(n=400, feature_dim=8, num_classes=2)


@pytest.fixture()
def store(ds):
    cluster = single_machine_cluster(2)
    s = UnifiedFeatureStore(ds, cluster)
    s.configure_caches(
        [np.arange(50), np.array([], dtype=np.int64)]
    )
    return s


def test_begin_returns_row_counts(store):
    shared = store.begin_shared_gather(
        [np.array([3, 1, 7]), None, np.array([7, 2])]
    )
    try:
        assert shared == (5, 4)  # 5 requested rows, union {1, 2, 3, 7}
    finally:
        store.end_shared_gather()


def test_begin_with_no_requests_returns_none(store):
    assert store.begin_shared_gather([None, np.empty(0, np.int64)]) is None
    # No scope was opened; reads behave normally.
    rows = store.read(np.array([5]))
    assert np.array_equal(rows, store.dataset.features[[5]])


def test_subset_read_matches_direct_gather(store, ds):
    store.begin_shared_gather([np.array([4, 8, 15]), np.array([8, 16, 23, 42])])
    try:
        for req in ([15, 4], [42, 8, 8, 16], [23]):
            ids = np.array(req)
            rows = store.read(ids)
            assert np.array_equal(rows, ds.features[ids])
    finally:
        store.end_shared_gather()


def test_ids_outside_union_fall_back_to_direct_gather(store, ds):
    store.begin_shared_gather([np.array([4, 8])])
    try:
        ids = np.array([4, 300])  # 300 not staged
        rows = store.read(ids)
        assert np.array_equal(rows, ds.features[ids])
        # Also ids beyond the union's last entry (searchsorted edge).
        ids = np.array([399])
        rows = store.read(ids)
        assert np.array_equal(rows, ds.features[ids])
    finally:
        store.end_shared_gather()


def test_empty_read_inside_scope(store):
    store.begin_shared_gather([np.array([4, 8])])
    try:
        empty = np.empty(0, np.int64)
        assert store.read(empty).shape[0] == 0
        report = store.charge_load(0, store.classify([empty])[0])
        assert sum(report.rows.values()) == 0
    finally:
        store.end_shared_gather()


def test_charging_is_identical_inside_and_outside_scope(store, ds):
    ids = np.array([3, 60, 200])  # cache hit + cpu rows
    tl_plain = Timeline(store.cluster.num_devices)
    rep_plain = store.charge_load(0, store.classify([ids])[0], tl_plain)

    store.begin_shared_gather([ids, np.array([60, 399])])
    try:
        tl_shared = Timeline(store.cluster.num_devices)
        rep_shared = store.charge_load(0, store.classify([ids])[0], tl_shared)
        rows = store.read(ids)
    finally:
        store.end_shared_gather()

    assert rep_plain.rows == rep_shared.rows
    assert rep_plain.bytes == rep_shared.bytes
    assert rep_plain.seconds == rep_shared.seconds
    assert tl_plain.wall_seconds == tl_shared.wall_seconds
    assert np.array_equal(rows, ds.features[ids])


def test_end_clears_state(store, ds):
    store.begin_shared_gather([np.array([1, 2])])
    store.end_shared_gather()
    assert store._shared_uniq is None and store._shared_rows is None
    rows = store.read(np.array([1, 2]))
    assert np.array_equal(rows, ds.features[[1, 2]])
    store.end_shared_gather()  # idempotent


# ---------------------------------------------------------------------- #
# LoadReport laziness
# ---------------------------------------------------------------------- #
def test_loadreport_starts_empty():
    from repro.featurestore.store import LoadReport

    r = LoadReport()
    assert r.rows == {} and r.bytes == {}


def test_charged_report_exposes_all_tiers(store):
    rep = store.charge_load(0, store.classify([np.array([3, 60])])[0])
    assert set(rep.rows) == set(Tier)
