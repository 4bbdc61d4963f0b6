"""Tests for the unified feature store (tiering, accounting, charging)."""

import numpy as np
import pytest

from repro.cluster import (
    LinkSpec,
    MachineSpec,
    ClusterSpec,
    Timeline,
    multi_machine_cluster,
    single_machine_cluster,
)
from repro.featurestore import TIERS, Tier, UnifiedFeatureStore
from repro.graph.datasets import small_dataset


def classify(store, device, ids):
    """``device``'s load set classified alone (no other device reads):
    its ids per tier, from the batch split's rows."""
    split = store.classify([None] * device + [ids])
    own = slice(split.ptr[device], split.ptr[device + 1])
    ids, tiers = split.node_ids[own], split.tiers[own]
    return {t: ids[tiers == col] for col, t in enumerate(TIERS)}


@pytest.fixture(scope="module")
def ds():
    return small_dataset(n=400, feature_dim=8, num_classes=2)


class TestClassification:
    def test_gpu_cache_hit(self, ds):
        cluster = single_machine_cluster(2)
        store = UnifiedFeatureStore(ds, cluster)
        store.configure_caches([np.array([1, 2, 3]), np.array([], dtype=np.int64)])
        split = classify(store, 0, np.array([1, 2, 50]))
        np.testing.assert_array_equal(split[Tier.GPU_CACHE], [1, 2])
        np.testing.assert_array_equal(split[Tier.LOCAL_CPU], [50])

    def test_no_peer_tier_without_nvlink(self, ds):
        """The T4 platform has no NVLink, so peer caches are unreachable."""
        cluster = single_machine_cluster(2)
        store = UnifiedFeatureStore(ds, cluster)
        store.configure_caches([np.array([], dtype=np.int64), np.array([7])])
        split = classify(store, 0, np.array([7]))
        assert split[Tier.PEER_GPU].size == 0
        np.testing.assert_array_equal(split[Tier.LOCAL_CPU], [7])

    def test_peer_tier_with_nvlink(self, ds):
        nv = LinkSpec(bandwidth=300e9)
        cluster = ClusterSpec(machines=(MachineSpec(num_gpus=2, nvlink=nv),))
        store = UnifiedFeatureStore(ds, cluster)
        store.configure_caches([np.array([], dtype=np.int64), np.array([7])])
        split = classify(store, 0, np.array([7]))
        np.testing.assert_array_equal(split[Tier.PEER_GPU], [7])

    def test_remote_cpu_tier(self, ds):
        cluster = multi_machine_cluster(2, 1)
        machine = np.zeros(ds.num_nodes, dtype=np.int64)
        machine[100:] = 1
        store = UnifiedFeatureStore(ds, cluster, node_machine=machine)
        store.configure_caches([np.empty(0, np.int64)] * 2)
        split = classify(store, 0, np.array([5, 150]))
        np.testing.assert_array_equal(split[Tier.LOCAL_CPU], [5])
        np.testing.assert_array_equal(split[Tier.REMOTE_CPU], [150])


def _charge(store, device, ids, timeline=None):
    """One device-batch's accounting: classify once, charge the device's row."""
    split = store.classify([None] * device + [ids])
    return store.charge_load(device, split[device], timeline)


class TestRead:
    def test_returns_correct_rows(self, ds):
        cluster = single_machine_cluster(1)
        store = UnifiedFeatureStore(ds, cluster)
        ids = np.array([3, 9, 3])
        np.testing.assert_array_equal(store.read(ids), ds.features[ids])
        assert sum(_charge(store, 0, ids).rows.values()) == 3

    def test_charges_timeline(self, ds):
        cluster = single_machine_cluster(1)
        store = UnifiedFeatureStore(ds, cluster)
        t = Timeline(1)
        _charge(store, 0, np.arange(100), timeline=t)
        assert t.device_phase_seconds(0, "load") > 0

    def test_cache_hits_cheaper_than_cpu(self, ds):
        cluster = single_machine_cluster(1)
        store = UnifiedFeatureStore(ds, cluster)
        cpu_report = _charge(store, 0, np.arange(100))
        store.configure_caches([np.arange(100)])
        hit_report = _charge(store, 0, np.arange(100))
        assert hit_report.seconds < cpu_report.seconds / 10
        assert hit_report.rows[Tier.GPU_CACHE] == sum(hit_report.rows.values()) == 100

    def test_remote_slower_than_local(self, ds):
        cluster = multi_machine_cluster(2, 1)
        machine = np.zeros(ds.num_nodes, dtype=np.int64)
        store_local = UnifiedFeatureStore(ds, cluster, node_machine=machine)
        store_remote = UnifiedFeatureStore(
            ds, cluster, node_machine=np.ones_like(machine)
        )
        rl = _charge(store_local, 0, np.arange(200))
        rr = _charge(store_remote, 0, np.arange(200))
        assert rr.seconds > rl.seconds

    def test_charge_load_matches_read(self, ds):
        """The charge covers exactly the rows read, from the split alone:
        charging one split twice gives the same report."""
        cluster = single_machine_cluster(1)
        store = UnifiedFeatureStore(ds, cluster)
        store.configure_caches([np.arange(50)])
        ids = np.arange(120)
        split = store.classify([ids])
        r1, r2 = store.charge_load(0, split[0]), store.charge_load(0, split[0])
        assert r1.seconds == r2.seconds
        assert r1.rows == r2.rows
        assert sum(r1.rows.values()) == store.read(ids).shape[0]

    def test_dim_fraction_scales_bytes(self, ds):
        cluster = single_machine_cluster(2)
        store = UnifiedFeatureStore(ds, cluster)
        store.configure_caches([np.empty(0, np.int64)] * 2, dim_fraction=0.5)
        r = _charge(store, 0, np.arange(10))
        assert r.bytes[Tier.LOCAL_CPU] == 10 * ds.feature_dim * 8 * 0.5


class TestValidation:
    def test_wrong_machine_assignment_rejected(self, ds):
        cluster = single_machine_cluster(1)
        with pytest.raises(ValueError):
            UnifiedFeatureStore(
                ds, cluster, node_machine=np.full(ds.num_nodes, 3)
            )

    def test_wrong_cache_count_rejected(self, ds):
        store = UnifiedFeatureStore(ds, single_machine_cluster(2))
        with pytest.raises(ValueError):
            store.configure_caches([np.array([0])])

    def test_bad_dim_fraction_rejected(self, ds):
        store = UnifiedFeatureStore(ds, single_machine_cluster(1))
        with pytest.raises(ValueError):
            store.configure_caches([np.array([0])], dim_fraction=0.0)



class TestClassifyPeerGather:
    """Regression pin for the peer-cache lookup in ``classify``.

    The one-pass lookup reads each machine's "some device caches it" row;
    the original chained indexing (``self._cached[peers][:, rest]``) asked
    every peer's cache row.  Both must agree exactly — order, duplicates,
    and all five tiers — under NVLink with multiple peers.
    """

    def _reference_classify(self, store, device, node_ids):
        """The pre-optimization tier split, chained indexing and all."""
        node_ids = np.asarray(node_ids, dtype=np.int64)
        out = {}
        own_hit = store._cached[device, node_ids]
        out[Tier.GPU_CACHE] = node_ids[own_hit]
        rest = node_ids[~own_hit]
        machine = store.cluster.machine_of(device)
        mspec = store.cluster.machine_spec(device)
        if mspec.nvlink is not None and rest.size:
            peers = [
                d
                for d in store.cluster.devices_of_machine(machine)
                if d != device
            ]
            if peers:
                peer_hit = store._cached[peers][:, rest].any(axis=0)
            else:
                peer_hit = np.zeros(rest.size, dtype=bool)
            out[Tier.PEER_GPU] = rest[peer_hit]
            rest = rest[~peer_hit]
        else:
            out[Tier.PEER_GPU] = np.empty(0, dtype=np.int64)
        # In-RAM stores have no disk tier; classify still reports it (empty).
        out[Tier.DISK] = np.empty(0, dtype=np.int64)
        local = store.node_machine[rest] == machine
        out[Tier.LOCAL_CPU] = rest[local]
        out[Tier.REMOTE_CPU] = rest[~local]
        return out

    def test_matches_chained_indexing_reference(self, ds):
        nv = LinkSpec(bandwidth=300e9)
        cluster = ClusterSpec(machines=(MachineSpec(num_gpus=4, nvlink=nv),))
        store = UnifiedFeatureStore(ds, cluster)
        rng = np.random.default_rng(0)
        store.configure_caches(
            [rng.choice(ds.num_nodes, size=60, replace=False) for _ in range(4)]
        )
        for device in range(4):
            ids = rng.integers(0, ds.num_nodes, size=500)  # with duplicates
            got = classify(store, device, ids)
            want = self._reference_classify(store, device, ids)
            assert set(got) == set(want) == set(Tier)
            for tier in Tier:
                np.testing.assert_array_equal(got[tier], want[tier])

    def test_matches_reference_multi_machine_nvlink(self, ds):
        nv = LinkSpec(bandwidth=300e9)
        cluster = ClusterSpec(
            machines=(
                MachineSpec(num_gpus=2, nvlink=nv),
                MachineSpec(num_gpus=2, nvlink=nv),
            )
        )
        machine = np.zeros(ds.num_nodes, dtype=np.int64)
        machine[ds.num_nodes // 2 :] = 1
        store = UnifiedFeatureStore(ds, cluster, node_machine=machine)
        rng = np.random.default_rng(1)
        store.configure_caches(
            [rng.choice(ds.num_nodes, size=40, replace=False) for _ in range(4)]
        )
        for device in range(4):
            ids = rng.integers(0, ds.num_nodes, size=300)
            got = classify(store, device, ids)
            want = self._reference_classify(store, device, ids)
            for tier in Tier:
                np.testing.assert_array_equal(got[tier], want[tier])
