"""Tests for the execution context and volume recorder."""

import numpy as np
import pytest

from repro.cluster import single_machine_cluster
from repro.engine.context import ExecutionContext, VolumeRecorder
from repro.featurestore.store import TIERS, Tier, UnifiedFeatureStore
from repro.graph.datasets import small_dataset
from repro.models import GraphSAGE


class TestVolumeRecorder:
    def test_hidden_bytes_matrix(self):
        rec = VolumeRecorder(3)
        rec.record_hidden(0, 1, 100.0)
        rec.record_hidden(0, 2, 50.0)
        rec.record_hidden(1, 1, 999.0)  # diagonal ignored
        assert rec.hidden_bytes[0, 1] == 100.0
        assert rec.hidden_bytes[1, 1] == 0.0
        np.testing.assert_allclose(rec.hidden_send_bytes, [150.0, 0.0, 0.0])
        np.testing.assert_allclose(rec.hidden_bytes.sum(axis=0), [0.0, 100.0, 50.0])
        assert rec.total_hidden_bytes() == 150.0

    def test_load_rows_accumulate(self):
        ds = small_dataset(n=50, feature_dim=4, num_classes=2)
        store = UnifiedFeatureStore(ds, single_machine_cluster(2))
        store.configure_caches([np.arange(10), np.empty(0, np.int64)])
        rec = VolumeRecorder(2)
        rec.record_loads(store.classify([np.arange(15), None]))
        rec.record_loads(store.classify([np.arange(20, 23), np.arange(4)]))
        local, gpu = TIERS.index(Tier.LOCAL_CPU), TIERS.index(Tier.GPU_CACHE)
        assert rec.load_rows[0, local] == 8.0
        assert rec.load_rows[1, local] == 4.0
        assert rec.total_load_rows(Tier.GPU_CACHE) == rec.load_rows[0, gpu] == 10.0

    def test_structure_bytes(self):
        rec = VolumeRecorder(2)
        rec.record_structure(0, 64.0)
        rec.record_structure(1, 32.0)
        assert rec.structure_send_bytes.sum() == 96.0

    def test_intermediate_is_peak_not_sum(self):
        rec = VolumeRecorder(1)
        rec.record_intermediate(0, 100.0)
        rec.record_intermediate(0, 40.0)
        assert rec.peak_intermediate_bytes[0] == 100.0

    def test_message_pattern_counts_both_directions(self):
        rec = VolumeRecorder(3)
        pattern = np.zeros((3, 3))
        pattern[0, 1] = 1.0
        pattern[2, 1] = 1.0
        rec.record_message_pattern(pattern, calls=2)
        # device 0: 1 send; device 1: 2 recvs; device 2: 1 send — x2 calls.
        np.testing.assert_allclose(rec.shuffle_messages, [2.0, 4.0, 2.0])

    def test_message_pattern_ignores_diagonal(self):
        rec = VolumeRecorder(2)
        rec.record_message_pattern(np.eye(2))
        np.testing.assert_allclose(rec.shuffle_messages, 0.0)

    def test_layer1_flops(self):
        rec = VolumeRecorder(2)
        rec.record_layer1_flops(1, 5.0)
        rec.record_layer1_flops(1, 2.0)
        np.testing.assert_allclose(rec.layer1_flops, [0.0, 7.0])


class TestExecutionContextBuild:
    def test_build_wires_components(self):
        ds = small_dataset(n=300, feature_dim=8, num_classes=2)
        cluster = single_machine_cluster(2)
        model = GraphSAGE(8, 4, 2, 2, seed=0)
        ctx = ExecutionContext.build(ds, cluster, model, [3, 3])
        assert ctx.num_devices == 2
        assert ctx.timeline.num_devices == 2
        assert ctx.comm.cluster is cluster
        assert ctx.sampler.graph is ds.graph
        assert ctx.numerics and not ctx.timeline.overlap

    def test_build_overlap_flag_propagates(self):
        ds = small_dataset(n=300, feature_dim=8, num_classes=2)
        cluster = single_machine_cluster(2)
        model = GraphSAGE(8, 4, 2, 2, seed=0)
        ctx = ExecutionContext.build(ds, cluster, model, [3, 3], overlap=True)
        assert ctx.timeline.overlap
