"""Tests for hardware specs and cluster presets."""

import pytest

from repro.cluster import (
    DeviceSpec,
    LinkSpec,
    MachineSpec,
    multi_machine_cluster,
    single_machine_cluster,
)


class TestDeviceSpec:
    def test_dense_seconds(self):
        d = DeviceSpec(peak_flops=1e12, compute_efficiency=0.5)
        assert d.dense_seconds(5e11) == pytest.approx(1.0)

    def test_memory_bound_seconds(self):
        d = DeviceSpec(mem_bandwidth=100e9)
        assert d.memory_bound_seconds(100e9) == pytest.approx(1.0)

    def test_t4_defaults(self):
        d = DeviceSpec()
        assert d.name == "T4"
        assert d.memory_bytes == pytest.approx(16e9)


class TestLinkSpec:
    def test_seconds_with_latency(self):
        link = LinkSpec(bandwidth=1e9, latency=1e-3)
        assert link.seconds(1e9, messages=2) == pytest.approx(1.002)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec(bandwidth=0.0).seconds(10)


class TestMachineSpec:
    def test_peer_link_without_nvlink_is_pcie(self):
        m = MachineSpec()
        assert m.gpu_peer_link() is m.pcie

    def test_peer_link_with_nvlink(self):
        nv = LinkSpec(bandwidth=300e9)
        m = MachineSpec(nvlink=nv)
        assert m.gpu_peer_link() is nv


class TestClusterSpec:
    def test_single_machine_preset(self):
        c = single_machine_cluster(8)
        assert c.num_machines == 1
        assert c.num_devices == 8
        assert c.machine_of(7) == 0

    def test_multi_machine_preset(self):
        c = multi_machine_cluster(4, 4)
        assert c.num_machines == 4
        assert c.num_devices == 16
        assert c.machine_of(0) == 0
        assert c.machine_of(4) == 1
        assert c.machine_of(15) == 3

    def test_same_machine(self):
        c = multi_machine_cluster(2, 2)
        assert c.machine_of(0) == c.machine_of(1)
        assert c.machine_of(1) != c.machine_of(2)

    def test_devices_of_machine(self):
        c = multi_machine_cluster(2, 3)
        assert c.devices_of_machine(1) == [3, 4, 5]

    def test_device_out_of_range(self):
        with pytest.raises(IndexError):
            single_machine_cluster(2).machine_of(5)

    def test_nic_shared_per_gpu(self):
        c = multi_machine_cluster(2, 4)
        per_gpu = c.inter_machine_link_per_gpu(0)
        assert per_gpu.bandwidth == pytest.approx(c.network.bandwidth / 4)

    def test_with_cache(self):
        c = single_machine_cluster(4).with_cache(123.0)
        assert c.gpu_cache_bytes == 123.0
        assert c.num_devices == 4


class TestMembershipTransforms:
    """ClusterSpec transform composition (DESIGN.md §5.16): membership
    changes re-index devices positionally and compose with the existing
    with_machine/with_network/with_cache transforms."""

    def test_without_machine_reindexes_devices(self):
        c = multi_machine_cluster(3, 2)
        shrunk = c.without_machine(1)
        assert shrunk.num_machines == 2
        assert shrunk.num_devices == 4
        # the old machine 2's GPUs re-index down to devices 2..3
        assert shrunk.machine_of(2) == 1
        assert shrunk.machine_of(3) == 1
        assert shrunk.devices_of_machine(1) == [2, 3]
        with pytest.raises(IndexError):
            shrunk.machine_of(4)

    def test_without_machine_validation(self):
        c = multi_machine_cluster(2, 2)
        with pytest.raises(IndexError):
            c.without_machine(2)
        with pytest.raises(ValueError):
            single_machine_cluster(4).without_machine(0)

    def test_with_joined_machine_appends_clone(self):
        c = multi_machine_cluster(2, 2)
        grown = c.with_joined_machine()
        assert grown.num_machines == 3
        assert grown.num_devices == 6
        assert grown.machines[-1] == c.machines[0]
        assert grown.machine_of(4) == 2
        assert grown.devices_of_machine(2) == [4, 5]

    def test_with_joined_machine_insertion_index(self):
        c = multi_machine_cluster(2, 2)
        fat = MachineSpec(num_gpus=4)
        grown = c.with_joined_machine(machine=fat, index=0)
        assert grown.machines[0] is fat
        # the original machines' devices shift up by the joiner's GPUs
        assert grown.machine_of(0) == 0
        assert grown.machine_of(4) == 1
        assert grown.devices_of_machine(2) == [6, 7]
        with pytest.raises(IndexError):
            c.with_joined_machine(index=3)

    def test_shrink_grow_roundtrip(self):
        c = multi_machine_cluster(2, 2)
        back = c.without_machine(1).with_joined_machine(
            machine=c.machines[1], index=1
        )
        assert back == c

    def test_membership_composes_with_other_transforms(self):
        c = multi_machine_cluster(3, 2, gpu_cache_bytes=1e6)
        slow_net = LinkSpec(bandwidth=1e9, latency=1e-4)
        out = (
            c.with_network(slow_net)
            .without_machine(0)
            .with_cache(5e5)
            .with_joined_machine()
        )
        assert out.network == slow_net
        assert out.gpu_cache_bytes == 5e5
        assert out.num_machines == 3
        # with_machine still enforces the GPU-count invariant afterwards
        with pytest.raises(ValueError):
            out.with_machine(0, MachineSpec(num_gpus=5))

    def test_planner_cost_deltas_track_membership(self):
        # The cost model must see the shrunken/grown device set: fewer
        # devices -> more seeds (and simulated work) per device.
        from repro.config import APTConfig
        from repro.core.apt import APT
        from repro.graph.datasets import small_dataset
        from repro.models import GraphSAGE

        ds = small_dataset(n=600, feature_dim=8, num_classes=4, seed=3)
        totals = {}
        for machines in (1, 2):
            cluster = multi_machine_cluster(machines, 2)
            apt = APT(
                ds,
                GraphSAGE(8, 8, 4, 2, seed=1),
                cluster,
                APTConfig(fanouts=(4, 4), global_batch_size=128, seed=0),
            )
            report = apt.plan()
            totals[machines] = {
                name: est.total for name, est in report.estimates.items()
            }
        for name in totals[1]:
            assert totals[1][name] != totals[2][name]
            assert totals[1][name] > 0.0 and totals[2][name] > 0.0
        # The single-machine cluster pays no cross-machine communication,
        # so every strategy's estimate drops when machine 1 leaves.
        for name in totals[1]:
            assert totals[1][name] < totals[2][name]
