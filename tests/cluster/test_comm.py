"""Tests for the simulated collective communication operators."""

import numpy as np
import pytest

from repro.cluster import Communicator, Timeline, multi_machine_cluster, single_machine_cluster
from repro.cluster.spec import parse_cluster_spec
from repro.tensor import Tensor
from tests.host_reference import charge_pairwise_rebuild


def make_comm(cluster):
    t = Timeline(cluster.num_devices)
    return Communicator(cluster, t), t


class TestAlltoallBytes:
    def test_diagonal_free(self):
        cluster = single_machine_cluster(2)
        comm, t = make_comm(cluster)
        B = np.diag([1e9, 1e9])
        comm.alltoall_bytes(B, "shuffle")
        assert t.device_phase_seconds(0, "shuffle") == 0.0

    def test_symmetric_charge(self):
        cluster = single_machine_cluster(2)
        comm, t = make_comm(cluster)
        B = np.array([[0.0, 12e9], [12e9, 0.0]])
        comm.alltoall_bytes(B, "shuffle")
        # Each device sends and receives 12 GB over 12 GB/s PCIe -> ~1 s.
        assert t.device_phase_seconds(0, "shuffle") == pytest.approx(1.0, rel=0.01)
        assert t.device_phase_seconds(1, "shuffle") == pytest.approx(1.0, rel=0.01)

    def test_inter_machine_slower_than_intra(self):
        # With several GPUs sharing the NIC, the effective inter-machine
        # bandwidth per GPU drops well below PCIe.
        single = single_machine_cluster(2)
        multi = multi_machine_cluster(2, 2)
        B4 = np.zeros((4, 4))
        B4[0, 2] = 1e9
        B = np.array([[0.0, 1e9], [0.0, 0.0]])
        c1, t1 = make_comm(single)
        c2, t2 = make_comm(multi)
        c1.alltoall_bytes(B, "shuffle")
        c2.alltoall_bytes(B4, "shuffle")
        assert t2.device_phase_seconds(0, "shuffle") >= t1.device_phase_seconds(
            0, "shuffle"
        )

    def test_shape_validated(self):
        comm, _ = make_comm(single_machine_cluster(3))
        with pytest.raises(ValueError):
            comm.alltoall_bytes(np.zeros((2, 2)), "shuffle")


class TestAllgatherBytes:
    def test_broadcast_charges_everyone(self):
        comm, t = make_comm(single_machine_cluster(4))
        comm.allgather_bytes([1e9, 0, 0, 0], "sample")
        # Device 0 sends to 3 peers; peers each receive 1 GB.
        assert t.device_phase_seconds(0, "sample") > 0
        assert t.device_phase_seconds(1, "sample") > 0

    def test_wrong_length_rejected(self):
        comm, _ = make_comm(single_machine_cluster(4))
        with pytest.raises(ValueError):
            comm.allgather_bytes([1.0, 2.0], "sample")


class TestAlltoallTensors:
    def test_transposes_grid(self):
        comm, _ = make_comm(single_machine_cluster(2))
        grid = [[Tensor(np.zeros(1)), Tensor(np.ones(1))],
                [Tensor(np.full(1, 2.0)), Tensor(np.full(1, 3.0))]]
        out = comm.alltoall_tensors(grid, "shuffle")
        assert out[1][0] is grid[0][1]
        assert out[0][1] is grid[1][0]

    def test_backward_doubles_charge(self):
        cluster = single_machine_cluster(2)
        grid = [[None, Tensor(np.zeros(1_000_000))], [None, None]]
        c1, t1 = make_comm(cluster)
        c1.alltoall_tensors([row[:] for row in grid], "shuffle", count_backward=False)
        c2, t2 = make_comm(cluster)
        c2.alltoall_tensors([row[:] for row in grid], "shuffle", count_backward=True)
        s1 = t1.device_phase_seconds(0, "shuffle")
        s2 = t2.device_phase_seconds(0, "shuffle")
        # Bandwidth component doubles; latency component does not.
        assert s2 > 1.5 * s1

    def test_grid_shape_validated(self):
        comm, _ = make_comm(single_machine_cluster(2))
        with pytest.raises(ValueError):
            comm.alltoall_tensors([[None]], "shuffle")


class TestScatterReduce:
    def test_sums_contributions_with_grad(self):
        comm, _ = make_comm(single_machine_cluster(2))
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.full(3, 2.0), requires_grad=True)
        grid = [[a, None], [b, None]]
        out = comm.scatter_reduce(grid, "shuffle")
        np.testing.assert_allclose(out[0].data, np.full(3, 3.0))
        assert out[1] is None
        out[0].sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))
        np.testing.assert_allclose(b.grad, np.ones(3))

    def test_charges_off_diagonal_only(self):
        comm, t = make_comm(single_machine_cluster(2))
        big = Tensor(np.zeros(1_000_000))
        comm.scatter_reduce([[big, None], [None, None]], "shuffle")
        assert t.device_phase_seconds(0, "shuffle") == 0.0


class TestGradientSync:
    def test_single_device_free(self):
        comm, t = make_comm(single_machine_cluster(1))
        comm.allreduce_gradient_sync(1e9)
        assert t.device_phase_seconds(0, "train") == 0.0

    def test_multi_machine_uses_network(self):
        c_multi, t_multi = make_comm(multi_machine_cluster(2, 2))
        c_single, t_single = make_comm(single_machine_cluster(4))
        c_multi.allreduce_gradient_sync(1e9)
        c_single.allreduce_gradient_sync(1e9)
        assert t_multi.device_phase_seconds(0, "train") > t_single.device_phase_seconds(
            0, "train"
        )

    def test_charged_to_all_devices(self):
        comm, t = make_comm(single_machine_cluster(4))
        comm.allreduce_gradient_sync(1e9)
        times = {t.device_phase_seconds(d, "train") for d in range(4)}
        assert len(times) == 1 and times.pop() > 0


class TestCommunicatorValidation:
    def test_timeline_device_mismatch(self):
        cluster = single_machine_cluster(2)
        with pytest.raises(ValueError):
            Communicator(cluster, Timeline(3))


class TestCachedConstants:
    """Constants built once in ``__init__`` plus whole-matrix sums must
    charge exactly what the per-call rebuild with a per-device loop did."""

    @pytest.mark.parametrize(
        "spec", ["1x2:a100,1x2:t4", "1x4", "2x4", "1x2:a100,1x4:t4"]
    )
    def test_charges_equal_a_per_call_rebuild(self, spec):
        cluster = parse_cluster_spec(spec)
        C = cluster.num_devices
        rng = np.random.default_rng(C)
        for trial in range(40):
            # integer byte counts, some pairs silent, up to 2^40 bytes
            B = rng.integers(0, 2 ** rng.integers(1, 41), size=(C, C))
            B = (B * (rng.random((C, C)) < 0.7)).astype(np.float64)
            factor = (1.0, 2.0)[trial % 2]
            comm, t = make_comm(cluster)
            comm._charge_pairwise(B, "shuffle", factor)
            ref_comm, ref = make_comm(cluster)
            charge_pairwise_rebuild(ref_comm, B, "shuffle", factor)
            for d in range(C):
                assert t.device_phase_seconds(d, "shuffle") == ref.device_phase_seconds(
                    d, "shuffle"
                )
