"""Tests for the fault-injection layer (repro.cluster.faults)."""

import pytest

from repro.cluster import multi_machine_cluster
from repro.cluster.faults import (
    FAULT_KINDS,
    MEMBERSHIP_KINDS,
    FaultEvent,
    FaultSchedule,
)


@pytest.fixture
def base():
    return multi_machine_cluster(2, 2, gpu_cache_bytes=1e6)


class TestFaultEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(epoch=-1, kind="link_degrade")
        with pytest.raises(ValueError):
            FaultEvent(epoch=0, kind="meteor_strike")
        with pytest.raises(ValueError):
            FaultEvent(epoch=0, kind="link_degrade", factor=0.0)
        with pytest.raises(ValueError):
            FaultEvent(epoch=0, kind="straggler", factor=0.5)  # no machine

    def test_link_degrade_scales_network_only(self, base):
        deg = FaultEvent(epoch=0, kind="link_degrade", factor=0.1).apply(base)
        assert deg.network.bandwidth == pytest.approx(base.network.bandwidth * 0.1)
        assert deg.network.latency == base.network.latency
        assert deg.machines == base.machines
        assert deg.gpu_cache_bytes == base.gpu_cache_bytes

    def test_straggler_slows_one_machine(self, base):
        slow = FaultEvent(
            epoch=0, kind="straggler", factor=0.5, machine=1
        ).apply(base)
        d0, d1 = slow.machines[0].device, slow.machines[1].device
        b1 = base.machines[1].device
        assert d1.compute_efficiency == pytest.approx(b1.compute_efficiency * 0.5)
        assert d1.sampling_edges_per_sec == pytest.approx(
            b1.sampling_edges_per_sec * 0.5
        )
        assert d0 == base.machines[0].device
        assert slow.num_devices == base.num_devices

    def test_cache_shrink(self, base):
        small = FaultEvent(epoch=0, kind="cache_shrink", factor=0.25).apply(base)
        assert small.gpu_cache_bytes == pytest.approx(base.gpu_cache_bytes * 0.25)

    def test_to_dict_roundtrips_through_schedule(self):
        e = FaultEvent(epoch=2, kind="straggler", factor=0.5, machine=1)
        assert FaultEvent(**e.to_dict()) == e


class TestFaultSchedule:
    def test_cluster_at_is_cumulative(self, base):
        sched = FaultSchedule(
            [
                FaultEvent(epoch=1, kind="link_degrade", factor=0.5),
                FaultEvent(epoch=3, kind="cache_shrink", factor=0.5),
            ]
        )
        assert sched.cluster_at(base, 0) == base
        e1 = sched.cluster_at(base, 1)
        assert e1.network.bandwidth == pytest.approx(base.network.bandwidth * 0.5)
        e3 = sched.cluster_at(base, 4)
        assert e3.network.bandwidth == pytest.approx(base.network.bandwidth * 0.5)
        assert e3.gpu_cache_bytes == pytest.approx(base.gpu_cache_bytes * 0.5)

    def test_recover_resets_to_base(self, base):
        sched = FaultSchedule(
            [
                FaultEvent(epoch=1, kind="link_degrade", factor=0.1),
                FaultEvent(epoch=2, kind="recover"),
            ]
        )
        assert sched.cluster_at(base, 1) != base
        assert sched.cluster_at(base, 2) == base

    def test_events_at(self, base):
        e = FaultEvent(epoch=2, kind="link_degrade", factor=0.5)
        sched = FaultSchedule([e])
        assert sched.events_at(2) == [e]
        assert sched.events_at(1) == [] and sched.events_at(3) == []

    def test_json_roundtrip_string_and_file(self, tmp_path):
        """A schedule's dict is the ``events`` half of an ``--inject``
        payload, given inline or as a file."""
        import json

        from repro.parallel.chaos import split_injections

        sched = FaultSchedule(
            [FaultEvent(epoch=4, kind="straggler", factor=0.5, machine=0)]
        )
        text = json.dumps(sched.to_dict())
        assert split_injections(text)[0].to_dict() == sched.to_dict()
        path = tmp_path / "faults.json"
        path.write_text(text)
        assert split_injections(path)[0].to_dict() == sched.to_dict()
        assert FaultSchedule.from_dict(sched.to_dict()).to_dict() == sched.to_dict()

    def test_validation(self):
        # A schedule is its events: each is validated, and nothing else
        # (no seed, no jitter) can be set.
        with pytest.raises(ValueError):
            FaultSchedule.from_dict({"events": [{"epoch": 0, "kind": "meteor"}]})
        with pytest.raises(TypeError):
            FaultSchedule([], jitter=0.1)

    def test_kinds_constant(self):
        assert set(FAULT_KINDS) == {
            "link_degrade", "straggler", "cache_shrink",
            "host_leave", "host_join", "recover",
        }
        assert set(MEMBERSHIP_KINDS) == {"host_leave", "host_join"}


class TestMembershipEvents:
    def test_host_leave_requires_machine(self):
        with pytest.raises(ValueError):
            FaultEvent(epoch=0, kind="host_leave")

    def test_host_leave_removes_the_machine(self, base):
        shrunk = FaultEvent(epoch=0, kind="host_leave", machine=1).apply(base)
        assert shrunk.num_machines == 1
        assert shrunk.num_devices == base.num_devices - base.machines[1].num_gpus
        assert shrunk == base.without_machine(1)

    def test_host_leave_out_of_range_raises(self, base):
        with pytest.raises(ValueError):
            FaultEvent(epoch=0, kind="host_leave", machine=5).apply(base)

    def test_host_join_appends_a_clone(self, base):
        grown = FaultEvent(epoch=0, kind="host_join").apply(base)
        assert grown.num_machines == base.num_machines + 1
        assert grown.machines[-1] == base.machines[0]

    def test_host_join_factor_scales_the_joiner(self, base):
        grown = FaultEvent(epoch=0, kind="host_join", factor=0.5).apply(base)
        joiner = grown.machines[-1].device
        d0 = base.machines[0].device
        assert joiner.compute_efficiency == pytest.approx(
            d0.compute_efficiency * 0.5
        )
        assert joiner.sampling_edges_per_sec == pytest.approx(
            d0.sampling_edges_per_sec * 0.5
        )

    def test_host_join_insertion_index(self, base):
        grown = FaultEvent(epoch=0, kind="host_join", machine=0).apply(base)
        assert grown.num_machines == base.num_machines + 1
        assert grown.machines[0] == base.machines[0]

    def test_leave_to_dict_omits_factor_and_roundtrips(self):
        e = FaultEvent(epoch=3, kind="host_leave", machine=1)
        d = e.to_dict()
        assert "factor" not in d
        assert FaultEvent(**d) == e
        j = FaultEvent(epoch=3, kind="host_join", factor=0.5)
        assert FaultEvent(**j.to_dict()) == j

    def test_cluster_at_shrinks_then_recovers(self, base):
        sched = FaultSchedule(
            [
                FaultEvent(epoch=1, kind="host_leave", machine=1),
                FaultEvent(epoch=3, kind="recover"),
            ]
        )
        assert sched.cluster_at(base, 0) == base
        assert sched.cluster_at(base, 1).num_machines == 1
        assert sched.cluster_at(base, 2).num_machines == 1
        # recover restores membership, not just performance
        assert sched.cluster_at(base, 3) == base

    def test_membership_composes_with_degradation(self, base):
        # A link degrade before the leave survives it (cumulative apply).
        sched = FaultSchedule(
            [
                FaultEvent(epoch=0, kind="link_degrade", factor=0.5),
                FaultEvent(epoch=1, kind="host_leave", machine=0),
            ]
        )
        e1 = sched.cluster_at(base, 1)
        assert e1.num_machines == 1
        assert e1.network.bandwidth == pytest.approx(
            base.network.bandwidth * 0.5
        )

    def test_inject_grammar_carries_membership_events(self, tmp_path):
        sched = FaultSchedule(
            [
                FaultEvent(epoch=2, kind="host_leave", machine=1),
                FaultEvent(epoch=4, kind="host_join", factor=0.5),
            ]
        )
        import json

        from repro.parallel.chaos import split_injections

        path = tmp_path / "inject.json"
        path.write_text(json.dumps(sched.to_dict()))

        faults, chaos = split_injections(path)
        assert chaos is None
        assert faults.to_dict() == sched.to_dict()

