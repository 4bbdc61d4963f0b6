"""Tests for per-device, per-phase simulated-time accounting."""

import numpy as np
import pytest

from repro.cluster import Timeline, parse_cluster_spec
from repro.cluster.compute import ComputeCharger
from repro.cluster.timeline import chrome_trace


class TestCharging:
    def test_charge_accumulates(self):
        t = Timeline(2)
        t.charge(0, "load", 1.0)
        t.charge(0, "load", 0.5)
        assert t.device_phase_seconds(0, "load") == 1.5

    def test_charge_all(self):
        t = Timeline(3)
        t.charge_all("train", 2.0)
        for d in range(3):
            assert t.device_phase_seconds(d, "train") == 2.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Timeline(1).charge(0, "load", -1.0)

    def test_vector_charge_equals_scalar_charges(self):
        # One add per entry, in order, duplicates included: the same bits
        # as one scalar call per entry.
        rng = np.random.default_rng(3)
        devices = rng.integers(0, 4, size=40)
        seconds = rng.random(40) * 1e-3
        vector, scalar = Timeline(4), Timeline(4)
        for phase in ("sample", "train"):
            vector.charge(devices, phase, seconds)
            for d, s in zip(devices.tolist(), seconds.tolist()):
                scalar.charge(d, phase, s)
        vector.end_batch()
        scalar.end_batch()
        for key, value in vector.state_dict().items():
            if isinstance(value, np.ndarray):
                assert value.tobytes() == scalar.state_dict()[key].tobytes(), key

    @staticmethod
    def _cells(timeline):
        return (timeline._device_phase.tobytes(), timeline._batch_delta.tobytes())

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
    def test_distinct_vector_charge_equals_scalar_charges(self, as_array):
        # Distinct devices take the fancy-index add: still one add per
        # cell, the same bits as scalar calls in the run total and in the
        # open batch's deltas.
        rng = np.random.default_rng(4)
        vector, scalar = Timeline(6), Timeline(6)
        for phase in ("sample", "load", "train", "shuffle", "train"):
            devices = rng.permutation(6)[: int(rng.integers(1, 7))]
            seconds = rng.random(devices.size) * 10.0 ** rng.integers(-9, 0)
            vector.charge(devices if as_array else devices.tolist(), phase, seconds)
            for d, sec in zip(devices.tolist(), seconds.tolist()):
                scalar.charge(d, phase, sec)
            assert self._cells(vector) == self._cells(scalar)
        vector.end_batch()
        scalar.end_batch()
        assert self._cells(vector) == self._cells(scalar)

    def test_repeated_device_adds_in_call_order(self):
        # 1e-16 + 1e-16 + 1.0 rounds up to the next double after 1.0;
        # 1.0 + 1e-16 + 1e-16 stays 1.0.  Each order must be kept.
        for seconds, want in (([1e-16, 1e-16, 1.0], 1.0 + 2.0**-52),
                              ([1.0, 1e-16, 1e-16], 1.0)):
            t = Timeline(2)
            t.charge([1, 0, 0, 0], "train", [0.5] + seconds)
            assert t._batch_delta[0, 2] == t._device_phase[0, 2] == want
            assert t._batch_delta[1, 2] == 0.5

    def test_vector_charge_rejects_negative_entries(self):
        t = Timeline(2)
        with pytest.raises(ValueError):
            t.charge([0, 1], "train", [1.0, -1.0])
        assert t.device_phase_seconds(0, "train") == 0.0

    def test_repeated_vector_charge_rejects_negative_entries(self):
        t = Timeline(2)
        for devices in ([1, 1], np.array([0, 1, 0])):
            with pytest.raises(ValueError):
                t.charge(devices, "train", [1.0, -1.0, 1.0][: len(devices)])
        assert t.device_phase_seconds(0, "train") == 0.0
        assert t.device_phase_seconds(1, "train") == 0.0

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError):
            Timeline(1).charge(0, "nope", 1.0)

    def test_zero_devices_rejected(self):
        with pytest.raises(ValueError):
            Timeline(0)


class TestBarrier:
    def test_batch_costs_slowest_device(self):
        t = Timeline(2)
        t.charge(0, "train", 1.0)
        t.charge(1, "train", 3.0)
        assert t.end_batch() == pytest.approx(3.0)
        assert t.wall_seconds == pytest.approx(3.0)

    def test_imbalance_across_phases(self):
        """Phase maxima may exceed the wall barrier — they are per-phase."""
        t = Timeline(2)
        t.charge(0, "load", 2.0)
        t.charge(1, "train", 2.0)
        t.end_batch()
        assert t.wall_seconds == pytest.approx(2.0)
        assert t.phase_seconds("load") == pytest.approx(2.0)
        assert t.phase_seconds("train") == pytest.approx(2.0)

    def test_batches_accumulate(self):
        t = Timeline(1)
        t.charge(0, "train", 1.0)
        t.end_batch()
        t.charge(0, "train", 2.0)
        t.end_batch()
        assert t.wall_seconds == pytest.approx(3.0)
        assert t.num_batches == 2


class TestOverlap:
    def test_batch_costs_max_of_stages(self):
        t = Timeline(1, overlap=True)
        t.charge(0, "sample", 1.0)
        t.charge(0, "load", 2.0)  # prep = 3
        t.charge(0, "train", 4.0)  # compute = 4
        assert t.end_batch() == pytest.approx(4.0)

    def test_prep_bound_when_loading_dominates(self):
        t = Timeline(1, overlap=True)
        t.charge(0, "load", 5.0)
        t.charge(0, "train", 1.0)
        assert t.end_batch() == pytest.approx(5.0)

    def test_overlap_never_exceeds_additive(self):
        a = Timeline(2, overlap=False)
        b = Timeline(2, overlap=True)
        for tl in (a, b):
            tl.charge(0, "sample", 1.0)
            tl.charge(0, "train", 2.0)
            tl.charge(1, "load", 3.0)
            tl.charge(1, "shuffle", 1.0)
            tl.end_batch()
        assert b.wall_seconds <= a.wall_seconds

    def test_per_device_barrier_still_applies(self):
        t = Timeline(2, overlap=True)
        t.charge(0, "train", 1.0)
        t.charge(1, "train", 5.0)
        assert t.end_batch() == pytest.approx(5.0)


class TestChromeTrace:
    def test_empty_timeline_exports_nothing(self):
        assert chrome_trace([Timeline(1)]) == []

    def test_events_cover_charges(self):
        t = Timeline(2)
        t.charge(0, "sample", 1.0)
        t.charge(0, "train", 2.0)
        t.charge(1, "load", 3.0)
        t.end_batch()
        t.charge(0, "train", 1.0)
        t.end_batch()
        events = chrome_trace([t])
        assert len(events) == 4
        total_us = sum(e["dur"] for e in events)
        assert total_us == pytest.approx(7.0 * 1e6)

    def test_phases_sequential_per_device(self):
        t = Timeline(1)
        t.charge(0, "sample", 1.0)
        t.charge(0, "load", 2.0)
        t.end_batch()
        ev = {e["name"]: e for e in chrome_trace([t])}
        assert ev["load"]["ts"] == pytest.approx(ev["sample"]["ts"] + 1e6)

    def test_batches_offset_by_barrier(self):
        t = Timeline(2)
        t.charge(1, "train", 5.0)
        t.end_batch()
        t.charge(0, "train", 1.0)
        t.end_batch()
        events = chrome_trace([t])
        second = [e for e in events if e["cat"] == "batch1"][0]
        assert second["ts"] == pytest.approx(5.0 * 1e6)

    def test_zero_duration_phases_skipped(self):
        t = Timeline(1)
        t.charge(0, "train", 1.0)
        t.end_batch()
        assert len(chrome_trace([t])) == 1

    def test_segments_laid_end_to_end(self):
        """A rebuilt trainer starts a fresh ledger, possibly on another
        device count; its batches follow the previous segment's wall."""
        a, b = Timeline(2), Timeline(1)
        a.charge(1, "train", 5.0)
        a.end_batch()
        b.charge(0, "load", 1.0)
        b.end_batch()
        b.charge(0, "train", 2.0)
        b.end_batch()
        events = chrome_trace([a, b])
        assert events[:1] == chrome_trace([a])
        assert [e["cat"] for e in events] == ["batch0", "batch1", "batch2"]
        assert [e["ts"] for e in events] == [0.0, 5.0 * 1e6, 6.0 * 1e6]
        assert [e["tid"] for e in events] == [1, 0, 0]

    def test_state_round_trip_keeps_the_trace(self):
        t = Timeline(2)
        t.charge(0, "sample", 1.0)
        t.end_batch()
        clone = Timeline.from_state_dict(t.state_dict())
        assert chrome_trace([clone]) == chrome_trace([t])
        assert clone.wall_seconds == t.wall_seconds


class TestReporting:
    def test_breakdown_keys(self):
        t = Timeline(1)
        assert set(t.breakdown()) == {"sample", "load", "train", "shuffle"}

    def test_paper_breakdown_grouping(self):
        t = Timeline(1)
        t.charge(0, "train", 1.0)
        t.charge(0, "shuffle", 2.0)
        t.charge(0, "sample", 0.5)
        t.end_batch()
        bd = t.paper_breakdown()
        assert bd["training"] == pytest.approx(3.0)
        assert bd["sampling"] == pytest.approx(0.5)
        assert bd["loading"] == 0.0


def test_compute_charger_vectors_price_each_device_by_its_class():
    # A mixed fleet: the vector dense / sampling charges equal one scalar
    # call per device, bit for bit.
    cluster = parse_cluster_spec("1x2:a100,1x2:t4")
    devices = [3, 0, 2, 1, 0]
    counts = [1.5e9, 2.0e8, 7.0e7, 3.3e9, 1.0e6]
    vector = ComputeCharger(cluster, Timeline(4))
    scalar = ComputeCharger(cluster, Timeline(4))
    vector.dense(devices, counts)
    vector.gpu_sampling(devices, [int(c) for c in counts])
    vector.cpu_sampling(devices, [int(c) for c in counts], phase="load")
    for d, c in zip(devices, counts):
        scalar.dense(d, c)
        scalar.gpu_sampling(d, int(c))
        scalar.cpu_sampling(d, int(c), phase="load")
    a = vector.timeline.state_dict()["device_phase"]
    b = scalar.timeline.state_dict()["device_phase"]
    assert a.tobytes() == b.tobytes()
    assert a[0, 2] != a[3, 2]  # a100 and t4 prices differ
