"""Tests for the structured telemetry layer (repro.obs.telemetry)."""

import json

import pytest

from repro.obs import TelemetryCollector, TelemetryEvent
from repro.obs.telemetry import EVENT_KINDS


class TestCounters:
    def test_count_accumulates_per_key(self):
        t = TelemetryCollector()
        t.count("load_rows", 10, device=0, phase="load")
        t.count("load_rows", 5, device=0, phase="load")
        t.count("load_rows", 7, device=1, phase="load")
        assert t.counters[("load_rows", 0, "load")] == 15.0
        assert t.counters[("load_rows", 1, "load")] == 7.0

    def test_counter_total_sums_across_devices_and_phases(self):
        t = TelemetryCollector()
        t.count("bytes", 100, device=0)
        t.count("bytes", 200, device=1, phase="shuffle")
        t.count("bytes", 50)
        t.count("other", 999)
        assert t.counter_total("bytes") == 350.0
        assert t.counter_total("missing") == 0.0

    def test_default_increment_is_one(self):
        t = TelemetryCollector()
        t.count("batches")
        t.count("batches")
        assert t.counter_total("batches") == 2.0


class TestEvents:
    def test_emit_returns_typed_event(self):
        t = TelemetryCollector()
        e = t.emit("replan", sim_time=1.5, epoch=3, drift=0.4)
        assert isinstance(e, TelemetryEvent)
        assert e.kind == "replan"
        assert e.sim_time == 1.5
        assert e.data == {"drift": 0.4}
        assert t.events == [e]

    def test_events_of_filters_by_kind(self):
        t = TelemetryCollector()
        t.emit("batch", epoch=0)
        t.emit("epoch", epoch=0)
        t.emit("batch", epoch=1)
        assert len(t.events_of("batch")) == 2
        assert len(t.events_of("switch")) == 0

    def test_event_to_dict_omits_unset_fields(self):
        e = TelemetryEvent(kind="fault", sim_time=0.25)
        d = e.to_dict()
        assert d == {"kind": "fault", "sim_time": 0.25}
        full = TelemetryEvent(
            kind="batch", sim_time=1.0, epoch=2, device=3, phase="load",
            data={"wall": 0.1},
        ).to_dict()
        assert full["epoch"] == 2 and full["device"] == 3
        assert full["data"] == {"wall": 0.1}

    def test_builtin_kinds_cover_producers(self):
        for kind in ("batch", "epoch", "replan", "switch", "fault"):
            assert kind in EVENT_KINDS

    def test_fault_tolerance_kinds_listed(self):
        # Every kind the supervision/checkpoint layer emits is declared.
        for kind in (
            "chaos", "worker_error", "worker_timeout", "worker_respawn",
            "task_retry", "degraded", "checkpoint", "resume",
        ):
            assert kind in EVENT_KINDS


class TestExport:
    def _populated(self):
        t = TelemetryCollector()
        t.count("comm.bytes", 1024, device=0, phase="shuffle")
        t.count("comm.bytes", 512, device=1, phase="shuffle")
        t.emit("batch", sim_time=0.001, epoch=0, device=1, batch=0)
        t.emit("epoch", sim_time=0.002, epoch=0, mean_loss=1.5)
        return t

    def test_summary_totals_and_kind_counts(self):
        s = self._populated().summary()
        assert s["counters"] == {"comm.bytes": 1536.0}
        assert s["num_events"] == 2
        assert s["events_by_kind"] == {"batch": 1, "epoch": 1}

    def test_json_roundtrip(self):
        payload = json.loads(self._populated().to_json())
        assert {c["name"] for c in payload["counters"]} == {"comm.bytes"}
        assert [e["kind"] for e in payload["events"]] == ["batch", "epoch"]

    def test_chrome_trace_shapes(self):
        trace = self._populated().to_chrome_trace()
        instants = [e for e in trace if e["ph"] == "i"]
        counters = [e for e in trace if e["ph"] == "C"]
        assert len(instants) == 2 and len(counters) == 1
        # Timestamps are microseconds of simulated time.
        assert instants[0]["ts"] == pytest.approx(1e3)
        # Device-scoped instants are thread-scoped; global otherwise.
        assert instants[0]["s"] == "t" and instants[1]["s"] == "g"

    def test_merged_combines_counters_and_events(self):
        a, b = self._populated(), self._populated()
        m = a.merged(b)
        assert m.counter_total("comm.bytes") == 3072.0
        assert len(m.events) == 4
        # The inputs are untouched.
        assert a.counter_total("comm.bytes") == 1536.0
