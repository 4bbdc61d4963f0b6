"""Structured runtime telemetry: typed events + per-device/phase counters.

A :class:`TelemetryCollector` is attached to an
:class:`~repro.engine.context.ExecutionContext` (and through it to the
:class:`~repro.cluster.timeline.Timeline` and
:class:`~repro.cluster.comm.Communicator`).  Producers call :meth:`count`
for scalar accumulators keyed by ``(name, device, phase)`` and
:meth:`emit` for discrete events (batch barriers, epoch ends, re-plans,
fault injections, strategy switches).

Telemetry is strictly off the simulated-time path: collectors never touch
the timeline, never charge seconds, and never draw random numbers — a run
with telemetry enabled produces bit-identical simulated times and losses
to one without.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Event kinds emitted by the built-in producers.
EVENT_KINDS = (
    "batch",      # Timeline barrier: one bulk-synchronous step completed
    "epoch",      # ParallelTrainer: one epoch finished (loss, phase times)
    "collective", # Communicator: one collective operation charged
    "replan",     # APT: drift crossed the threshold, planner re-ran
    "switch",     # APT: the running strategy was hot-swapped
    "fault",      # fault-injection layer: a scheduled fault took effect
    "pipeline",   # ProcessPoolBackend: per-epoch prefetch/worker counters
    # -- fault tolerance (see DESIGN.md §5.11) ------------------------- #
    "chaos",          # HostFaultSchedule: a host fault directive armed
    "worker_error",   # supervisor/backend: a scoped worker exception
    "worker_timeout", # supervisor: task deadline expired (hang suspected)
    "worker_respawn", # supervisor: a dead/hung worker was replaced by a fork
    "task_retry",     # supervisor: failed task resubmitted with backoff
    "degraded",       # backend: failure budget spent, serial fallback on
    "checkpoint",     # APT: epoch checkpoint written
    "resume",         # APT: run continued from an epoch checkpoint
    # -- serving (see DESIGN.md §5.13) --------------------------------- #
    "serve_batch",    # ServeEngine: one inference batch answered
    "serve_replan",   # ServeEngine: traffic drift crossed the threshold
    "serve_cache",    # ServeEngine: the hotness cache was re-keyed
    # -- elastic membership (see DESIGN.md §5.16) ----------------------- #
    "host_leave",     # APT: a machine left the cluster (spot reclaim)
    "host_join",      # APT: a machine joined the cluster
    "repartition",    # APT: graph re-partitioned for a new device set
    "elastic_replan", # APT: planner re-ran after a membership change
    "checkpoint_corrupt",  # CheckpointManager: bad checkpoint skipped
    # -- heterogeneity (see DESIGN.md §5.17) ---------------------------- #
    "device_imbalance",  # ParallelTrainer: per-epoch max/min busy ratio
    "pareto_select",     # APT.plan: chosen (time, $) point + dominated count
)


@dataclass(frozen=True)
class TelemetryEvent:
    """One typed entry of the event stream.

    ``sim_time`` is the simulated-seconds clock at emission (the producing
    timeline's wall), so events interleave correctly with the Chrome trace
    of the same run.
    """

    kind: str
    sim_time: float = 0.0
    epoch: Optional[int] = None
    device: Optional[int] = None
    phase: Optional[str] = None
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "sim_time": self.sim_time}
        for key in ("epoch", "device", "phase"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.data:
            out["data"] = dict(self.data)
        return out


class TelemetryCollector:
    """Accumulates counters and events for one (or several) runs."""

    def __init__(self) -> None:
        #: ``(name, device, phase) -> accumulated value``
        self.counters: Dict[Tuple[str, Optional[int], Optional[str]], float] = {}
        self.events: List[TelemetryEvent] = []

    # ------------------------------------------------------------------ #
    # producers
    # ------------------------------------------------------------------ #
    def count(
        self,
        name: str,
        value: float = 1.0,
        *,
        device: Optional[int] = None,
        phase: Optional[str] = None,
    ) -> None:
        """Add ``value`` to the counter keyed by ``(name, device, phase)``."""
        key = (name, device, phase)
        self.counters[key] = self.counters.get(key, 0.0) + float(value)

    def count_each(
        self,
        names: Sequence[str],
        values: Sequence[float],
        *,
        device: Optional[int] = None,
        phase: Optional[str] = None,
    ) -> None:
        """:meth:`count` of each ``(name, value)`` pair, in order (a load
        split's row: one counter per tier)."""
        counters = self.counters
        for name, value in zip(names, values):
            key = (name, device, phase)
            counters[key] = counters.get(key, 0.0) + float(value)

    def emit(
        self,
        kind: str,
        *,
        sim_time: float = 0.0,
        epoch: Optional[int] = None,
        device: Optional[int] = None,
        phase: Optional[str] = None,
        **data: Any,
    ) -> TelemetryEvent:
        """Append a typed event to the stream and return it."""
        event = TelemetryEvent(
            kind=kind,
            sim_time=float(sim_time),
            epoch=epoch,
            device=device,
            phase=phase,
            data=data,
        )
        self.events.append(event)
        return event

    # ------------------------------------------------------------------ #
    # consumers
    # ------------------------------------------------------------------ #
    def counter_total(self, name: str) -> float:
        """Sum of one counter across all devices and phases."""
        return sum(v for (n, _, _), v in self.counters.items() if n == name)

    def events_of(self, kind: str) -> List[TelemetryEvent]:
        return [e for e in self.events if e.kind == kind]

    def summary(self) -> Dict[str, Any]:
        """Compact digest: counter totals plus event counts by kind.

        This is what :class:`~repro.core.report.RunReport` embeds — small
        enough to serialize with every run, while the full stream stays
        available via :meth:`to_json`.
        """
        totals: Dict[str, float] = {}
        for (name, _, _), value in self.counters.items():
            totals[name] = totals.get(name, 0.0) + value
        by_kind: Dict[str, int] = {}
        for event in self.events:
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        return {
            "counters": dict(sorted(totals.items())),
            "num_events": len(self.events),
            "events_by_kind": dict(sorted(by_kind.items())),
        }

    def to_dict(self) -> Dict[str, Any]:
        """Full export: every counter key and the whole event stream."""
        return {
            "counters": [
                {"name": n, "device": d, "phase": p, "value": v}
                for (n, d, p), v in sorted(
                    self.counters.items(),
                    key=lambda kv: (kv[0][0], kv[0][1] is not None, kv[0][1] or 0, kv[0][2] or ""),
                )
            ],
            "events": [e.to_dict() for e in self.events],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_chrome_trace(self) -> List[Dict[str, Any]]:
        """Events as Chrome-trace instants (merge with a Timeline trace).

        Batch/epoch/replan/switch/fault events become instant ("i") events
        on the device's thread (or globally scoped when device-less);
        counters are snapshotted once at the end as counter ("C") events.
        """
        trace: List[Dict[str, Any]] = []
        last = 0.0
        for event in self.events:
            last = max(last, event.sim_time)
            trace.append(
                {
                    "name": event.kind,
                    "ph": "i",
                    "ts": event.sim_time * 1e6,
                    "pid": 0,
                    "tid": event.device if event.device is not None else 0,
                    "s": "t" if event.device is not None else "g",
                    "args": {
                        k: v
                        for k, v in event.to_dict().items()
                        if k not in ("kind", "sim_time")
                    },
                }
            )
        for name, value in self.summary()["counters"].items():
            trace.append(
                {
                    "name": name,
                    "ph": "C",
                    "ts": last * 1e6,
                    "pid": 0,
                    "args": {name: value},
                }
            )
        return trace

    def merged(self, other: "TelemetryCollector") -> "TelemetryCollector":
        """New collector holding both runs' counters and events."""
        out = TelemetryCollector()
        for src in (self, other):
            for key, value in src.counters.items():
                out.counters[key] = out.counters.get(key, 0.0) + value
            out.events.extend(src.events)
        return out
