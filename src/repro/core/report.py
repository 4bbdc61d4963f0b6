"""The public report API: :class:`ReportBase` and :class:`RunReport`.

``plan()``, ``run()``, and ``run_strategy()`` used to return three
different shapes (``PlanReport``, ``APTRunResult``, ``APTRunResult``);
benchmarks and the CLI had to know which was which.  A :class:`RunReport`
nests them all:

* ``plan``      — the (last) planner outcome, when planning happened;
* ``result``    — the executed epochs, when training happened;
* ``replans``   — every drift-triggered re-plan, including hot switches;
* ``faults``    — injected faults that took effect during the run;
* ``telemetry`` — the telemetry summary (counters + event counts);
* ``config``    — the :class:`~repro.config.APTConfig` snapshot.

For source compatibility the report *delegates* the frequently used
attributes of both legacy types (``chosen``, ``ranking``, ``estimates`` /
``strategy``, ``epochs``, ``epoch_seconds``, ...), raising a descriptive
error when the nested part is absent — so pre-redesign call sites keep
working unchanged.  ``summary()`` renders every section the report holds
as text; ``to_json()`` is the same report for machines.

:class:`ReportBase` is the serialization surface every public report
shares: ``to_dict()`` wraps the subclass payload in a schema-versioned
envelope (``schema_version`` + ``kind``), ``save()`` writes it as JSON,
and ``load()`` reads it back with version/kind validation — so
:class:`RunReport` (training) and :class:`~repro.serve.report.ServeReport`
(serving) round-trip through the exact same API.  ``repro.core.report``
re-exports both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.cluster.timeline import Timeline, chrome_trace
from repro.core.planner import PlanReport
from repro.engine.context import VolumeRecorder
from repro.engine.trainer import EpochResult
from repro.obs.drift import DriftReading

#: Version of the shared report JSON envelope.  Bump when a payload field
#: changes meaning; ``ReportBase.load`` rejects mismatched files.
#: v2: per-layer strategy assignments + re-layout byte counters
#: (DESIGN.md §5.15) in both the plan and result sections.
REPORT_SCHEMA_VERSION = 2


class ReportBase:
    """Shared schema-versioned JSON surface of the public reports.

    Subclasses set ``kind`` and implement :meth:`payload_dict`;
    :meth:`to_dict` wraps the payload in the ``{"schema_version", "kind"}``
    envelope, :meth:`save` / :meth:`load` round-trip it through a JSON
    file, and :meth:`validate_dict` checks an already-parsed dict.  The
    envelope is the contract: ``Report.load(report.save(path)) ==
    report.to_dict()`` for every subclass.
    """

    kind: str = "report"

    def payload_dict(self) -> Dict[str, Any]:
        """JSON-safe payload of the concrete report (no envelope)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "kind": self.kind,
        }
        out.update(self.payload_dict())
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: str) -> str:
        """Write the report as JSON; returns the path for chaining."""
        with open(path, "w") as fh:
            fh.write(self.to_json(indent=2))
            fh.write("\n")
        return str(path)

    # ------------------------------------------------------------------ #
    @classmethod
    def validate_dict(cls, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Check the envelope of a parsed report dict; returns it."""
        version = payload.get("schema_version")
        if version != REPORT_SCHEMA_VERSION:
            raise ValueError(
                f"report has schema_version {version!r}, this build reads "
                f"version {REPORT_SCHEMA_VERSION}"
            )
        kind = payload.get("kind")
        if cls.kind != ReportBase.kind and kind != cls.kind:
            raise ValueError(
                f"expected a {cls.kind!r} report, got kind {kind!r}"
            )
        return payload

    @classmethod
    def load(cls, path: str) -> Dict[str, Any]:
        """Read a saved report back as its validated dict form.

        The dict equals ``report.to_dict()`` of the report that wrote it
        (the round-trip contract pinned by ``tests/serve/test_report.py``).
        """
        with open(path) as fh:
            payload = json.load(fh)
        return cls.validate_dict(payload)


@dataclass
class APTRunResult:
    """Outcome of executing one (or, after hot switches, several)
    strategies for some epochs."""

    strategy: str
    epochs: List[EpochResult]
    #: volume ledgers of the last trainer segment
    recorder: VolumeRecorder
    #: the paper's stacked breakdown summed over the run
    breakdown: Dict[str, float] = field(default_factory=dict)
    #: one simulated-time ledger per trainer segment, in run order — a
    #: fault, strategy switch or membership change rebuilds the trainer
    #: with fresh ledgers
    timelines: List[Timeline] = field(default_factory=list)
    #: disk-tier counters of the last segment's feature store (``None``
    #: for in-RAM features).  A summary, not the store: the live context
    #: would pin the promoted-row buffer for as long as the report lives.
    disk: Optional[Dict[str, float]] = None

    @property
    def timeline(self) -> Timeline:
        """The last trainer segment's ledger (the only one when nothing
        rebuilt the trainer mid-run)."""
        return self.timelines[-1]

    def chrome_trace(self) -> list:
        """Chrome-trace events of every segment, laid end to end."""
        return chrome_trace(self.timelines)

    @property
    def wall_seconds(self) -> float:
        return sum(e.wall_seconds for e in self.epochs)

    @property
    def epoch_seconds(self) -> float:
        """Average simulated epoch time (the paper's main metric)."""
        return self.wall_seconds / max(len(self.epochs), 1)

    @property
    def final_loss(self) -> float:
        return self.epochs[-1].mean_loss if self.epochs else float("nan")


@dataclass
class ReplanEvent:
    """One drift-triggered planner invocation (switch or confirmation)."""

    #: epoch *after* which the re-plan ran (the switch takes effect at
    #: ``epoch + 1``)
    epoch: int
    #: the drift reading that crossed the threshold
    drift: DriftReading
    old_strategy: str
    new_strategy: str
    #: fresh per-strategy estimate totals from the re-profiled cost model
    estimates: Dict[str, float] = field(default_factory=dict)

    @property
    def switched(self) -> bool:
        return self.new_strategy != self.old_strategy

    def to_dict(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "old_strategy": self.old_strategy,
            "new_strategy": self.new_strategy,
            "switched": self.switched,
            "drift": self.drift.to_dict(),
            "estimates": dict(self.estimates),
        }


@dataclass
class RunReport(ReportBase):
    """Everything one APT invocation produced.  See the module docstring."""

    kind = "run"

    plan: Optional[PlanReport] = None
    result: Optional[APTRunResult] = None
    replans: List[ReplanEvent] = field(default_factory=list)
    #: injected-fault records: ``{"epoch": int, "fault": {...}}``
    faults: List[Dict[str, Any]] = field(default_factory=list)
    #: :meth:`TelemetryCollector.summary` of the run (None when disabled)
    telemetry: Optional[Dict[str, Any]] = None
    #: JSON-safe snapshot of the APTConfig that produced the run
    config: Optional[Dict[str, Any]] = None
    #: strategy that executed each epoch, in order (shows hot switches)
    strategy_by_epoch: List[str] = field(default_factory=list)
    #: the live TelemetryCollector (full event stream; not serialized)
    collector: Optional[Any] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # delegation: PlanReport surface
    # ------------------------------------------------------------------ #
    def _require(self, part: str):
        value = getattr(self, part)
        if value is None:
            raise AttributeError(
                f"this RunReport has no {part!r} section — it came from "
                f"{'plan()' if part == 'result' else 'a run without planning'}"
            )
        return value

    @property
    def chosen(self) -> str:
        return self._require("plan").chosen

    @property
    def ranking(self) -> List[str]:
        return self._require("plan").ranking

    @property
    def estimates(self):
        return self._require("plan").estimates

    def summary(self) -> str:
        """Human-readable report of every section it holds: the plan
        (:meth:`PlanReport.summary`), then the run — epochs, breakdown,
        per-device utilization, layerwise re-layout traffic, the disk
        tier, re-plans and membership events."""
        parts = []
        if self.plan is not None:
            parts.append(self.plan.summary())
        if self.result is not None:
            parts.append(self._result_text())
        return "\n\n".join(parts)

    def _result_text(self) -> str:
        result = self.result
        lines = [f"ran {len(result.epochs)} epoch(s) with {result.strategy}:"]
        for e in result.epochs:
            lines.append(
                f"  epoch {e.epoch}: loss={e.mean_loss:.4f} "
                f"simulated={e.wall_seconds * 1e3:.3f} ms "
                f"({e.num_batches} batches, {e.strategy})"
            )
        breakdown = {k: f"{v * 1e3:.3f}ms" for k, v in result.breakdown.items()}
        lines.append(f"breakdown: {breakdown}")
        devices = result.timeline.utilization()
        scope = " of the last trainer segment" if len(result.timelines) > 1 else ""
        lines.append(
            f"per-device utilization{scope} "
            f"(wall {devices['wall_seconds'] * 1e3:.3f} ms):"
        )
        for d, (busy, util) in enumerate(
            zip(devices["busy_seconds"], devices["utilization"])
        ):
            lines.append(f"  device {d}: busy {busy * 1e3:.3f} ms ({util:.1%})")
        lines.append(
            f"max/min busy imbalance ratio: {devices['imbalance_ratio']:.3f}"
        )
        if result.strategy.startswith("layerwise:"):
            layers = result.strategy[len("layerwise:"):].split(",")
            per_layer = sorted(result.recorder.relayout_layer_bytes.items())
            detail = ", ".join(
                f"layer {layer}: {nbytes / 1e3:.1f} KB"
                for layer, nbytes in per_layer
            )
            lines.append("per-layer strategies: " + " -> ".join(layers))
            lines.append(
                "re-layout traffic: "
                f"{result.recorder.total_relayout_bytes() / 1e3:.1f} KB total "
                f"({detail or 'all re-layouts device-local'})"
            )
        disk = result.disk
        if disk is not None:
            lines.append(
                f"disk tier: {disk['rows']:.0f} rows "
                f"({disk['bytes'] / 2**20:.1f} MiB) in "
                f"{disk['ranged_reads']:.0f} ranged reads; "
                f"{disk['promotions']:.0f} rows promoted over "
                f"{disk['refreshes']:.0f} refreshes "
                f"({disk['resident_rows']} resident)"
            )
        for rp in self.replans:
            verb = "switched to" if rp.switched else "re-planned, stayed on"
            lines.append(
                f"re-plan after epoch {rp.epoch}: drift {rp.drift.max_abs:.2f} "
                f"on {rp.drift.worst_term}; {verb} {rp.new_strategy}"
            )
        events = self.collector.events if self.collector is not None else ()
        for ev in events:
            if ev.kind in ("host_leave", "host_join"):
                verb = "left" if ev.kind == "host_leave" else "joined"
                machine = ev.data.get("machine")
                who = f"machine {machine}" if machine is not None else "a machine"
                cls = ev.data.get("device_class")
                if cls is not None:
                    who += f" ({cls})"
                lines.append(
                    f"{who} {verb} at epoch {ev.epoch}: "
                    f"{ev.data.get('devices_before')} -> "
                    f"{ev.data.get('devices_after')} devices"
                )
            elif ev.kind == "repartition":
                lines.append(
                    f"re-partitioned ({ev.data.get('mode')}) for "
                    f"{ev.data.get('devices_after')} devices at epoch "
                    f"{ev.epoch}"
                )
            elif ev.kind == "elastic_replan" and ev.data.get("switched"):
                lines.append(
                    f"elastic re-plan at epoch {ev.epoch}: switched "
                    f"{ev.data.get('old')} -> {ev.data.get('chosen')}"
                )
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # delegation: APTRunResult surface
    # ------------------------------------------------------------------ #
    @property
    def strategy(self) -> str:
        return self._require("result").strategy

    @property
    def epochs(self):
        return self._require("result").epochs

    @property
    def recorder(self):
        return self._require("result").recorder

    @property
    def breakdown(self) -> Dict[str, float]:
        return self._require("result").breakdown

    @property
    def wall_seconds(self) -> float:
        return self._require("result").wall_seconds

    @property
    def epoch_seconds(self) -> float:
        return self._require("result").epoch_seconds

    @property
    def final_loss(self) -> float:
        return self._require("result").final_loss

    # ------------------------------------------------------------------ #
    @property
    def num_replans(self) -> int:
        return len(self.replans)

    # ------------------------------------------------------------------ #
    def payload_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        if self.plan is not None:
            out["plan"] = {
                "chosen": self.plan.chosen,
                "ranking": list(self.plan.ranking),
                "estimates": {
                    name: est.as_dict() for name, est in self.plan.estimates.items()
                },
            }
            if self.plan.objective != "epoch":
                out["plan"]["objective"] = self.plan.objective
            if self.plan.pareto:
                out["plan"]["pareto"] = list(self.plan.pareto)
            if self.plan.budget_seconds is not None:
                out["plan"]["budget_seconds"] = self.plan.budget_seconds
            if self.plan.budget_dollars is not None:
                out["plan"]["budget_dollars"] = self.plan.budget_dollars
            if self.plan.subsets:
                out["plan"]["subsets"] = {
                    name: dict(meta) for name, meta in self.plan.subsets.items()
                }
            if self.plan.layer_assignments:
                out["plan"]["layer_assignments"] = {
                    name: list(layers)
                    for name, layers in self.plan.layer_assignments.items()
                }
            if self.plan.relayout_bytes:
                out["plan"]["relayout_bytes"] = dict(self.plan.relayout_bytes)
            if self.plan.coarsening is not None:
                out["plan"]["coarsening"] = dict(self.plan.coarsening)
        if self.result is not None:
            out["result"] = {
                "strategy": self.result.strategy,
                "wall_seconds": self.result.wall_seconds,
                "epoch_seconds": self.result.epoch_seconds,
                "final_loss": self.result.final_loss,
                "breakdown": dict(self.result.breakdown),
                "epochs": [
                    {
                        "epoch": e.epoch,
                        "strategy": e.strategy,
                        "mean_loss": e.mean_loss,
                        "wall_seconds": e.wall_seconds,
                            "num_batches": e.num_batches,
                        "phases": dict(e.phases),
                    }
                    for e in self.result.epochs
                ],
                # the last trainer segment's ledger: segments may differ
                # in device count
                "devices": self.result.timeline.utilization(),
            }
            if self.result.disk is not None:
                out["result"]["disk"] = dict(self.result.disk)
            if self.result.strategy.startswith("layerwise:"):
                out["result"]["layer_assignment"] = self.result.strategy[
                    len("layerwise:") :
                ].split(",")
            recorder = self.result.recorder
            total = recorder.total_relayout_bytes()
            if total:
                out["result"]["relayout_bytes"] = total
                out["result"]["relayout_layer_bytes"] = {
                    str(layer): nbytes
                    for layer, nbytes in sorted(
                        recorder.relayout_layer_bytes.items()
                    )
                }
        if self.strategy_by_epoch:
            out["strategy_by_epoch"] = list(self.strategy_by_epoch)
        out["replans"] = [r.to_dict() for r in self.replans]
        out["faults"] = list(self.faults)
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry
        if self.config is not None:
            out["config"] = self.config
        return out


def __getattr__(name: str):
    # Lazy re-export: repro.core.report is the one import site for every
    # public report, but repro.serve itself imports this module.
    if name == "ServeReport":
        from repro.serve.report import ServeReport

        return ServeReport
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
