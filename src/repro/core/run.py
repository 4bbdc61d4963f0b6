"""The Run step: one training run as one state object.

:class:`TrainingRun` is what ``APT.run`` / ``APT.run_strategy`` execute.
Its *attributes* are the run's state — optimizer, telemetry collector,
drift detector, the estimate the detector trusts, re-plan cooldown, the
current strategy / effective cluster / trainer, the report under
construction, checkpoint manager, execution backend — and its *methods*
are the epoch-boundary steps, called by :meth:`TrainingRun.step` in a
fixed order:

1. fault records of the epoch;
2. membership change (quiesce, checkpoint, re-partition, re-plan);
3. trainer (re)build when the effective cluster changed;
4. ledger restore on the first trainer of a resumed run;
5. ``train_epoch``;
6. drift-triggered re-plan (and hot switch);
7. cadence checkpoint.

That order is the contract the bit-identity pins rest on (resume ==
uninterrupted, elastic tail == fresh run on the changed cluster, serial
== process backend): every step reads what the previous ones left on
``self``.  There is no hook registry — a new boundary decision is one
more method called from :meth:`step`.

``ServeEngine`` keeps its own window loop: it calibrates a baseline per
window instead of trusting an estimate, and sharing this one would make
it branch on its caller.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.cluster.faults import MEMBERSHIP_KINDS, FaultSchedule
from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import Timeline
from repro.core.checkpoint import (
    Checkpoint,
    CheckpointManager,
    recorder_state,
    restore_recorder,
)
from repro.core.costmodel import CostEstimate
from repro.core.planner import PlanReport
from repro.core.report import APTRunResult, ReplanEvent, RunReport
from repro.engine import make_strategy
from repro.engine.trainer import EpochResult, ParallelTrainer
from repro.obs.drift import DriftDetector
from repro.obs.telemetry import TelemetryCollector
from repro.tensor.optim import Adam

__all__ = ["TrainingRun"]


class TrainingRun:
    """State and epoch-boundary steps of one training run.

    Built fresh, or — with ``resume`` — from the newest valid checkpoint
    of that directory, in which case the remaining epochs continue the
    checkpointed run bit for bit (DESIGN.md §5.11); ``strategy=None`` then
    means the strategy the checkpointed run was given.

    Plan-step state comes from ``apt.context`` (a
    :class:`~repro.core.apt.PlanContext`): its partition and execution
    context build the trainers, a membership change replaces it through
    ``apt.prepare(cluster)``, and a drift re-plan dry-runs a throwaway
    context on the degraded cluster.
    """

    def __init__(
        self,
        apt,
        strategy: Optional[str],
        num_epochs: int,
        *,
        lr: float,
        numerics: bool,
        faults: Optional[FaultSchedule],
        replan: bool,
        resume: Optional[str] = None,
    ):
        self.apt = apt
        self.config = apt.config
        checkpoint: Optional[Checkpoint] = None
        if resume is not None:
            loader = CheckpointManager(resume, keep=self.config.checkpoint_keep)
            checkpoint = loader.load()
            if strategy is None:
                strategy = checkpoint.manifest["run_args"]["strategy"]
        self.num_epochs = int(num_epochs)
        self.numerics = numerics
        self.faults = faults
        self.replan = replan
        #: what the run was asked to do, for the checkpoint manifest
        self.run_args = {
            "strategy": strategy,
            "lr": float(lr),
            "numerics": bool(numerics),
            "replan": bool(replan),
            "faults": faults.to_dict() if faults is not None else None,
        }
        self.collector = (
            TelemetryCollector() if self.config.telemetry else None
        )
        self.optimizer = Adam(apt.model.parameters(), lr=lr)
        self.detector = DriftDetector(threshold=self.config.drift_threshold)
        #: the estimate the drift detector compares observed phases against
        self.estimate: Optional[CostEstimate] = None
        self.cooldown = 0
        self.strategy = strategy
        self.start_epoch = 0
        #: effective cluster the current trainer was built on
        self.cluster: Optional[ClusterSpec] = None
        self.trainer: Optional[ParallelTrainer] = None
        #: one ledger per trainer built so far; the last is the live one
        self.timelines: List[Timeline] = []
        self.epochs: List[EpochResult] = []
        self.breakdown: Dict[str, float] = {}
        self.report = RunReport(
            plan=apt.plan_report, config=self.config.to_dict()
        )
        #: checkpoint state whose ledgers the first trainer may continue
        self._resumed: Optional[Dict[str, object]] = None
        self.backend = None
        if checkpoint is not None:
            self._load(loader, checkpoint)
        elif replan:
            plan = apt.plan_report
            self.estimate = (
                plan.estimates[strategy]
                if plan is not None and strategy in plan.estimates
                else apt.context.estimate(strategy)
            )
        checkpoint_dir = self.config.checkpoint_dir or resume
        self.manager: Optional[CheckpointManager] = (
            CheckpointManager(checkpoint_dir, keep=self.config.checkpoint_keep)
            if checkpoint_dir is not None
            else None
        )

    # ------------------------------------------------------------------ #
    def _emit(self, kind: str, **data) -> None:
        if self.collector is not None:
            self.collector.emit(kind, **data)

    def _load(self, manager: CheckpointManager, checkpoint: Checkpoint) -> None:
        """Adopt ``checkpoint``, the newest valid one ``manager`` found."""
        manager.verify_config(checkpoint, self.config.to_dict())
        if checkpoint.epochs_completed >= self.num_epochs:
            raise ValueError(
                f"checkpoint at {checkpoint.path!r} already covers "
                f"{checkpoint.epochs_completed} epochs; pass "
                f"num_epochs > {checkpoint.epochs_completed} to continue"
            )
        state = checkpoint.state
        self.apt.model.load_state_dict(state["model"])
        self.optimizer.load_state_dict(state["optimizer"])
        if self.collector is not None and state.get("collector") is not None:
            self.collector = state["collector"]
        self.detector.history = list(state["detector_history"])
        self.estimate = state["estimate"]
        self.cooldown = int(state["cooldown"])
        self.strategy = state["current_strategy"]
        self.start_epoch = checkpoint.epochs_completed
        self.epochs = list(state["epochs"])
        self.breakdown = dict(state["breakdown"])
        self.report.replans = list(state["replans"])
        self.report.faults = list(state["faults"])
        self.report.strategy_by_epoch = list(state["strategy_by_epoch"])
        self.timelines = [
            Timeline.from_state_dict(s) for s in state.get("segments", [])
        ]
        self._resumed = state
        for warning in manager.warnings:
            # A newer checkpoint was corrupt; we fell back to an older
            # valid one instead of crashing.
            self._emit("checkpoint_corrupt", epoch=self.start_epoch, **warning)
        self._emit("resume", epoch=self.start_epoch, path=checkpoint.path)

    # ------------------------------------------------------------------ #
    def execute(self, backend) -> RunReport:
        """Run the remaining epochs on ``backend``; returns the report.

        The caller owns the backend (one per run: it outlives trainer
        rebuilds) and closes it.
        """
        self.backend = backend
        for epoch in range(self.start_epoch, self.num_epochs):
            self.step(epoch)
        ctx = self.trainer.ctx
        self.report.result = APTRunResult(
            strategy=self.strategy,
            epochs=self.epochs,
            recorder=ctx.recorder,
            breakdown=self.breakdown,
            timelines=self.timelines,
            disk=ctx.store.disk_summary(),
        )
        if self.collector is not None:
            self.report.telemetry = self.collector.summary()
            self.report.collector = self.collector
        return self.report

    def step(self, epoch: int) -> None:
        """One epoch and the boundary decisions around it, in the order
        the module docstring fixes."""
        cluster = self._apply_faults(epoch)
        if cluster.num_devices != self.apt.context.cluster.num_devices:
            self._membership_change(cluster, epoch)
        if self.trainer is None or cluster != self.cluster:
            # (Re)build the engine on the currently effective hardware;
            # model and optimizer state carry over untouched.
            self.cluster = cluster
            self._build_trainer()
        self._continue_ledgers()
        result = self.trainer.train_epoch(epoch)
        self.epochs.append(result)
        self.report.strategy_by_epoch.append(self.strategy)
        for key, value in result.breakdown.items():
            self.breakdown[key] = self.breakdown.get(key, 0.0) + value
        self._replan_on_drift(epoch, result)
        if self.manager is not None and (
            (epoch + 1) % self.config.checkpoint_every == 0
            or epoch == self.num_epochs - 1
        ):
            self._checkpoint(epoch, epochs_completed=epoch + 1)

    # ------------------------------------------------------------------ #
    # the steps
    # ------------------------------------------------------------------ #
    def _apply_faults(self, epoch: int) -> ClusterSpec:
        """Record the epoch's fault events; returns the effective cluster."""
        if self.faults is None:
            return self.apt.cluster
        for event in self.faults.events_at(epoch):
            record = event.to_dict()
            self.report.faults.append({"epoch": epoch, "fault": record})
            self._emit("fault", epoch=epoch, fault=record)
        return self.faults.cluster_at(self.apt.cluster, epoch)

    def _membership_change(self, cluster: ClusterSpec, epoch: int) -> None:
        """Survive a cluster-membership change (DESIGN.md §5.16).

        Order matters: (1) quiesce the backend so no in-flight task split
        for the old device set lands later, (2) take (or reuse) an atomic
        checkpoint at this epoch boundary, (3) re-partition for the new
        device set, (4) re-plan and adopt the new ranking.  :meth:`step`
        then rebuilds the trainer with fresh ledgers — exactly what a
        fresh run on the post-change cluster does when resumed from the
        same checkpoint, which is why the tail is bit-identical to that
        oracle.
        """
        apt = self.apt
        before = apt.context.cluster.num_devices
        after = cluster.num_devices
        if not self.config.elastic:
            raise RuntimeError(
                f"cluster membership changed at epoch {epoch} "
                f"({before} -> {after} devices) but elastic execution is "
                f"disabled; set APTConfig.elastic (drop --no-elastic) to "
                f"survive host_leave/host_join events"
            )
        for event in self.faults.events_at(epoch) if self.faults else ():
            if event.kind not in MEMBERSHIP_KINDS:
                continue
            extra = (
                {"device_class": event.device_class}
                if event.device_class is not None
                else {}
            )
            self._emit(
                event.kind,
                epoch=epoch,
                machine=event.machine,
                devices_before=before,
                devices_after=after,
                **extra,
            )
        # (1) quiesce: settle in-flight tasks, drop the prefetched
        # schedule — its seed chunks were split for the old device set.
        self.backend.quiesce()
        # (2) checkpoint at this epoch boundary, unless the regular cadence
        # just wrote one covering exactly `epoch` epochs.
        if (
            self.trainer is not None
            and self.manager is not None
            and self.manager.latest_epoch() != epoch
        ):
            self._checkpoint(epoch, epochs_completed=epoch)
        # (3) re-partition for the surviving device set: a new plan context
        # replaces the old one whole.  The workers need no re-fork: they
        # hold the graph only, and per-device seed chunks ride in each
        # task payload.
        context = apt.prepare(cluster)
        self._emit(
            "repartition",
            epoch=epoch,
            devices_before=before,
            devices_after=after,
            mode=(
                "explicit"
                if isinstance(self.config.partition, np.ndarray)
                else str(self.config.partition)
            ),
        )
        # (4) re-plan against the new cluster.  Gated on the run's own
        # replan flag so fixed-strategy runs stay on their strategy (they
        # still survive the change).
        if self.replan:
            plan = context.select(self.config.strategies)
            self._emit(
                "elastic_replan",
                epoch=epoch,
                old=self.strategy,
                chosen=plan.chosen,
                switched=plan.chosen != self.strategy,
            )
            self._adopt(plan)

    def _build_trainer(self) -> None:
        ctx = self.apt.context.execution_context(
            self.cluster,
            numerics=self.numerics,
            telemetry=self.collector,
            backend=self.backend,
        )
        self.trainer = ParallelTrainer(
            make_strategy(self.strategy), ctx, self.optimizer
        )
        self.timelines.append(ctx.timeline)

    def _continue_ledgers(self) -> None:
        """First trainer of a resumed run: continue the saved ledgers iff
        the uninterrupted run would have kept its trainer — i.e. the
        effective cluster is the one the checkpoint saw.  On cluster
        change the uninterrupted run rebuilt with fresh ledgers, and so
        did we; the saved ledger is then a closed segment."""
        saved, self._resumed = self._resumed, None
        if saved is None:
            return
        ctx = self.trainer.ctx
        if saved["cluster"] == self.cluster:
            ctx.timeline.load_state_dict(saved["timeline"])
            restore_recorder(ctx.recorder, saved["recorder"])
        else:
            self.timelines.insert(
                -1, Timeline.from_state_dict(saved["timeline"])
            )

    def _replan_on_drift(self, epoch: int, result: EpochResult) -> None:
        """Re-profile, re-plan, and hot-switch if the planner says so."""
        if (
            not self.replan
            or self.estimate is None
            or epoch >= self.num_epochs - 1
        ):
            return
        if self.cooldown > 0:
            self.cooldown -= 1
            return
        reading = self.detector.reading(epoch, self.estimate, result.phases)
        if not reading.exceeded:
            return
        # Profile the hardware as it is now, under the current partition.
        plan = self.apt.context.on(self.cluster).select(self.config.strategies)
        old = self.strategy
        self.report.replans.append(
            ReplanEvent(
                epoch=epoch,
                drift=reading,
                old_strategy=old,
                new_strategy=plan.chosen,
                estimates={n: e.total for n, e in plan.estimates.items()},
            )
        )
        sim_time = self.trainer.ctx.timeline.wall_seconds
        self._emit(
            "replan",
            sim_time=sim_time,
            epoch=epoch,
            drift=reading.max_abs,
            worst_term=reading.worst_term,
            chosen=plan.chosen,
        )
        if self._adopt(plan):
            self._emit(
                "switch", sim_time=sim_time, epoch=epoch, old=old,
                new=plan.chosen,
            )
            self._build_trainer()

    def _adopt(self, plan: PlanReport) -> bool:
        """Make ``plan``'s choice the run's strategy and trusted estimate;
        returns whether the strategy changed."""
        switched = plan.chosen != self.strategy
        self.strategy = plan.chosen
        self.estimate = plan.estimates[plan.chosen]
        self.cooldown = self.config.replan_cooldown
        return switched

    def _checkpoint(self, epoch: int, *, epochs_completed: int) -> None:
        """Persist everything a resumed run needs to continue bit for bit."""
        ctx = self.trainer.ctx
        path = self.manager.save(
            epochs_completed=epochs_completed,
            config_dict=self.config.to_dict(),
            run_args=self.run_args,
            state={
                "model": self.apt.model.state_dict(),
                "optimizer": self.optimizer.state_dict(),
                "collector": self.collector,
                "detector_history": list(self.detector.history),
                "estimate": self.estimate,
                "epochs": list(self.epochs),
                "breakdown": dict(self.breakdown),
                "current_strategy": self.strategy,
                "cooldown": int(self.cooldown),
                "replans": list(self.report.replans),
                "faults": list(self.report.faults),
                "strategy_by_epoch": list(self.report.strategy_by_epoch),
                "cluster": self.cluster,
                "timeline": ctx.timeline.state_dict(),
                "recorder": recorder_state(ctx.recorder),
                "segments": [t.state_dict() for t in self.timelines[:-1]],
            },
        )
        self._emit("checkpoint", epoch=epoch, path=path)
