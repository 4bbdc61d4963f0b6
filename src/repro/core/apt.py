"""The APT facade: Prepare -> Plan -> Adapt -> Run (paper Fig. 4), plus the
online-adaptivity loop (telemetry -> drift detection -> re-planning).

Typical use::

    config = APTConfig(fanouts=(10, 10, 10), replan=True)
    apt = APT(dataset, model, cluster, config)
    apt.prepare()                    # partition graph, place features, profile
    report = apt.plan()              # dry-run all strategies, pick the best
    report = apt.run(num_epochs=5)   # execute; re-plans if phase times drift
    print(report.to_json(indent=2))  # plan + epochs + telemetry + re-plans

Every entry point returns a :class:`~repro.core.report.RunReport` (the
report still delegates the legacy attributes ``chosen``, ``epochs``,
``epoch_seconds``, ...).  The pre-redesign kwargs surface
(``APT(ds, model, cluster, fanouts=[...], seed=...)``) is gone: passing a
legacy kwarg raises a ``TypeError`` naming the ``APTConfig`` field to use
instead.

``run_strategy`` executes a *fixed* strategy from the same initial model
state — the benchmarks use it to produce the per-strategy epoch times the
paper's figures compare against APT's automatic choice.  Both ``run`` and
``run_strategy`` accept a :class:`~repro.cluster.faults.FaultSchedule`:
faults degrade the simulated cluster at epoch boundaries, and (with
``replan`` enabled) the drift detector notices the observed/estimated gap
and hot-switches the strategy between epochs.  Model and optimizer state
carry over across a switch, and the engine's semantic-equivalence property
(all strategies apply identical updates) makes the switch loss-transparent
— pinned by ``tests/core/test_replan.py``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.faults import MEMBERSHIP_KINDS, FaultSchedule
from repro.cluster.spec import ClusterSpec
from repro.config import APTConfig, ElasticPolicy
from repro.core.adapter import adapt_strategy
from repro.core.apt_result import APTRunResult
from repro.core.checkpoint import (
    Checkpoint,
    CheckpointManager,
    recorder_state,
    restore_recorder,
)
from repro.core.costmodel import CostEstimate, CostModel
from repro.core.dryrun import DryRun, DryRunStats
from repro.core.planner import Planner, PlanReport
from repro.core.report import ReplanEvent, RunReport
from repro.engine import STRATEGIES, is_layerwise_spec, parse_layerwise
from repro.engine.context import ExecutionContext
from repro.engine.trainer import ParallelTrainer
from repro.graph.datasets import GraphDataset
from repro.graph.partition import (
    CoarseningHierarchy,
    metis_like_partition,
    random_partition,
    streaming_partition,
)
from repro.models.base import GNNModel
from repro.obs.drift import DriftDetector
from repro.obs.telemetry import TelemetryCollector
from repro.parallel import make_backend
from repro.sampling.cache import SampleCache
from repro.tensor.optim import Adam

__all__ = ["APT", "APTRunResult"]

#: legacy ``APT.__init__`` kwargs and the config fields they map to
_LEGACY_KWARGS = (
    "fanouts",
    "global_batch_size",
    "partition",
    "seed",
    "bandwidth_noise",
    "cpu_sampling",
    "compute_skew",
    "overlap",
)


class APT:
    """Adaptive parallel training for one GNN task on one cluster.

    Parameters
    ----------
    dataset / model / cluster:
        The GNN training task (paper "Prepare" inputs).
    config:
        An :class:`~repro.config.APTConfig`.  The pre-redesign kwargs
        (``fanouts=...``, ``seed=...``, ...) are rejected with a
        ``TypeError`` pointing at the config field to set instead.
    """

    def __init__(
        self,
        dataset: GraphDataset,
        model: GNNModel,
        cluster: ClusterSpec,
        config: Optional[Union[APTConfig, Sequence[int]]] = None,
        **legacy: object,
    ):
        if config is not None and not isinstance(config, APTConfig):
            # Pre-redesign signature: 4th positional argument was `fanouts`.
            raise TypeError(
                "APT(dataset, model, cluster, fanouts) was removed; pass "
                "APT(dataset, model, cluster, APTConfig(fanouts=...)) instead"
            )
        if legacy:
            known = sorted(set(legacy) & set(_LEGACY_KWARGS))
            unknown = sorted(set(legacy) - set(_LEGACY_KWARGS))
            if known:
                example = ", ".join(f"{k}=..." for k in known)
                raise TypeError(
                    f"APT(dataset, model, cluster, {example}) was removed; "
                    f"pass APT(dataset, model, cluster, APTConfig({example})) "
                    "instead"
                )
            raise TypeError(f"unexpected APT keyword arguments: {unknown}")
        self.config = config if config is not None else APTConfig()

        if model.num_layers != len(self.config.fanouts):
            raise ValueError(
                f"model has {model.num_layers} layers but fanouts has "
                f"{len(self.config.fanouts)} entries"
            )
        self.dataset = dataset
        self.model = model
        self.cluster = cluster

        self._initial_state = model.state_dict()
        self.parts: Optional[np.ndarray] = None
        self.node_machine: Optional[np.ndarray] = None
        #: device count ``self.parts`` was computed for; a mismatch with
        #: the epoch's effective cluster triggers the elastic transition
        self._partitioned_devices: Optional[int] = None
        #: the "metis" mode's coarsening of ``(graph, seed)``, shared by the
        #: full-cluster partition, the cost planner's device subsets, and
        #: every elastic re-partition (it does not depend on the part count)
        self._hierarchy: Optional[CoarseningHierarchy] = None
        self.dryrun: Optional[DryRun] = None
        self.dryrun_stats: Dict[str, DryRunStats] = {}
        self.plan_report: Optional[PlanReport] = None
        self.serve_plan_report: Optional[PlanReport] = None
        #: telemetry from the most recent :meth:`plan` (pareto_select)
        self.plan_collector: Optional[TelemetryCollector] = None
        #: one sampled-epoch cache shared by every dry-run, census, and
        #: training context of this task (same graph, fanouts, and seed —
        #: the planner's 4 strategy dry-runs re-visit identical epochs)
        self.sample_cache: Optional[SampleCache] = (
            SampleCache(max_bytes=self.config.sample_cache_mb * 1024 * 1024)
            if self.config.sample_cache_mb > 0
            else None
        )

    # ------------------------------------------------------------------ #
    # config delegation (kept as attributes for source compatibility)
    # ------------------------------------------------------------------ #
    @property
    def fanouts(self) -> List[int]:
        return list(self.config.fanouts)

    @fanouts.setter
    def fanouts(self, value) -> None:
        self.config.fanouts = tuple(value)

    @property
    def global_batch_size(self) -> int:
        return self.config.global_batch_size

    @global_batch_size.setter
    def global_batch_size(self, value) -> None:
        self.config.global_batch_size = int(value)

    @property
    def partition(self):
        return self.config.partition

    @partition.setter
    def partition(self, value) -> None:
        # No eager validation: prepare() reports bad modes (legacy behavior).
        self.config.partition = value

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def bandwidth_noise(self) -> float:
        return self.config.bandwidth_noise

    @property
    def cpu_sampling(self) -> bool:
        return self.config.cpu_sampling

    @property
    def compute_skew(self) -> bool:
        return self.config.compute_skew

    @property
    def overlap(self) -> bool:
        return self.config.overlap

    # ------------------------------------------------------------------ #
    # Prepare
    # ------------------------------------------------------------------ #
    def prepare(self) -> None:
        """Partition the graph and lay out features across machines.

        The node->device partition feeds SNP/DNP; grouping it by hosting
        machine yields the feature placement every strategy shares (the
        paper partitions features across machines without overlap).
        """
        self._partition_for(self.cluster)
        self.dryrun = self._make_dryrun(self.cluster)

    @staticmethod
    def _partition_weights(cluster: ClusterSpec) -> Optional[List[float]]:
        """Per-device speed weights, or ``None`` on a homogeneous cluster.

        ``None`` selects the partitioners' historical equal-share paths, so
        homogeneous digests are bit-for-bit unchanged; a mixed fleet (or a
        ``host_join`` that brought a different device class) cuts parts
        proportional to sustained device throughput.
        """
        if cluster.num_devices > 1 and cluster.is_heterogeneous:
            return cluster.device_weights()
        return None

    def _compute_partition(
        self, cluster: ClusterSpec
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Pure partition computation for ``cluster`` (no state mutation).

        For the named modes this is a pure function of ``(graph,
        num_devices, device weights, seed)`` — the elastic transition
        relies on it: re-partitioning after a membership change yields
        exactly the partition a fresh run on the post-change cluster
        computes.  The planner's device-subset sweep relies on the purity
        too: candidate subsets are partitioned without touching the
        task's active partition.
        """
        partition = self.config.partition
        weights = self._partition_weights(cluster)
        if isinstance(partition, np.ndarray):
            parts = np.asarray(partition, dtype=np.int64)
            if parts.size and int(parts.max()) >= cluster.num_devices:
                raise ValueError(
                    f"explicit partition assigns device "
                    f"{int(parts.max())} but the cluster has "
                    f"{cluster.num_devices} device(s); explicit partitions "
                    f"cannot follow elastic membership changes — use a "
                    f"named partition mode"
                )
        elif partition == "metis":
            if self._hierarchy is None or self._hierarchy.seed != self.seed:
                self._hierarchy = CoarseningHierarchy(
                    self.dataset.graph, self.seed
                )
            parts = metis_like_partition(
                self.dataset.graph, cluster.num_devices, weights=weights,
                hierarchy=self._hierarchy,
            )
        elif partition == "streaming":
            parts = streaming_partition(
                self.dataset.graph, cluster.num_devices, seed=self.seed,
                weights=weights,
            )
        elif partition == "random":
            parts = random_partition(
                self.dataset.num_nodes, cluster.num_devices, seed=self.seed,
                weights=weights,
            )
        else:
            raise ValueError(f"unknown partition mode {partition!r}")
        machine_of_device = np.array(
            [cluster.machine_of(d) for d in range(cluster.num_devices)],
            dtype=np.int64,
        )
        return parts, machine_of_device[parts]

    def _partition_for(self, cluster: ClusterSpec) -> None:
        """(Re)compute the node->device partition for ``cluster``."""
        self.parts, self.node_machine = self._compute_partition(cluster)
        self._partitioned_devices = cluster.num_devices

    def _disk_promote_bytes(self) -> Optional[float]:
        mb = self.config.disk_promote_mb
        return None if mb is None else float(mb) * 2**20

    def _make_dryrun(
        self,
        cluster: ClusterSpec,
        parts: Optional[np.ndarray] = None,
        node_machine: Optional[np.ndarray] = None,
        *,
        access_freq: Optional[np.ndarray] = None,
    ) -> DryRun:
        """A dry-run on ``cluster`` under the given (default: the active)
        partition.  The access census depends only on the sampler, not the
        hardware or the partition: re-plans pass the prepared dry-run's
        ``access_freq`` instead of re-counting it."""
        return DryRun(
            self.dataset,
            cluster,
            self.model,
            self.fanouts,
            parts=self.parts if parts is None else parts,
            node_machine=(
                self.node_machine if node_machine is None else node_machine
            ),
            global_batch_size=self.global_batch_size,
            sampler_seed=self.seed,
            shuffle_seed=self.seed,
            sample_cache=self.sample_cache,
            reuse_samples=self.sample_cache is not None,
            disk_promote_bytes=self._disk_promote_bytes(),
            access_freq=access_freq,
        )

    def _require_prepared(self) -> None:
        if self.dryrun is None:
            self.prepare()

    # ------------------------------------------------------------------ #
    # Plan
    # ------------------------------------------------------------------ #
    def _cost_model(self, cluster: ClusterSpec) -> CostModel:
        """Profile ``cluster``'s operator bandwidths (the Prepare trials).

        Re-planning calls this against the *currently effective* (possibly
        degraded) cluster — profiling measures whatever the hardware does
        now, which is exactly how drift gets absorbed into fresh estimates.
        """
        return CostModel(
            cluster,
            self.dataset.feature_dim,
            bandwidth_noise=self.bandwidth_noise,
            noise_seed=self.seed,
            include_compute_skew=self.compute_skew,
        )

    def plan(
        self,
        strategies: Optional[Sequence[str]] = None,
        *,
        objective: str = "epoch",
        budget_seconds: Optional[float] = None,
        budget_dollars: Optional[float] = None,
        device_subsets: Optional[bool] = None,
    ) -> RunReport:
        """Dry-run the candidate strategies and select the best.

        ``objective="epoch"`` (default) picks the fastest, optionally the
        fastest under ``budget_dollars``; ``objective="cost"`` picks the
        cheapest whose epoch time fits ``budget_seconds``, sweeping
        strategies x candidate device subsets (each subset cluster gets
        its own speed-proportional partition, dry-run, and $-rate — a
        ``dnp@drop0`` candidate means "run dnp without machine 0").
        ``device_subsets`` defaults to on for the cost objective on
        multi-machine clusters; the full (time, $) Pareto frontier lands
        in ``PlanReport.pareto`` either way (DESIGN.md §5.17).
        """
        self.config.validate()
        self._require_prepared()
        strategies = tuple(strategies if strategies is not None else self.config.strategies)
        self.dryrun_stats = {s: self.dryrun.run(s) for s in strategies}
        if device_subsets is None:
            device_subsets = (
                objective == "cost" and self.cluster.num_machines > 1
            )
        extra: Dict[str, CostEstimate] = {}
        subset_meta: Dict[str, dict] = {}
        if device_subsets and self.cluster.num_machines > 1:
            extra, subset_meta = self._subset_candidates(strategies)
        self.plan_report = Planner(self._cost_model(self.cluster)).select(
            self.dryrun_stats,
            objective=objective,
            budget_seconds=budget_seconds,
            budget_dollars=budget_dollars,
            extra_estimates=extra,
        )
        self.plan_report.subsets = subset_meta
        report = RunReport(plan=self.plan_report, config=self.config.to_dict())
        if self.config.telemetry and objective != "latency":
            collector = TelemetryCollector()
            chosen = self.plan_report.estimates[self.plan_report.chosen]
            collector.emit(
                "pareto_select",
                chosen=self.plan_report.chosen,
                objective=objective,
                total=float(chosen.total),
                dollars=float(chosen.dollars),
                frontier_size=len(self.plan_report.pareto),
                dominated=(
                    len(self.plan_report.estimates)
                    - len(self.plan_report.pareto)
                ),
            )
            self.plan_collector = collector
            report.collector = collector
            report.telemetry = collector.summary()
        return report

    def _subset_candidates(
        self, strategies: Tuple[str, ...]
    ) -> Tuple[Dict[str, CostEstimate], Dict[str, dict]]:
        """Cost estimates for dropping each machine from the cluster.

        Each deduplicated candidate subset gets its own speed-proportional
        partition and dry-run (sharing the task's SampleCache — sampling
        is partition-independent, so batches are never re-sampled) and is
        priced by a cost model profiled on that subset.  Candidate names
        are ``<strategy>@drop<machine>``.
        """
        extra: Dict[str, CostEstimate] = {}
        meta: Dict[str, dict] = {}
        seen = set()
        for m in range(self.cluster.num_machines):
            sub = self.cluster.without_machine(m)
            if sub in seen:
                continue
            seen.add(sub)
            parts, node_machine = self._compute_partition(sub)
            dryrun = self._make_dryrun(
                sub, parts, node_machine, access_freq=self.dryrun.access_freq
            )
            cost_model = self._cost_model(sub)
            for s in strategies:
                try:
                    stats = dryrun.run(s)
                except (KeyError, ValueError):
                    continue  # strategy infeasible on this subset shape
                name = f"{s}@drop{m}"
                extra[name] = cost_model.estimate(stats)
                meta[name] = {
                    "strategy": s,
                    "dropped_machine": m,
                    "machines": sub.num_machines,
                    "devices": sub.num_devices,
                    "dollars_per_hour": sub.dollars_per_hour(),
                }
        return extra, meta

    def plan_layerwise(
        self, *, beam_width: int = 3, include_singles: bool = True
    ) -> RunReport:
        """Beam-search per-layer strategy compositions (DESIGN.md §5.15).

        Every candidate's dry-run shares ``self.dryrun``: one
        :class:`~repro.sampling.cache.SampleCache` (each global batch is
        sampled exactly once), one set of regrouped node-layout blocks, and
        the stats of any spec :meth:`plan` already dry-ran (DESIGN.md
        §5.9).  Single strategies participate in the final ranking; the
        chosen spec may be either kind and feeds :meth:`run` unchanged.
        """
        self.config.validate()
        self._require_prepared()
        self.plan_report = Planner(
            self._cost_model(self.cluster)
        ).search_layerwise(
            self.dryrun.run,
            self.model.num_layers,
            beam_width=beam_width,
            include_singles=include_singles,
        )
        return RunReport(plan=self.plan_report, config=self.config.to_dict())

    def plan_serving(
        self,
        *,
        batch_size: int = 32,
        max_wait_s: float = 0.0,
        strategies: Optional[Sequence[str]] = None,
    ) -> RunReport:
        """Rank strategies by predicted per-request serving latency.

        Same dry-run statistics as :meth:`plan` (the dry-run keeps them, so
        nothing is re-run), but scored under the planner's ``"latency"``
        objective (DESIGN.md §5.13): predicted p99 per-request latency at
        the given dynamic-batching shape instead of epoch seconds.  The chosen
        strategy seeds :class:`~repro.serve.engine.ServeEngine` when no
        strategy (or checkpoint) pins one.
        """
        self.config.validate()
        self._require_prepared()
        strategies = tuple(
            strategies if strategies is not None else self.config.strategies
        )
        self.serve_plan_report = Planner(self._cost_model(self.cluster)).select(
            {name: self.dryrun.run(name) for name in strategies},
            objective="latency",
            batch_size=batch_size,
            seeds_per_epoch=int(len(self.dataset.train_seeds)),
            max_wait_s=max_wait_s,
        )
        return RunReport(
            plan=self.serve_plan_report, config=self.config.to_dict()
        )

    def _replan(
        self, cluster: ClusterSpec, strategies: Tuple[str, ...]
    ) -> PlanReport:
        """Fresh dry-run + profiling against the currently effective spec."""
        dryrun = self._make_dryrun(
            cluster, access_freq=self.dryrun.access_freq
        )
        stats = {s: dryrun.run(s) for s in strategies}
        return Planner(self._cost_model(cluster)).select(stats)

    # ------------------------------------------------------------------ #
    # Adapt + Run
    # ------------------------------------------------------------------ #
    def _build_context(
        self,
        cluster: Optional[ClusterSpec] = None,
        numerics: bool = True,
        telemetry: Optional[TelemetryCollector] = None,
        backend=None,
    ) -> ExecutionContext:
        return ExecutionContext.build(
            self.dataset,
            cluster if cluster is not None else self.cluster,
            self.model,
            self.fanouts,
            parts=self.parts,
            node_machine=self.node_machine,
            access_freq=self.dryrun.access_freq if self.dryrun else None,
            global_batch_size=self.global_batch_size,
            sampler_seed=self.seed,
            shuffle_seed=self.seed,
            cpu_sampling=self.cpu_sampling,
            numerics=numerics,
            overlap=self.overlap,
            telemetry=telemetry,
            sample_cache=self.sample_cache,
            backend=backend,
            disk_promote_bytes=self._disk_promote_bytes(),
        )

    def _make_trainer(
        self,
        strategy_name: str,
        cluster: ClusterSpec,
        optimizer,
        numerics: bool,
        telemetry: Optional[TelemetryCollector],
        backend=None,
    ) -> ParallelTrainer:
        ctx = self._build_context(
            cluster, numerics=numerics, telemetry=telemetry, backend=backend
        )
        return ParallelTrainer(adapt_strategy(strategy_name, ctx), ctx, optimizer)

    def run_strategy(
        self,
        name: str,
        num_epochs: int = 1,
        *,
        lr: float = 1e-3,
        reset_model: bool = True,
        numerics: bool = True,
        faults: Optional[FaultSchedule] = None,
        replan: bool = False,
        resume: Optional[str] = None,
    ) -> RunReport:
        """Execute a fixed strategy for ``num_epochs`` simulated epochs.

        ``numerics=False`` runs in timing-only mode: the identical simulated
        time is charged but tensor math is skipped (use for performance
        sweeps; losses come back NaN).  ``faults`` degrades the simulated
        cluster at epoch boundaries; with ``replan=True`` the run behaves
        like :meth:`run` and may hot-switch away from ``name``.

        ``resume`` continues a checkpointed run from the given directory:
        the remaining epochs execute bit-identically to the uninterrupted
        run (``config.checkpoint_dir`` enables writing checkpoints; see
        DESIGN.md §5.11).
        """
        if name not in STRATEGIES:
            if not is_layerwise_spec(name):
                raise KeyError(f"unknown strategy {name!r}")
            names = parse_layerwise(name)  # raises ValueError if malformed
            if len(names) != self.model.num_layers:
                raise ValueError(
                    f"layerwise spec {name!r} assigns {len(names)} layers "
                    f"but the model has {self.model.num_layers}"
                )
        self.config.validate()
        self._require_prepared()
        return self._run_loop(
            name,
            num_epochs,
            lr=lr,
            reset_model=reset_model,
            numerics=numerics,
            faults=faults,
            replan=replan,
            resume=resume,
        )

    def run(
        self,
        num_epochs: int = 1,
        *,
        strategy: Optional[str] = None,
        lr: float = 1e-3,
        faults: Optional[FaultSchedule] = None,
        replan: Optional[bool] = None,
        numerics: bool = True,
        resume: Optional[str] = None,
    ) -> RunReport:
        """Adapt to the planned (or given) strategy and train.

        ``replan`` defaults to ``config.replan``; when enabled, each epoch's
        observed T_build/T_load/T_shuffle are compared against the active
        estimate and the planner re-runs past ``config.drift_threshold``.
        ``resume`` continues a checkpointed run (see :meth:`run_strategy`);
        the resumed run re-adopts its checkpointed strategy, so planning is
        skipped.
        """
        if resume is not None and strategy is None:
            # The checkpoint knows what was running; don't re-plan over it.
            strategy = CheckpointManager(resume).load().manifest["run_args"][
                "strategy"
            ]
        if strategy is None:
            if self.plan_report is None:
                self.plan()
            strategy = self.plan_report.chosen
            if "@drop" in strategy:
                base, dropped = strategy.split("@drop", 1)
                raise ValueError(
                    f"the plan chose device-subset candidate {strategy!r}; "
                    f"executing it means training without machine {dropped} "
                    f"— rebuild APT with cluster.without_machine({dropped}) "
                    f"and run strategy {base!r}, or pass strategy= explicitly"
                )
        if replan is None:
            replan = self.config.replan
        return self.run_strategy(
            strategy,
            num_epochs,
            lr=lr,
            faults=faults,
            replan=bool(replan),
            numerics=numerics,
            resume=resume,
        )

    # ------------------------------------------------------------------ #
    def _active_estimate(
        self, strategy: str, replan: bool
    ) -> Optional[CostEstimate]:
        """The estimate the drift detector trusts at run start."""
        if not replan:
            return None
        if self.plan_report is not None and strategy in self.plan_report.estimates:
            return self.plan_report.estimates[strategy]
        stats = self.dryrun.run(strategy)
        return self._cost_model(self.cluster).estimate(stats)

    def _run_loop(
        self,
        strategy_name: str,
        num_epochs: int,
        *,
        lr: float,
        reset_model: bool,
        numerics: bool,
        faults: Optional[FaultSchedule],
        replan: bool,
        resume: Optional[str] = None,
    ) -> RunReport:
        """The shared epoch loop: faults in, telemetry out, drift-replans."""
        checkpoint: Optional[Checkpoint] = None
        resume_warnings: List[Dict[str, str]] = []
        if resume is not None:
            resume_mgr = CheckpointManager(
                resume, keep=self.config.checkpoint_keep
            )
            checkpoint = resume_mgr.load()
            resume_warnings = list(resume_mgr.warnings)
            resume_mgr.verify_config(checkpoint, self.config.to_dict())
            if checkpoint.epochs_completed >= num_epochs:
                raise ValueError(
                    f"checkpoint at {checkpoint.path!r} already covers "
                    f"{checkpoint.epochs_completed} epochs; pass "
                    f"num_epochs > {checkpoint.epochs_completed} to continue"
                )
        if reset_model and checkpoint is None:
            self.model.load_state_dict(self._initial_state)
        collector = TelemetryCollector() if self.config.telemetry else None
        optimizer = Adam(self.model.parameters(), lr=lr)
        detector = DriftDetector(threshold=self.config.drift_threshold)

        start_epoch = 0
        loop_state: Dict[str, object] = {}
        if checkpoint is None:
            estimate = self._active_estimate(strategy_name, replan)
        else:
            state = checkpoint.state
            self.model.load_state_dict(state["model"])
            optimizer.load_state_dict(state["optimizer"])
            if collector is not None and state.get("collector") is not None:
                collector = state["collector"]
            detector.history = list(state["detector_history"])
            estimate = state["estimate"]
            start_epoch = checkpoint.epochs_completed
            loop_state = dict(
                epochs=list(state["epochs"]),
                breakdown=dict(state["breakdown"]),
                current_strategy=state["current_strategy"],
                cooldown=int(state["cooldown"]),
                restore=state,
            )
            if collector is not None:
                for warning in resume_warnings:
                    # A newer checkpoint was corrupt; we fell back to an
                    # older valid one instead of crashing.
                    collector.emit(
                        "checkpoint_corrupt", epoch=start_epoch, **warning
                    )
                collector.emit(
                    "resume", epoch=start_epoch, path=checkpoint.path
                )

        report = RunReport(plan=self.plan_report, config=self.config.to_dict())
        if checkpoint is not None:
            report.replans = list(checkpoint.state["replans"])
            report.faults = list(checkpoint.state["faults"])
            report.strategy_by_epoch = list(
                checkpoint.state["strategy_by_epoch"]
            )

        manager: Optional[CheckpointManager] = None
        checkpoint_dir = self.config.checkpoint_dir or resume
        if checkpoint_dir is not None:
            manager = CheckpointManager(
                checkpoint_dir, keep=self.config.checkpoint_keep
            )
        run_meta = {
            "strategy": strategy_name,
            "lr": float(lr),
            "numerics": bool(numerics),
            "replan": bool(replan),
            "faults": faults.to_dict() if faults is not None else None,
        }

        # One execution backend per run: the process pool (and its shared-
        # memory graph/feature export) outlives trainer rebuilds on cluster
        # change or strategy switch.
        backend = make_backend(self.config, self.dataset)
        try:
            epochs, breakdown, current_strategy, trainer = self._epoch_loop(
                strategy_name=strategy_name,
                num_epochs=num_epochs,
                numerics=numerics,
                faults=faults,
                replan=replan,
                collector=collector,
                optimizer=optimizer,
                detector=detector,
                estimate=estimate,
                report=report,
                backend=backend,
                start_epoch=start_epoch,
                manager=manager,
                run_meta=run_meta,
                **loop_state,
            )
        finally:
            backend.close()

        report.result = APTRunResult(
            strategy=current_strategy,
            epochs=epochs,
            recorder=trainer.ctx.recorder,
            breakdown=breakdown,
        )
        if collector is not None:
            report.telemetry = collector.summary()
            report.collector = collector
        return report

    def _epoch_loop(
        self,
        *,
        strategy_name: str,
        num_epochs: int,
        numerics: bool,
        faults: Optional[FaultSchedule],
        replan: bool,
        collector: Optional[TelemetryCollector],
        optimizer,
        detector: DriftDetector,
        estimate: Optional[CostEstimate],
        report: RunReport,
        backend,
        start_epoch: int = 0,
        epochs: Optional[list] = None,
        breakdown: Optional[Dict[str, float]] = None,
        current_strategy: Optional[str] = None,
        cooldown: int = 0,
        restore: Optional[Dict[str, object]] = None,
        manager: Optional[CheckpointManager] = None,
        run_meta: Optional[Dict[str, object]] = None,
    ):
        base_cluster = self.cluster
        current_cluster: Optional[ClusterSpec] = None
        current_strategy = current_strategy or strategy_name
        trainer: Optional[ParallelTrainer] = None
        epochs = epochs if epochs is not None else []
        breakdown = breakdown if breakdown is not None else {}

        for epoch in range(start_epoch, num_epochs):
            cluster_e = (
                faults.cluster_at(base_cluster, epoch) if faults else base_cluster
            )
            if faults is not None:
                for event in faults.events_at(epoch):
                    record = event.to_dict()
                    report.faults.append({"epoch": epoch, "fault": record})
                    if collector is not None:
                        collector.emit("fault", epoch=epoch, fault=record)
            if cluster_e.num_devices != self._partitioned_devices:
                # Membership changed (host_leave/host_join/recover): the
                # node->device partition is stale.  Quiesce, checkpoint,
                # re-partition, and possibly re-plan before the trainer
                # rebuild below picks up the new device set.
                current_strategy, estimate, cooldown = self._elastic_transition(
                    cluster_e=cluster_e,
                    epoch=epoch,
                    events=[
                        e
                        for e in (faults.events_at(epoch) if faults else [])
                        if e.kind in MEMBERSHIP_KINDS
                    ],
                    replan=replan,
                    collector=collector,
                    optimizer=optimizer,
                    detector=detector,
                    trainer=trainer,
                    current_cluster=current_cluster,
                    current_strategy=current_strategy,
                    estimate=estimate,
                    cooldown=cooldown,
                    epochs=epochs,
                    breakdown=breakdown,
                    report=report,
                    backend=backend,
                    manager=manager,
                    run_meta=run_meta,
                )
            if trainer is None or cluster_e != current_cluster:
                # (Re)build the engine on the currently effective hardware;
                # model and optimizer state carry over untouched.
                current_cluster = cluster_e
                trainer = self._make_trainer(
                    current_strategy,
                    current_cluster,
                    optimizer,
                    numerics,
                    collector,
                    backend=backend,
                )
            if restore is not None:
                # First trainer of a resumed run: continue the saved ledgers
                # iff the uninterrupted run would have kept its trainer —
                # i.e. the effective cluster is the one the checkpoint saw.
                # On cluster change the uninterrupted run rebuilds with
                # fresh ledgers, and so did we.
                if restore["cluster"] == cluster_e:
                    trainer.ctx.timeline.load_state_dict(restore["timeline"])
                    restore_recorder(trainer.ctx.recorder, restore["recorder"])
                restore = None

            result = trainer.train_epoch(epoch)
            epochs.append(result)
            report.strategy_by_epoch.append(current_strategy)
            for key, value in result.breakdown.items():
                breakdown[key] = breakdown.get(key, 0.0) + value

            if replan and estimate is not None and epoch < num_epochs - 1:
                if cooldown > 0:
                    cooldown -= 1
                else:
                    reading = detector.reading(epoch, estimate, result.phases)
                    if reading.exceeded:
                        estimate, current_strategy, trainer, cooldown = (
                            self._apply_replan(
                                reading=reading,
                                epoch=epoch,
                                current_cluster=current_cluster,
                                current_strategy=current_strategy,
                                trainer=trainer,
                                optimizer=optimizer,
                                numerics=numerics,
                                collector=collector,
                                report=report,
                                backend=backend,
                            )
                        )

            if manager is not None and (
                (epoch + 1) % self.config.checkpoint_every == 0
                or epoch == num_epochs - 1
            ):
                path = manager.save(
                    epochs_completed=epoch + 1,
                    config_dict=self.config.to_dict(),
                    run_args=run_meta or {},
                    state=self._checkpoint_state(
                        optimizer=optimizer,
                        collector=collector,
                        detector=detector,
                        estimate=estimate,
                        epochs=epochs,
                        breakdown=breakdown,
                        current_strategy=current_strategy,
                        cooldown=cooldown,
                        report=report,
                        cluster=current_cluster,
                        trainer=trainer,
                    ),
                )
                if collector is not None:
                    collector.emit("checkpoint", epoch=epoch, path=path)

        return epochs, breakdown, current_strategy, trainer

    def _apply_replan(
        self,
        *,
        reading,
        epoch: int,
        current_cluster: ClusterSpec,
        current_strategy: str,
        trainer: ParallelTrainer,
        optimizer,
        numerics: bool,
        collector: Optional[TelemetryCollector],
        report: RunReport,
        backend,
    ):
        """Re-profile, re-plan, and hot-switch if the planner says so."""
        new_plan = self._replan(current_cluster, self.config.strategies)
        event = ReplanEvent(
            epoch=epoch,
            drift=reading,
            old_strategy=current_strategy,
            new_strategy=new_plan.chosen,
            estimates={n: e.total for n, e in new_plan.estimates.items()},
        )
        report.replans.append(event)
        estimate = new_plan.estimates[new_plan.chosen]
        cooldown = self.config.replan_cooldown
        if collector is not None:
            collector.emit(
                "replan",
                sim_time=trainer.ctx.timeline.wall_seconds,
                epoch=epoch,
                drift=reading.max_abs,
                worst_term=reading.worst_term,
                chosen=new_plan.chosen,
            )
        if new_plan.chosen != current_strategy:
            if collector is not None:
                collector.emit(
                    "switch",
                    sim_time=trainer.ctx.timeline.wall_seconds,
                    epoch=epoch,
                    old=current_strategy,
                    new=new_plan.chosen,
                )
            current_strategy = new_plan.chosen
            trainer = self._make_trainer(
                current_strategy,
                current_cluster,
                optimizer,
                numerics,
                collector,
                backend=backend,
            )
        return estimate, current_strategy, trainer, cooldown

    def _elastic_transition(
        self,
        *,
        cluster_e: ClusterSpec,
        epoch: int,
        events: list,
        replan: bool,
        collector: Optional[TelemetryCollector],
        optimizer,
        detector: DriftDetector,
        trainer: Optional[ParallelTrainer],
        current_cluster: Optional[ClusterSpec],
        current_strategy: str,
        estimate: Optional[CostEstimate],
        cooldown: int,
        epochs: list,
        breakdown: Dict[str, float],
        report: RunReport,
        backend,
        manager: Optional[CheckpointManager],
        run_meta: Optional[Dict[str, object]],
    ):
        """Survive a cluster-membership change (DESIGN.md §5.16).

        Order matters: (1) quiesce the backend so no in-flight task split
        for the old device set lands later, (2) take (or reuse) an atomic
        checkpoint at this epoch boundary, (3) re-partition for the new
        device set, (4) re-plan and hot-switch if the ranking changed.
        The caller's cluster-change path then rebuilds the trainer with
        fresh ledgers — exactly what a fresh run on the post-change
        cluster does when resumed from the same checkpoint, which is why
        the tail is bit-identical to that oracle.
        """
        policy = self.config.elastic_policy or ElasticPolicy()
        before = self._partitioned_devices
        after = cluster_e.num_devices
        if not policy.enabled:
            raise RuntimeError(
                f"cluster membership changed at epoch {epoch} "
                f"({before} -> {after} devices) but elastic execution is "
                f"disabled; set elastic_policy.enabled (REPRO_ELASTIC=1) "
                f"to survive host_leave/host_join events"
            )
        if after < policy.min_devices:
            raise RuntimeError(
                f"membership change at epoch {epoch} leaves {after} "
                f"device(s), below elastic_policy.min_devices="
                f"{policy.min_devices}"
            )
        for event in events:
            if collector is not None:
                extra = (
                    {"device_class": event.device_class}
                    if event.device_class is not None
                    else {}
                )
                collector.emit(
                    event.kind,
                    epoch=epoch,
                    machine=event.machine,
                    devices_before=before,
                    devices_after=after,
                    **extra,
                )
        # (1) quiesce: settle in-flight slots (release or quarantine, never
        # lose), drop the prefetched schedule — its seed chunks were split
        # for the old device set.
        backend.quiesce()
        # (2) checkpoint at this epoch boundary, unless the regular cadence
        # just wrote one covering exactly `epoch` epochs.
        if (
            trainer is not None
            and manager is not None
            and policy.checkpoint_on_change
        ):
            covered = -1
            latest = manager.latest()
            if latest is not None:
                try:
                    covered = int(os.path.basename(latest)[len("epoch-"):])
                except ValueError:
                    covered = -1
            if covered != epoch:
                path = manager.save(
                    epochs_completed=epoch,
                    config_dict=self.config.to_dict(),
                    run_args=run_meta or {},
                    state=self._checkpoint_state(
                        optimizer=optimizer,
                        collector=collector,
                        detector=detector,
                        estimate=estimate,
                        epochs=epochs,
                        breakdown=breakdown,
                        current_strategy=current_strategy,
                        cooldown=cooldown,
                        report=report,
                        cluster=current_cluster,
                        trainer=trainer,
                    ),
                )
                if collector is not None:
                    collector.emit("checkpoint", epoch=epoch, path=path)
        # (3) re-partition for the surviving device set.  The shm export
        # needs no rebuild: it carries the graph and features only, and
        # per-device seed chunks ride in each task payload.
        self._partition_for(cluster_e)
        self.dryrun = self._make_dryrun(
            cluster_e, access_freq=self.dryrun.access_freq
        )
        if collector is not None:
            collector.emit(
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
        # (4) re-plan against the new cluster; hot-switch when the ranking
        # changed.  Gated on the run's own replan flag so fixed-strategy
        # runs stay on their strategy (they still survive the change).
        if replan and policy.replan:
            new_plan = self._replan(cluster_e, self.config.strategies)
            if collector is not None:
                collector.emit(
                    "elastic_replan",
                    epoch=epoch,
                    old=current_strategy,
                    chosen=new_plan.chosen,
                    switched=new_plan.chosen != current_strategy,
                )
            current_strategy = new_plan.chosen
            estimate = new_plan.estimates[new_plan.chosen]
            cooldown = self.config.replan_cooldown
        return current_strategy, estimate, cooldown

    def _checkpoint_state(
        self,
        *,
        optimizer,
        collector: Optional[TelemetryCollector],
        detector: DriftDetector,
        estimate: Optional[CostEstimate],
        epochs: list,
        breakdown: Dict[str, float],
        current_strategy: str,
        cooldown: int,
        report: RunReport,
        cluster: ClusterSpec,
        trainer: ParallelTrainer,
    ) -> Dict[str, object]:
        """Everything :meth:`_run_loop` needs to continue bit-identically."""
        return {
            "model": self.model.state_dict(),
            "optimizer": optimizer.state_dict(),
            "collector": collector,
            "detector_history": list(detector.history),
            "estimate": estimate,
            "epochs": list(epochs),
            "breakdown": dict(breakdown),
            "current_strategy": current_strategy,
            "cooldown": int(cooldown),
            "replans": list(report.replans),
            "faults": list(report.faults),
            "strategy_by_epoch": list(report.strategy_by_epoch),
            "cluster": cluster,
            "timeline": trainer.ctx.timeline.state_dict(),
            "recorder": recorder_state(trainer.ctx.recorder),
            "sample_cache_keys": (
                self.sample_cache.export_keys()
                if self.sample_cache is not None
                else []
            ),
        }

    # ------------------------------------------------------------------ #
    def compare_all(
        self,
        num_epochs: int = 1,
        *,
        lr: float = 1e-3,
        numerics: bool = True,
        strategies: Optional[Sequence[str]] = None,
        faults: Optional[FaultSchedule] = None,
    ) -> Dict[str, RunReport]:
        """Execute the given strategies from identical initial state.

        Defaults to the paper's four; pass ``strategies=(..., "hyb")`` to
        include the future-work hybrid.  A ``faults`` schedule applies
        identically to every strategy — the baseline mode of
        ``benchmarks/bench_online_replan.py``.
        """
        if strategies is None:
            strategies = ("gdp", "nfp", "snp", "dnp")
        return {
            name: self.run_strategy(
                name, num_epochs, lr=lr, numerics=numerics, faults=faults
            )
            for name in strategies
        }
