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
``epoch_seconds``, ...).  The Run half — the epoch loop and its boundary
decisions — is :class:`~repro.core.run.TrainingRun`; this module builds
the execution backend and hands it over.

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

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.faults import FaultSchedule
from repro.cluster.spec import ClusterSpec
from repro.config import APTConfig
from repro.core.checkpoint import CheckpointManager
from repro.core.costmodel import CostEstimate, CostModel
from repro.core.dryrun import DryRun, DryRunStats
from repro.core.planner import Planner, PlanReport
from repro.core.report import RunReport
from repro.core.run import TrainingRun
from repro.engine import STRATEGIES, is_layerwise_spec, parse_layerwise
from repro.engine.context import ExecutionContext
from repro.graph.datasets import GraphDataset
from repro.graph.partition import (
    CoarseningHierarchy,
    metis_like_partition,
    random_partition,
    streaming_partition,
)
from repro.models.base import GNNModel
from repro.obs.telemetry import TelemetryCollector
from repro.parallel import make_backend
from repro.sampling.cache import SampleCache

__all__ = ["APT"]


class APT:
    """Adaptive parallel training for one GNN task on one cluster.

    Parameters
    ----------
    dataset / model / cluster:
        The GNN training task (paper "Prepare" inputs).
    config:
        An :class:`~repro.config.APTConfig` (default: ``APTConfig()``).
    """

    def __init__(
        self,
        dataset: GraphDataset,
        model: GNNModel,
        cluster: ClusterSpec,
        config: Optional[APTConfig] = None,
    ):
        if config is not None and not isinstance(config, APTConfig):
            # Pre-redesign signature: 4th positional argument was `fanouts`.
            raise TypeError(
                "APT(dataset, model, cluster, fanouts) was removed; pass "
                "APT(dataset, model, cluster, APTConfig(fanouts=...)) instead"
            )
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
        if reset_model and resume is None:
            self.model.load_state_dict(self._initial_state)
        run = TrainingRun(
            self,
            name,
            num_epochs,
            lr=lr,
            numerics=numerics,
            faults=faults,
            replan=replan,
            resume=resume,
        )
        # One execution backend per run: it outlives trainer rebuilds on
        # cluster change or strategy switch.  (The process backend's workers
        # and shared-memory export outlive the run too: closing it returns
        # them to idle for the next run over this dataset.)
        backend = make_backend(self.config, self.dataset)
        try:
            return run.execute(backend)
        finally:
            backend.close()

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
