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

Plan-step state has two owners (DESIGN.md §5.9).  :class:`APT` keeps what
depends on ``(graph, fanouts, seed)`` only: the sample cache, the access
census and the coarsening hierarchy.  A :class:`PlanContext` keeps what
depends on one ``(cluster, partition)``: the partition, the dry-run with its
memos, and the cost model.  ``prepare()`` creates the task's context, a
membership change replaces it, and a drift re-plan or a device-subset
candidate builds a context of its own.

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

import weakref
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.faults import FaultSchedule
from repro.cluster.spec import ClusterSpec
from repro.config import APTConfig
from repro.core.costmodel import CostEstimate, CostModel
from repro.core.dryrun import DryRun, access_frequency_census
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

__all__ = ["APT", "PlanContext"]

#: relative measurement error of the Prepare step's bandwidth-profiling
#: trials (ablations set ``CostModel``'s own parameter directly)
BANDWIDTH_NOISE = 0.02


def partition_weights(cluster: ClusterSpec) -> Optional[List[float]]:
    """Per-device speed weights, or ``None`` on a homogeneous cluster.

    ``None`` selects the partitioners' historical equal-share paths, so
    homogeneous digests are bit-for-bit unchanged; a mixed fleet (or a
    ``host_join`` that brought a different device class) cuts parts
    proportional to sustained device throughput.
    """
    if cluster.num_devices > 1 and cluster.is_heterogeneous:
        return cluster.device_weights()
    return None


class PlanContext:
    """The Plan step's state for one ``(cluster, partition)`` of a task.

    The node->device partition, the dry-run (with its stats and
    regrouped-block memos) and the cost model are pure functions of the
    task and ``cluster``, so they are built together and dropped together.
    ``partition`` defaults to a fresh one for ``cluster``: for the named
    modes a pure function of ``(graph, num_devices, device weights,
    seed)``, which is why an elastic re-partition equals a fresh run's and
    a device-subset candidate never touches the task's partition.  A drift
    re-plan passes the current partition instead (:meth:`on`).
    """

    def __init__(
        self,
        apt: "APT",
        cluster: ClusterSpec,
        partition: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ):
        # A context belongs to its APT, which holds the current one: a
        # strong reference back would make every APT a reference cycle, so
        # a dropped APT (and its sample cache) would live on until the
        # cycle collector ran.
        self._apt = weakref.ref(apt)
        self.cluster = cluster
        config = apt.config
        if partition is None:
            partition = _partition(apt, cluster)
        self.parts, self.node_machine = partition
        #: the profiled operator bandwidths of ``cluster`` (the Prepare
        #: trials); a re-plan on a degraded cluster profiles it afresh,
        #: which is how drift gets absorbed into new estimates
        self.cost_model = CostModel(
            cluster,
            apt.dataset.feature_dim,
            bandwidth_noise=BANDWIDTH_NOISE,
            noise_seed=config.seed,
        )

    @cached_property
    def dryrun(self) -> DryRun:
        return DryRun(self)

    def _owner(self) -> "APT":
        apt = self._apt()
        if apt is None:
            raise RuntimeError(
                "the APT that owns this PlanContext was dropped: keep the "
                "APT alive (in a variable) while its context is used"
            )
        return apt

    def on(self, cluster: ClusterSpec) -> "PlanContext":
        """A context for ``cluster`` under this context's partition."""
        return PlanContext(self._owner(), cluster, (self.parts, self.node_machine))

    def estimate(self, spec: str) -> CostEstimate:
        """The epoch cost estimate of one strategy spec."""
        return self.cost_model.estimate(self.dryrun.run(spec))

    def select(self, strategies: Sequence[str]) -> PlanReport:
        """Dry-run ``strategies`` and pick the fastest (a re-plan)."""
        return Planner(self.cost_model).select(
            {s: self.dryrun.run(s) for s in strategies}
        )

    def execution_context(
        self,
        cluster: Optional[ClusterSpec] = None,
        *,
        numerics: bool = True,
        telemetry: Optional[TelemetryCollector] = None,
        backend=None,
    ) -> ExecutionContext:
        """Fresh ledgers for executing under this partition on ``cluster``
        (default: this context's; a run passes the effective, possibly
        degraded, cluster)."""
        apt = self._owner()
        config = apt.config
        return ExecutionContext.build(
            apt.dataset,
            cluster if cluster is not None else self.cluster,
            apt.model,
            config.fanouts,
            parts=self.parts,
            node_machine=self.node_machine,
            access_freq=apt.access_freq,
            global_batch_size=config.global_batch_size,
            sampler_seed=config.seed,
            shuffle_seed=config.seed,
            cpu_sampling=config.cpu_sampling,
            numerics=numerics,
            overlap=config.overlap,
            telemetry=telemetry,
            sample_cache=apt.sample_cache,
            backend=backend,
            disk_promote_bytes=_disk_promote_bytes(config),
        )


def _disk_promote_bytes(config: APTConfig) -> float:
    return float(config.disk_promote_mb) * 2**20


def _partition(
    apt: "APT", cluster: ClusterSpec
) -> Tuple[np.ndarray, np.ndarray]:
    """The configured partition of ``apt``'s graph for ``cluster``, and the
    machine hosting each node under it."""
    partition = apt.config.partition
    seed = apt.config.seed
    weights = partition_weights(cluster)
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
        parts = metis_like_partition(
            apt.dataset.graph, cluster.num_devices, weights=weights,
            hierarchy=apt.hierarchy,
        )
    elif partition == "streaming":
        parts = streaming_partition(
            apt.dataset.graph, cluster.num_devices, seed=seed, weights=weights,
        )
    elif partition == "random":
        parts = random_partition(
            apt.dataset.num_nodes, cluster.num_devices, seed=seed,
            weights=weights,
        )
    else:
        raise ValueError(f"unknown partition mode {partition!r}")
    machine_of_device = np.array(
        [cluster.machine_of(d) for d in range(cluster.num_devices)],
        dtype=np.int64,
    )
    return parts, machine_of_device[parts]


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
        self._context: Optional[PlanContext] = None
        self._hierarchy: Optional[CoarseningHierarchy] = None
        self._access_freq: Optional[np.ndarray] = None
        #: the last epoch-, cost- or layerwise-objective plan; ``run()``
        #: adopts its choice
        self.plan_report: Optional[PlanReport] = None
        #: one sampled-epoch cache shared by every dry-run, census, and
        #: training context of this task (same graph, fanouts, and seed —
        #: the planner's 4 strategy dry-runs re-visit identical epochs).
        #: Wall-clock only: cached batches are bit-identical to fresh ones.
        self.sample_cache = SampleCache()

    # ------------------------------------------------------------------ #
    # Prepare
    # ------------------------------------------------------------------ #
    def prepare(self, cluster: Optional[ClusterSpec] = None) -> PlanContext:
        """Partition the graph for ``cluster`` (default: the task's) and make
        that the current :attr:`context`.

        The node->device partition feeds SNP/DNP; grouping it by hosting
        machine yields the feature placement every strategy shares (the
        paper partitions features across machines without overlap).  A
        membership change calls this with the surviving cluster.
        """
        self._context = PlanContext(
            self, cluster if cluster is not None else self.cluster
        )
        return self._context

    @property
    def context(self) -> PlanContext:
        """The current plan context (prepared on first use)."""
        if self._context is None:
            self.prepare()
        return self._context

    @property
    def hierarchy(self) -> CoarseningHierarchy:
        """The "metis" mode's coarsening of ``(graph, seed)``, shared by every
        context's partition (it does not depend on the part count)."""
        if self._hierarchy is None or self._hierarchy.seed != self.config.seed:
            self._hierarchy = CoarseningHierarchy(
                self.dataset.graph, self.config.seed
            )
        return self._hierarchy

    @property
    def access_freq(self) -> np.ndarray:
        """Per-node feature-access census of one sampled epoch (§3.2),
        counted once: it depends on the sampler, not the cluster."""
        if self._access_freq is None:
            self._access_freq = access_frequency_census(
                self.dataset,
                self.config.fanouts,
                self.config.global_batch_size,
                sampler_seed=self.config.seed,
                shuffle_seed=self.config.seed,
                sample_cache=self.sample_cache,
            )
        return self._access_freq

    @access_freq.setter
    def access_freq(self, value: np.ndarray) -> None:
        # Ablations swap in another hotness ranking for the cache policies.
        self._access_freq = value

    # ------------------------------------------------------------------ #
    # Plan
    # ------------------------------------------------------------------ #
    def plan(
        self,
        strategies: Optional[Sequence[str]] = None,
        *,
        objective: str = "epoch",
        budget_seconds: Optional[float] = None,
        budget_dollars: Optional[float] = None,
        batch_size: int = 32,
        max_wait_s: float = 0.0,
    ) -> RunReport:
        """Dry-run the candidate strategies and select the best.

        ``objective="epoch"`` (default) picks the fastest, optionally the
        fastest under ``budget_dollars``; ``objective="cost"`` picks the
        cheapest whose epoch time fits ``budget_seconds``, sweeping
        strategies x candidate device subsets (each subset cluster gets
        its own speed-proportional partition, dry-run, and $-rate — a
        ``dnp@drop0`` candidate means "run dnp without machine 0") on
        multi-machine clusters; the full (time, $) Pareto frontier lands
        in ``PlanReport.pareto`` either way (DESIGN.md §5.17).

        ``objective="latency"`` ranks by predicted p99 per-request serving
        latency at the dynamic-batching shape ``batch_size`` /
        ``max_wait_s`` (DESIGN.md §5.13).  Its plan seeds
        :class:`~repro.serve.engine.ServeEngine` and is not kept as
        :attr:`plan_report`, which is what :meth:`run` adopts.

        A budget the objective does not read raises ``ValueError``.
        """
        for budget, value, reader in (
            ("budget_seconds", budget_seconds, "cost"),
            ("budget_dollars", budget_dollars, "epoch"),
        ):
            if value is not None and objective != reader:
                raise ValueError(
                    f"{budget} applies to objective={reader!r} only, "
                    f"not {objective!r}"
                )
        self.config.validate()
        ctx = self.context
        strategies = tuple(strategies if strategies is not None else self.config.strategies)
        stats = {s: ctx.dryrun.run(s) for s in strategies}
        extra: Dict[str, CostEstimate] = {}
        subset_meta: Dict[str, dict] = {}
        if objective == "cost" and self.cluster.num_machines > 1:
            extra, subset_meta = self._subset_candidates(strategies)
        plan = Planner(ctx.cost_model).select(
            stats,
            objective=objective,
            budget_seconds=budget_seconds,
            budget_dollars=budget_dollars,
            extra_estimates=extra,
            batch_size=batch_size,
            seeds_per_epoch=int(len(self.dataset.train_seeds)),
            max_wait_s=max_wait_s,
        )
        plan.subsets = subset_meta
        plan.coarsening = self._coarsening()
        report = RunReport(plan=plan, config=self.config.to_dict())
        if objective == "latency":
            return report
        self.plan_report = plan
        if self.config.telemetry:
            collector = TelemetryCollector()
            chosen = plan.estimates[plan.chosen]
            collector.emit(
                "pareto_select",
                chosen=plan.chosen,
                objective=objective,
                total=float(chosen.total),
                dollars=float(chosen.dollars),
                frontier_size=len(plan.pareto),
                dominated=len(plan.estimates) - len(plan.pareto),
            )
            report.collector = collector
            report.telemetry = collector.summary()
        return report

    def _coarsening(self) -> Optional[Dict[str, Any]]:
        """What the "metis" partitioner coarsened, for the plan report."""
        partition = self.config.partition
        if isinstance(partition, str) and partition == "metis":
            if self._hierarchy is not None:
                return self._hierarchy.summary()
        return None

    def _subset_candidates(
        self, strategies: Tuple[str, ...]
    ) -> Tuple[Dict[str, CostEstimate], Dict[str, dict]]:
        """Cost estimates for dropping each machine from the cluster.

        Each deduplicated candidate subset gets a :class:`PlanContext` of
        its own: a speed-proportional partition, a dry-run (sharing the
        task's SampleCache and census — sampling is partition-independent,
        so batches are never re-sampled) and a cost model profiled on that
        subset.  Candidate names are ``<strategy>@drop<machine>``.
        """
        extra: Dict[str, CostEstimate] = {}
        meta: Dict[str, dict] = {}
        seen = set()
        for m in range(self.cluster.num_machines):
            sub = self.cluster.without_machine(m)
            if sub in seen:
                continue
            seen.add(sub)
            ctx = PlanContext(self, sub)
            for s in strategies:
                try:
                    estimate = ctx.estimate(s)
                except (KeyError, ValueError):
                    continue  # strategy infeasible on this subset shape
                name = f"{s}@drop{m}"
                extra[name] = estimate
                meta[name] = {
                    "strategy": s,
                    "dropped_machine": m,
                    "machines": sub.num_machines,
                    "devices": sub.num_devices,
                    "dollars_per_hour": sub.dollars_per_hour(),
                }
        return extra, meta

    def plan_layerwise(self, *, beam_width: int = 3) -> RunReport:
        """Beam-search per-layer strategy compositions (DESIGN.md §5.15).

        Every candidate's dry-run shares the context's: one
        :class:`~repro.sampling.cache.SampleCache` (each global batch is
        sampled exactly once), one set of regrouped node-layout blocks, and
        the stats of any spec :meth:`plan` already dry-ran (DESIGN.md
        §5.9).  Single strategies participate in the final ranking; the
        chosen spec may be either kind and feeds :meth:`run` unchanged.
        """
        self.config.validate()
        ctx = self.context
        self.plan_report = Planner(ctx.cost_model).search_layerwise(
            ctx.dryrun.run,
            self.model.num_layers,
            beam_width=beam_width,
        )
        self.plan_report.coarsening = self._coarsening()
        return RunReport(plan=self.plan_report, config=self.config.to_dict())

    # ------------------------------------------------------------------ #
    # Adapt + Run
    # ------------------------------------------------------------------ #
    def run_strategy(
        self,
        name: Optional[str],
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
        DESIGN.md §5.11).  ``name=None`` is allowed only with ``resume``:
        it continues under the strategy the checkpointed run was given.
        """
        if num_epochs < 1:
            raise ValueError(f"num_epochs must be >= 1, got {num_epochs}")
        if name is None:
            if resume is None:
                raise ValueError("a strategy name is required unless resuming")
        elif name not in STRATEGIES:
            if not is_layerwise_spec(name):
                raise KeyError(f"unknown strategy {name!r}")
            names = parse_layerwise(name)  # raises ValueError if malformed
            if len(names) != self.model.num_layers:
                raise ValueError(
                    f"layerwise spec {name!r} assigns {len(names)} layers "
                    f"but the model has {self.model.num_layers}"
                )
        self.config.validate()
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
        # outlive the run too: closing it returns them to idle for the next
        # run over this dataset.)
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
        if strategy is None and resume is None:
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
        identically to every strategy — the baseline mode of the
        ``online_replan`` case of ``benchmarks/cases.py``.
        """
        if strategies is None:
            strategies = ("gdp", "nfp", "snp", "dnp")
        return {
            name: self.run_strategy(
                name, num_epochs, lr=lr, numerics=numerics, faults=faults
            )
            for name in strategies
        }
