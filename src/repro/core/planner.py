"""The APT planner: rank strategies by estimated cost, pick the cheapest.

Two objectives share the same dry-run statistics:

* ``"epoch"`` (the paper's Plan step) ranks by estimated strategy-specific
  epoch seconds (:class:`~repro.core.costmodel.CostEstimate`);
* ``"latency"`` (the serving extension, DESIGN.md §5.13) ranks by the
  predicted p99 per-request latency at a given dynamic-batching policy
  (:class:`~repro.core.costmodel.LatencyEstimate`).

Both return a :class:`PlanReport`; ``estimates`` holds whichever estimate
type the objective produced (each exposes ``.total`` and ``.as_dict()``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.costmodel import CostEstimate, CostModel
from repro.core.dryrun import DryRunStats
from repro.engine.layerwise import (
    LAYER_STRATEGIES,
    canonical_spec,
    format_spec,
    is_layerwise_spec,
    parse_layerwise,
)

#: Planner objectives and the estimate type each ranks by.
OBJECTIVES = ("epoch", "latency", "cost")

#: layouts the layerwise search assigns above layer 0: replicated and
#: node-partitioned (see :meth:`Planner.search_layerwise`)
UPPER_LAYOUTS = ("gdp", "snp")

#: prefixes the layerwise search keeps per layer
BEAM_WIDTH = 3


def pareto_frontier(estimates: Dict[str, CostEstimate]) -> List[str]:
    """Non-dominated candidates in the (time, dollars) plane.

    A candidate is dominated when another is at least as fast *and* at
    least as cheap (strictly better on one axis).  Returns names sorted by
    ascending ``total`` — walking the frontier trades time for dollars.
    """
    items = sorted(
        estimates.items(),
        key=lambda kv: (kv[1].total, kv[1].dollars),
    )
    frontier: List[str] = []
    best_dollars = float("inf")
    for name, est in items:
        if est.dollars < best_dollars:
            frontier.append(name)
            best_dollars = est.dollars
    return frontier


@dataclass
class PlanReport:
    """Outcome of the Plan step."""

    estimates: Dict[str, object]
    chosen: str
    ranking: List[str] = field(default_factory=list)
    objective: str = "epoch"
    #: per-layer strategy assignment per candidate (layerwise specs only)
    layer_assignments: Dict[str, List[str]] = field(default_factory=dict)
    #: total re-layout bytes each candidate's dry-run recorded
    relayout_bytes: Dict[str, float] = field(default_factory=dict)
    #: candidate names on the (time, dollars) Pareto frontier, fastest
    #: first (DESIGN.md §5.17); empty for the latency objective
    pareto: List[str] = field(default_factory=list)
    #: budgets the selection honored (``None`` = unconstrained)
    budget_seconds: Optional[float] = None
    budget_dollars: Optional[float] = None
    #: device-subset metadata per candidate name: which machine was
    #: dropped and the resulting cluster shape / $-rate (subset sweep only)
    subsets: Dict[str, dict] = field(default_factory=dict)
    #: the batching policy ``"<max_batch>:<max_wait_ms>"`` the latency
    #: objective scored (``None`` for the other objectives)
    policy: Optional[str] = None
    #: beam width of the layerwise search that produced this plan
    #: (``None``: a fixed candidate set was ranked)
    beam_width: Optional[int] = None
    #: the "metis" partitioner's coarsening of the planned graph
    #: (:meth:`~repro.graph.partition.CoarseningHierarchy.summary`);
    #: ``None`` for other partition modes
    coarsening: Optional[Dict[str, Any]] = None

    def summary(self) -> str:
        """Human-readable plan: what was ranked, the per-candidate
        estimates (``*`` marks the choice), the (time, $) Pareto frontier,
        the per-layer assignments and the selected candidate."""
        if self.objective == "latency":
            ranked = (
                "predicted per-request serving latency at policy "
                f"{self.policy}"
            )
        elif self.beam_width is not None:
            ranked = (
                "beam-searched per-layer compositions + single strategies, "
                "seconds per epoch"
            )
        elif self.objective == "cost":
            ranked = (
                "two-objective: epoch seconds and dollars per epoch, "
                "cheapest first"
            )
        else:
            ranked = "strategy-specific seconds per epoch"
        lines = [f"cost-model estimates ({ranked}):", self._table()]
        if self.objective == "cost" and self.pareto:
            lines += ["", "(time, $) Pareto frontier, fastest first:"]
            for name in self.pareto:
                e = self.estimates[name]
                note = ""
                meta = self.subsets.get(name)
                if meta is not None:
                    note = (
                        f"  [drops machine {meta['dropped_machine']}: "
                        f"{meta['devices']} device(s) left]"
                    )
                lines.append(
                    f"  {name}: {e.total:.4f}s  ${e.dollars:.3e}/epoch{note}"
                )
        if self.layer_assignments:
            lines += ["", "per-layer assignments:"]
            for name in self.ranking:
                if name in self.layer_assignments:
                    layers = " -> ".join(self.layer_assignments[name])
                    nbytes = self.relayout_bytes.get(name, 0.0)
                    lines.append(
                        f"  {name}: {layers} (re-layout {nbytes / 1e3:.1f} KB)"
                    )
        if self.coarsening is not None:
            c = self.coarsening
            stop = ", stalled" if c["stalled"] else ""
            lines += [
                "",
                "coarsening: " + " -> ".join(str(n) for n in c["levels"])
                + f" (target {c['target']}{stop})",
            ]
        lines += ["", f"APT selects: {self.chosen}"]
        return "\n".join(lines)

    def _table(self) -> str:
        """Per-candidate estimate columns of the plan's objective."""
        width = max(10, max((len(n) for n in self.ranking), default=0) + 2)
        if self.objective == "latency":
            lines = [
                f"{'strategy':<{width}}{'t_fixed':>12}{'t_per_seed':>12}"
                f"{'p50':>12}{'p99':>12}"
            ]
            for name in self.ranking:
                e = self.estimates[name]
                star = " *" if name == self.chosen else ""
                lines.append(
                    f"{name:<{width}}{e.t_fixed:>12.6f}{e.t_per_seed:>12.8f}"
                    f"{e.p50:>12.6f}{e.p99:>12.6f}{star}"
                )
            return "\n".join(lines)
        if self.objective == "cost":
            lines = [
                f"{'candidate':<{width}}{'t_build':>12}{'t_load':>12}"
                f"{'t_shuffle':>12}{'total':>12}{'$/epoch':>12}"
            ]
            pareto = set(self.pareto)
            for name in self.ranking:
                e = self.estimates[name]
                mark = " *" if name == self.chosen else ""
                if name in pareto:
                    mark += " pareto"
                lines.append(
                    f"{name:<{width}}{e.t_build:>12.4f}{e.t_load:>12.4f}"
                    f"{e.t_shuffle:>12.4f}{e.total:>12.4f}"
                    f"{e.dollars:>12.3e}{mark}"
                )
            budgets = []
            if self.budget_seconds is not None:
                budgets.append(f"time budget {self.budget_seconds:.4f}s")
            if self.budget_dollars is not None:
                budgets.append(f"dollar budget ${self.budget_dollars:.3e}")
            if budgets:
                lines.append("constraints: " + ", ".join(budgets))
            return "\n".join(lines)
        lines = [
            f"{'strategy':<{width}}{'t_build':>12}{'t_load':>12}{'t_shuffle':>12}"
            f"{'t_skew':>12}{'total':>12}"
        ]
        for name in self.ranking:
            e = self.estimates[name]
            star = " *" if name == self.chosen else ""
            lines.append(
                f"{name:<{width}}{e.t_build:>12.4f}{e.t_load:>12.4f}"
                f"{e.t_shuffle:>12.4f}{e.t_skew:>12.4f}{e.total:>12.4f}{star}"
            )
        return "\n".join(lines)


class Planner:
    """Selects the estimated-best strategy from dry-run statistics."""

    def __init__(self, cost_model: CostModel):
        self.cost_model = cost_model

    def select(
        self,
        stats_by_strategy: Dict[str, DryRunStats],
        *,
        objective: str = "epoch",
        batch_size: int = 32,
        seeds_per_epoch: int = 0,
        max_wait_s: float = 0.0,
        budget_seconds: Optional[float] = None,
        budget_dollars: Optional[float] = None,
        extra_estimates: Optional[Dict[str, object]] = None,
    ) -> PlanReport:
        """Rank the candidates under ``objective`` and pick the best.

        The latency objective additionally needs the serving batch shape
        (``batch_size``, ``max_wait_s``) and the seed count the dry-run
        epoch covered (``seeds_per_epoch``, for per-seed scaling).

        The ``"cost"`` objective ranks by estimated dollars per epoch and
        chooses the cheapest candidate whose epoch time fits
        ``budget_seconds`` (unconstrained when ``None``); ``"epoch"`` with
        ``budget_dollars`` symmetrically picks the fastest candidate under
        the dollar cap.  Infeasible budgets fall back to the unconstrained
        winner.  ``extra_estimates`` injects pre-computed estimates from
        *other* cost models — the device-subset sweep prices each candidate
        cluster with its own model and merges them here.
        """
        if not stats_by_strategy and not extra_estimates:
            raise ValueError("no dry-run statistics to plan over")
        if objective not in OBJECTIVES:
            raise ValueError(
                f"objective must be one of {OBJECTIVES}, got {objective!r}"
            )
        if objective == "latency":
            estimates = self.cost_model.latency_all(
                stats_by_strategy,
                batch_size=batch_size,
                seeds_per_epoch=seeds_per_epoch,
                max_wait_s=max_wait_s,
            )
        elif stats_by_strategy:
            estimates = self.cost_model.estimate_all(stats_by_strategy)
        else:
            estimates = {}
        if extra_estimates:
            estimates = {**estimates, **extra_estimates}
        if objective == "cost":
            ranking = sorted(
                estimates,
                key=lambda n: (estimates[n].dollars, estimates[n].total),
            )
        else:
            ranking = sorted(estimates, key=lambda n: estimates[n].total)
        pareto = pareto_frontier(estimates) if objective != "latency" else []
        chosen = ranking[0]
        if objective == "cost" and budget_seconds is not None:
            feasible = [
                n for n in ranking if estimates[n].total <= budget_seconds
            ]
            if feasible:
                chosen = feasible[0]
        elif objective == "epoch" and budget_dollars is not None:
            feasible = [
                n for n in ranking if estimates[n].dollars <= budget_dollars
            ]
            if feasible:
                chosen = feasible[0]
        layer_assignments: Dict[str, List[str]] = {}
        relayout: Dict[str, float] = {}
        for name, stats in stats_by_strategy.items():
            if is_layerwise_spec(name):
                layer_assignments[name] = parse_layerwise(name)
            nbytes = stats.recorder.total_relayout_bytes()
            if nbytes or name in layer_assignments:
                relayout[name] = nbytes
        return PlanReport(
            estimates=estimates,
            chosen=chosen,
            ranking=ranking,
            objective=objective,
            layer_assignments=layer_assignments,
            relayout_bytes=relayout,
            pareto=pareto,
            budget_seconds=budget_seconds,
            budget_dollars=budget_dollars,
            policy=(
                f"{batch_size}:{max_wait_s * 1e3:g}"
                if objective == "latency"
                else None
            ),
        )

    # ------------------------------------------------------------------ #
    def search_layerwise(self, evaluate, num_layers: int) -> PlanReport:
        """Beam-search per-layer strategy assignments (DESIGN.md §5.15).

        ``evaluate(spec) -> DryRunStats`` dry-runs one candidate spec (a
        single strategy name or ``layerwise:...``); candidates sharing a
        behavior collapse onto one :func:`canonical_spec` key so each
        distinct composition is dry-run exactly once.  Prefixes are scored
        by completing them with their last assignment (the cheapest
        extension that adds no re-layout), the :data:`BEAM_WIDTH` best survive
        each layer, and the surviving completions — plus the single
        strategies — are ranked by the epoch cost model.

        Upper layers search over layouts, not strategies: ``gdp`` denotes
        replicated-data-parallel and ``snp`` node-partitioned (``nfp``
        partitions input features, so it only appears at layer 0; ``dnp``
        above layer 0 is layout-equal to ``snp``).
        """
        if num_layers < 1:
            raise ValueError("model must have at least one layer")
        cache: Dict[tuple, object] = {}

        def spec_string(key: tuple) -> str:
            return key[0] if len(key) == 1 else format_spec(key)

        def stats_for(names: tuple):
            """Dry-run stats for a (completed) assignment, canonicalized;
            ``None`` when the candidate is infeasible on this config."""
            key = canonical_spec(names)
            if key not in cache:
                try:
                    cache[key] = evaluate(spec_string(key))
                except ValueError:
                    cache[key] = None
            return key, cache[key]

        def completed(prefix: tuple) -> tuple:
            return prefix + (prefix[-1],) * (num_layers - len(prefix))

        def score(prefix: tuple) -> float:
            _, stats = stats_for(completed(prefix))
            if stats is None:
                return float("inf")
            return self.cost_model.estimate(stats).total

        beam = [(s,) for s in LAYER_STRATEGIES]
        beam = sorted(beam, key=score)[:BEAM_WIDTH]
        for _ in range(1, num_layers):
            frontier = [p + (u,) for p in beam for u in UPPER_LAYOUTS]
            beam = sorted(frontier, key=score)[:BEAM_WIDTH]

        finalists = {canonical_spec(completed(p)) for p in beam}
        finalists |= {(s,) for s in LAYER_STRATEGIES}
        stats_map = {}
        # Sorted, so exact cost ties rank by spec rather than by the set's
        # PYTHONHASHSEED-dependent iteration order (select's sort is stable).
        for key in sorted(finalists):
            key, stats = stats_for(key)
            if stats is not None:
                stats_map[spec_string(key)] = stats
        report = self.select(stats_map)
        report.beam_width = BEAM_WIDTH
        return report
