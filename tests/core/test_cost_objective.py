"""Two-objective (time, $) planning: dollars, Pareto frontier, budgets,
device-subset sweep, and the heterogeneity telemetry kinds
(DESIGN.md §5.17)."""

import numpy as np
import pytest

from repro.cluster import multi_machine_cluster, parse_cluster_spec
from repro.config import APTConfig
from repro.core import APT
from repro.core.apt import partition_weights
from repro.core.costmodel import CostEstimate, CostModel
from repro.core.planner import Planner, pareto_frontier
from repro.graph.datasets import small_dataset
from repro.models import GraphSAGE

DS = small_dataset(n=800, feature_dim=16, num_classes=4, seed=7)


def _apt(cluster, **kw):
    kwargs = dict(fanouts=(4, 4), global_batch_size=256, seed=0)
    kwargs.update(kw)
    apt = APT(DS, GraphSAGE(16, 8, 4, 2, seed=1), cluster, APTConfig(**kwargs))
    apt.prepare()
    return apt


def _est(name, total, dollars):
    e = CostEstimate(name, total, 0.0, 0.0, 0.0)
    e.dollars = dollars
    return e


HET = "1x2:a100,1x2:t4"


class TestDollars:
    def test_estimate_prices_the_cluster(self):
        cluster = parse_cluster_spec(HET)
        apt = _apt(cluster)
        cm = CostModel(cluster, DS.feature_dim, bandwidth_noise=0.0)
        est = cm.estimate(apt.context.dryrun.run("gdp"))
        expected = est.total * cluster.dollars_per_hour() / 3600.0
        assert est.dollars == pytest.approx(expected)
        assert est.dollars > 0.0

    def test_as_dict_includes_dollars(self):
        e = _est("gdp", 1.0, 0.5)
        assert e.as_dict()["dollars"] == 0.5


class TestParetoFrontier:
    def test_dominated_points_removed(self):
        ests = {
            "fast_pricey": _est("a", 1.0, 9.0),
            "dominated": _est("b", 2.0, 10.0),   # slower AND pricier
            "slow_cheap": _est("c", 3.0, 2.0),
        }
        assert pareto_frontier(ests) == ["fast_pricey", "slow_cheap"]

    def test_single_point(self):
        assert pareto_frontier({"only": _est("a", 1.0, 1.0)}) == ["only"]

    def test_equal_dollars_keeps_fastest_only(self):
        ests = {"fast": _est("a", 1.0, 5.0), "slow": _est("b", 2.0, 5.0)}
        assert pareto_frontier(ests) == ["fast"]


class TestCostObjectiveSelection:
    def _stats(self, cluster):
        apt = _apt(cluster)
        return apt, {s: apt.context.dryrun.run(s) for s in ("gdp", "snp")}

    def test_ranks_by_dollars(self):
        cluster = parse_cluster_spec(HET)
        apt, stats = self._stats(cluster)
        planner = Planner(apt.context.cost_model)
        report = planner.select(stats, objective="cost")
        d = {n: report.estimates[n].dollars for n in report.ranking}
        assert report.ranking == sorted(report.ranking, key=lambda n: (d[n],))
        assert report.objective == "cost"
        assert report.chosen == report.ranking[0]
        assert report.pareto  # epoch/cost objectives always compute it

    def test_budget_seconds_picks_cheapest_feasible(self):
        planner = Planner.__new__(Planner)  # select() only touches estimates
        extra = {
            "cheap_slow": _est("a", 10.0, 1.0),
            "fast_pricey": _est("b", 1.0, 5.0),
        }
        report = Planner.select(
            planner,
            {},
            objective="cost",
            budget_seconds=2.0,
            extra_estimates=extra,
        )
        assert report.chosen == "fast_pricey"
        assert report.budget_seconds == 2.0

    def test_infeasible_budget_falls_back(self):
        planner = Planner.__new__(Planner)
        extra = {
            "cheap_slow": _est("a", 10.0, 1.0),
            "fast_pricey": _est("b", 5.0, 5.0),
        }
        report = Planner.select(
            planner, {}, objective="cost", budget_seconds=0.1,
            extra_estimates=extra,
        )
        assert report.chosen == "cheap_slow"  # unconstrained winner

    def test_epoch_budget_dollars(self):
        planner = Planner.__new__(Planner)
        extra = {
            "fast_pricey": _est("a", 1.0, 5.0),
            "cheap_slow": _est("b", 10.0, 1.0),
        }
        report = Planner.select(
            planner, {}, objective="epoch", budget_dollars=2.0,
            extra_estimates=extra,
        )
        assert report.chosen == "cheap_slow"

    def test_cost_summary_mentions_dollars(self):
        planner = Planner.__new__(Planner)
        report = Planner.select(
            planner, {}, objective="cost", budget_seconds=1.0,
            extra_estimates={"a": _est("a", 0.5, 0.25)},
        )
        text = report.summary()
        assert "$/epoch" in text
        assert "time budget" in text

    @pytest.mark.parametrize("objective, budget", [
        ("epoch", "budget_seconds"),
        ("latency", "budget_seconds"),
        ("cost", "budget_dollars"),
        ("latency", "budget_dollars"),
    ])
    def test_budget_the_objective_ignores_is_rejected(self, objective, budget):
        """``select`` reads budget_seconds only under "cost" and
        budget_dollars only under "epoch"; any other pairing would return
        the unconstrained plan without a word."""
        apt = _apt(multi_machine_cluster(2, 2))
        with pytest.raises(ValueError, match=budget):
            apt.plan(objective=objective, **{budget: 1.0})


class TestSubsetSweep:
    def test_drop_candidates_priced_and_annotated(self):
        apt = _apt(parse_cluster_spec(HET))
        report = apt.plan(strategies=("gdp", "snp"), objective="cost")
        plan = report.plan
        drops = [n for n in plan.estimates if "@drop" in n]
        assert drops
        for name in drops:
            meta = plan.subsets[name]
            assert meta["machines"] == 1
            assert meta["devices"] == 2
            assert meta["dollars_per_hour"] > 0.0
        # Dropping the pricey A100 machine must cut the $-rate below the
        # full cluster's.
        full_rate = apt.cluster.dollars_per_hour()
        assert any(
            plan.subsets[n]["dollars_per_hour"] < full_rate for n in drops
        )

    def test_homogeneous_subsets_deduplicated(self):
        # 2 identical machines -> dropping either yields the same subset
        # cluster; only one candidate per strategy must appear.
        apt = _apt(multi_machine_cluster(2, 2))
        report = apt.plan(strategies=("gdp",), objective="cost")
        drops = [n for n in report.plan.estimates if "@drop" in n]
        assert len(drops) == 1

    def test_epoch_objective_skips_subsets_by_default(self):
        apt = _apt(parse_cluster_spec(HET))
        report = apt.plan(strategies=("gdp",))
        assert not [n for n in report.plan.estimates if "@drop" in n]

    def test_run_rejects_subset_choice(self):
        apt = _apt(parse_cluster_spec(HET))
        apt.plan(strategies=("gdp", "snp"), objective="cost")
        if "@drop" not in apt.plan_report.chosen:
            pytest.skip("full cluster won the sweep on this config")
        with pytest.raises(ValueError, match="without_machine"):
            apt.run(num_epochs=1)


class TestHeterogeneityTelemetry:
    def test_pareto_select_event(self):
        apt = _apt(parse_cluster_spec(HET))
        report = apt.plan(strategies=("gdp", "snp"), objective="cost")
        events = report.collector.events_of("pareto_select")
        assert len(events) == 1
        data = events[0].data
        assert data["chosen"] == report.plan.chosen
        assert data["objective"] == "cost"
        assert data["frontier_size"] == len(report.plan.pareto)
        assert data["dominated"] == len(report.plan.estimates) - len(
            report.plan.pareto
        )

    def test_device_imbalance_event_per_epoch(self):
        apt = _apt(parse_cluster_spec(HET))
        report = apt.run_strategy("snp", 2)
        events = report.collector.events_of("device_imbalance")
        assert len(events) == 2
        data = events[0].data
        assert len(data["busy_seconds"]) == 4
        assert data["max_busy"] >= data["min_busy"] > 0.0
        assert data["imbalance_ratio"] == pytest.approx(
            data["max_busy"] / data["min_busy"]
        )

    def test_new_kinds_round_trip_chrome_trace(self):
        apt = _apt(parse_cluster_spec(HET))
        plan_report = apt.plan(strategies=("gdp",), objective="cost")
        run_report = apt.run_strategy("snp", 1)
        merged = plan_report.collector.merged(run_report.collector)
        trace = merged.to_chrome_trace()
        names = {t["name"] for t in trace if t["ph"] == "i"}
        assert {"pareto_select", "device_imbalance"} <= names
        imb = next(
            t for t in trace
            if t["ph"] == "i" and t["name"] == "device_imbalance"
        )
        assert "imbalance_ratio" in imb["args"]["data"]


class TestWeightedPartitionInAPT:
    def test_heterogeneous_cluster_gets_uneven_parts(self):
        apt = _apt(parse_cluster_spec(HET))
        counts = np.bincount(apt.context.parts, minlength=4)
        # a100 devices (0, 1) should own substantially more nodes
        assert counts[:2].min() > 1.5 * counts[2:].max()

    def test_homogeneous_cluster_unchanged(self):
        apt = _apt(multi_machine_cluster(2, 2))
        assert partition_weights(apt.cluster) is None
