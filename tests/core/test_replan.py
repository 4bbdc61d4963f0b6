"""Tests for drift-triggered re-planning and fault-schedule determinism.

These drive the full online-adaptivity loop at tiny scale: a 1500-node
graph on a 2x2 cluster where a severe Ethernet degradation reliably
pushes observed load time past the drift threshold within one epoch.
The slow e2e test at the bottom runs the paper-style scenario (larger
graph, mid-run hot switch) and pins loss transparency.
"""

import pytest

from repro.cluster import multi_machine_cluster
from repro.cluster.faults import FaultEvent, FaultSchedule
from repro.config import APTConfig
from repro.core import APT
from repro.core.run import REPLAN_COOLDOWN
from repro.graph.datasets import small_dataset
from repro.models import GraphSAGE


def _apt(dataset, cluster, **overrides):
    kwargs = dict(fanouts=(4, 4), global_batch_size=256, seed=0)
    kwargs.update(overrides)
    model = GraphSAGE(dataset.feature_dim, 8, dataset.num_classes, 2, seed=1)
    apt = APT(dataset, model, cluster, APTConfig(**kwargs))
    apt.prepare()
    return apt


def _degrade(epoch=1, factor=0.01):
    return FaultSchedule(
        [FaultEvent(epoch=epoch, kind="link_degrade", factor=factor)]
    )


@pytest.fixture
def tiny_cluster(tiny_dataset):
    return multi_machine_cluster(
        2, 2, gpu_cache_bytes=tiny_dataset.feature_bytes * 0.06
    )


class TestReplanTrigger:
    def test_clean_run_never_replans(self, tiny_dataset, tiny_cluster):
        apt = _apt(tiny_dataset, tiny_cluster)
        report = apt.run_strategy("gdp", 5, numerics=False, replan=True)
        assert report.num_replans == 0
        assert report.strategy_by_epoch == ["gdp"] * 5
        assert report.telemetry["events_by_kind"].get("replan", 0) == 0

    def test_fault_drives_drift_past_threshold(self, tiny_dataset, tiny_cluster):
        apt = _apt(tiny_dataset, tiny_cluster)
        report = apt.run_strategy(
            "gdp", 5, numerics=False, replan=True, faults=_degrade()
        )
        assert report.num_replans >= 1
        first = report.replans[0]
        assert first.epoch == 1  # fires the same epoch the link degrades
        assert first.drift.exceeded
        assert first.drift.worst_term == "t_load"
        assert first.estimates  # re-profiled per-strategy totals
        assert report.faults and report.faults[0]["epoch"] == 1
        assert report.telemetry["events_by_kind"]["replan"] >= 1
        assert report.telemetry["events_by_kind"]["fault"] >= 1

    def test_cooldown_suppresses_back_to_back_replans(
        self, tiny_dataset, tiny_cluster
    ):
        # Two successive degradations: each one drifts past the threshold
        # relative to the estimate refreshed after the previous re-plan,
        # but the epoch after a re-plan is skipped.
        sched = FaultSchedule(
            [
                FaultEvent(epoch=1, kind="link_degrade", factor=0.01),
                FaultEvent(epoch=2, kind="link_degrade", factor=0.01),
            ]
        )
        report = _apt(tiny_dataset, tiny_cluster).run_strategy(
            "gdp", 5, numerics=False, replan=True, faults=sched
        )
        assert REPLAN_COOLDOWN == 1
        epochs = [r.epoch for r in report.replans]
        assert epochs[0] == 1 and 2 not in epochs


class TestDeterminism:
    def test_same_seed_same_replan_trajectory(self, tiny_dataset, tiny_cluster):
        reports = [
            _apt(tiny_dataset, tiny_cluster).run_strategy(
                "gdp", 5, numerics=False, replan=True, faults=_degrade()
            )
            for _ in range(2)
        ]
        a, b = reports
        assert [r.epoch for r in a.replans] == [r.epoch for r in b.replans]
        assert [r.drift.max_over for r in a.replans] == [
            r.drift.max_over for r in b.replans
        ]
        assert a.strategy_by_epoch == b.strategy_by_epoch
        assert a.wall_seconds == b.wall_seconds


class TestTelemetryIsObservational:
    def test_telemetry_stays_off_the_simulated_clock(
        self, tiny_dataset, tiny_cluster
    ):
        on = _apt(tiny_dataset, tiny_cluster, telemetry=True)
        off = _apt(tiny_dataset, tiny_cluster, telemetry=False)
        r_on = on.run_strategy("gdp", 3, replan=False)
        r_off = off.run_strategy("gdp", 3, replan=False)
        assert r_on.wall_seconds == r_off.wall_seconds
        assert [e.mean_loss for e in r_on.epochs] == [
            e.mean_loss for e in r_off.epochs
        ]
        assert r_on.telemetry is not None
        assert r_off.telemetry is None


@pytest.mark.slow
def test_hot_switch_is_loss_transparent():
    """Paper-style e2e: mid-run gdp->dnp switch must not perturb training.

    The model state and optimizer moments carry across the switch and the
    epoch iterator is seed-deterministic, so per-epoch losses of the
    adaptive run must match a fixed run of the initial strategy bit-for-bit
    (well under the 1e-10 budget).
    """
    ds = small_dataset(n=3000, feature_dim=32, num_classes=8, seed=3)
    cluster = multi_machine_cluster(2, 2, gpu_cache_bytes=ds.feature_bytes * 0.05)
    sched = FaultSchedule(
        [FaultEvent(epoch=2, kind="link_degrade", factor=0.02)]
    )
    cfg = APTConfig(fanouts=(4, 4), global_batch_size=512, seed=0, replan=True)

    def make():
        return GraphSAGE(ds.feature_dim, 16, ds.num_classes, 2, seed=1)

    adaptive_apt = APT(ds, make(), cluster, cfg)
    adaptive_apt.prepare()
    plan = adaptive_apt.plan()
    adaptive = adaptive_apt.run(num_epochs=6, lr=0.05, faults=sched)

    fixed_apt = APT(ds, make(), cluster, cfg.replace(replan=False))
    fixed_apt.prepare()
    fixed = fixed_apt.run_strategy(plan.chosen, 6, lr=0.05, faults=sched)

    assert [r.epoch for r in adaptive.replans if r.switched] == [2]
    assert adaptive.strategy_by_epoch[0] == plan.chosen
    assert adaptive.strategy_by_epoch[-1] != plan.chosen
    assert adaptive.telemetry["events_by_kind"]["switch"] == 1
    for got, want in zip(adaptive.epochs, fixed.epochs):
        assert got.mean_loss == pytest.approx(want.mean_loss, abs=1e-10)
