"""Elastic cluster membership (DESIGN.md §5.16).

The pin: after a scheduled ``host_leave`` at epoch *k*, the elastic run's
epochs ``k+1..N`` must be bit-identical to a fresh run on the shrunken
cluster resumed from the same transition checkpoint.  Membership changes
are ordinary :class:`~repro.cluster.faults.FaultEvent` kinds, so they ride
the same ``--inject`` grammar and ``recover`` semantics as performance
faults.
"""

import os
import shutil

import numpy as np
import pytest

from repro.cluster import multi_machine_cluster
from repro.cluster.faults import FaultEvent, FaultSchedule
from repro.config import APTConfig
from repro.core import APT
from repro.core.checkpoint import CheckpointManager
from repro.graph.datasets import small_dataset
from repro.models import GraphSAGE

K, N = 2, 5  # membership changes at epoch K; runs last N epochs

DS = small_dataset(n=800, feature_dim=16, num_classes=4, seed=7)


def _make_apt(cluster, **kw):
    kwargs = dict(fanouts=(4, 4), global_batch_size=256, seed=0)
    kwargs.update(kw)
    return APT(DS, GraphSAGE(16, 8, 4, 2, seed=1), cluster, APTConfig(**kwargs))


def _leave(epoch=K, machine=1):
    return FaultSchedule([FaultEvent(epoch=epoch, kind="host_leave", machine=machine)])


def _facts(report, start=0):
    return [
        (e.epoch, e.mean_loss, tuple(sorted(e.phases.items())))
        for e in report.epochs[start:]
    ]


def _kinds(report):
    return [e.kind for e in report.collector.events]


# ---------------------------------------------------------------------- #
# the acceptance pin: elastic tail == fresh-run oracle from the same
# checkpoint on the post-change cluster
# ---------------------------------------------------------------------- #
class TestBitIdentity:
    @pytest.mark.parametrize(
        "name", ["gdp", "nfp", "snp", "dnp", "layerwise:gdp,snp"]
    )
    def test_tail_matches_fresh_run_oracle(self, name, tmp_path):
        base = multi_machine_cluster(2, 2)
        ck = str(tmp_path / "ck")

        # Elastic run.  checkpoint_every is huge so the only mid-run
        # checkpoint is the one the transition itself takes at epoch K.
        apt = _make_apt(base, checkpoint_dir=ck, checkpoint_every=100)
        rep = apt.run_strategy(name, N, faults=_leave())

        trans = os.path.join(ck, f"epoch-{K:06d}")
        assert os.path.isdir(trans), sorted(os.listdir(ck))
        oracle_dir = str(tmp_path / "oracle")
        os.makedirs(oracle_dir)
        shutil.copytree(trans, os.path.join(oracle_dir, os.path.basename(trans)))

        # Oracle: a fresh process that never saw the 2-machine cluster,
        # resumed on the shrunken one from the same checkpoint.
        apt2 = _make_apt(base.without_machine(1))
        rep2 = apt2.run_strategy(name, N, resume=oracle_dir)

        assert _facts(rep, K) == _facts(rep2, K)
        sa, sb = apt.model.state_dict(), apt2.model.state_dict()
        assert sorted(sa) == sorted(sb)
        for key in sa:
            np.testing.assert_array_equal(sa[key], sb[key])

    def test_process_backend_matches_serial(self, tmp_path):
        base = multi_machine_cluster(2, 2)
        serial = _make_apt(base).run_strategy("dnp", N, faults=_leave())
        proc = _make_apt(
            base, execution_backend="process", num_workers=2
        ).run_strategy("dnp", N, faults=_leave())
        assert _facts(serial) == _facts(proc)


# ---------------------------------------------------------------------- #
# membership-change mechanics
# ---------------------------------------------------------------------- #
class TestMembershipPaths:
    def test_host_leave_emits_telemetry_and_checkpoints(self, tmp_path):
        ck = str(tmp_path / "ck")
        apt = _make_apt(
            multi_machine_cluster(2, 2), checkpoint_dir=ck, checkpoint_every=100
        )
        rep = apt.run_strategy("gdp", N, faults=_leave())
        kinds = _kinds(rep)
        assert "host_leave" in kinds and "repartition" in kinds

        repart = next(
            e for e in rep.collector.events if e.kind == "repartition"
        )
        assert repart.epoch == K
        assert repart.data["devices_before"] == 4
        assert repart.data["devices_after"] == 2
        # The transition wrote its own checkpoint despite the cadence.
        assert os.path.basename(CheckpointManager(ck).checkpoints()[0]) == (
            f"epoch-{K:06d}"
        )

    def test_repartition_equals_fresh_run_partition(self):
        """The elastic re-partition reuses the coarsening hierarchy that
        prepare() built (it depends on the graph and seed, not the device
        count) and still lands on exactly the partition a fresh run on the
        shrunken cluster computes."""
        from repro.graph import ps_like
        from repro.graph.partition import metis_like_partition

        big = ps_like(8000, train_fraction=0.02, seed=1)  # > coarsen_until
        config = dict(fanouts=(4, 4), global_batch_size=256, seed=0)

        def make(cluster):
            model = GraphSAGE(big.feature_dim, 8, big.num_classes, 2, seed=1)
            return APT(big, model, cluster, APTConfig(**config))

        base = multi_machine_cluster(2, 2)
        apt = make(base)
        apt.run_strategy("gdp", 3, faults=_leave(epoch=1), numerics=False)
        assert len(apt.hierarchy.levels()) > 1  # the graph was coarsened
        fresh = make(base.without_machine(1))
        fresh.prepare()
        np.testing.assert_array_equal(apt.context.parts, fresh.context.parts)
        np.testing.assert_array_equal(
            apt.context.node_machine, fresh.context.node_machine
        )
        np.testing.assert_array_equal(
            apt.context.parts, metis_like_partition(big.graph, 2, seed=0)
        )

    def test_host_join_grows_the_run(self):
        faults = FaultSchedule([FaultEvent(epoch=K, kind="host_join")])
        apt = _make_apt(multi_machine_cluster(2, 2))
        rep = apt.run_strategy("gdp", N, faults=faults)
        assert len(rep.epochs) == N
        repart = next(
            e for e in rep.collector.events if e.kind == "repartition"
        )
        assert repart.data["devices_before"] == 4
        assert repart.data["devices_after"] == 6

    def test_recover_restores_membership(self):
        faults = FaultSchedule(
            [
                FaultEvent(epoch=1, kind="host_leave", machine=1),
                FaultEvent(epoch=3, kind="recover"),
            ]
        )
        apt = _make_apt(multi_machine_cluster(2, 2))
        rep = apt.run_strategy("gdp", N, faults=faults)
        assert len(rep.epochs) == N
        reparts = [e for e in rep.collector.events if e.kind == "repartition"]
        assert [(e.data["devices_before"], e.data["devices_after"]) for e in reparts] == [
            (4, 2),
            (2, 4),
        ]

    def test_transition_without_checkpoint_dir_still_survives(self):
        rep = _make_apt(multi_machine_cluster(2, 2)).run_strategy(
            "gdp", N, faults=_leave()
        )
        assert len(rep.epochs) == N
        assert "checkpoint" not in _kinds(rep)

    def test_elastic_replan_may_hot_switch(self):
        apt = _make_apt(multi_machine_cluster(2, 2))
        rep = apt.run_strategy("gdp", N, faults=_leave(), replan=True)
        ev = next(
            e for e in rep.collector.events if e.kind == "elastic_replan"
        )
        assert ev.epoch == K
        assert ev.data["old"] == "gdp"
        assert ev.data["switched"] == (ev.data["chosen"] != "gdp")
        assert rep.strategy_by_epoch[K] == ev.data["chosen"]

    def test_fixed_strategy_run_never_switches(self):
        rep = _make_apt(multi_machine_cluster(2, 2)).run_strategy(
            "nfp", N, faults=_leave(), replan=False
        )
        assert set(rep.strategy_by_epoch) == {"nfp"}
        assert "elastic_replan" not in _kinds(rep)


# ---------------------------------------------------------------------- #
# policy guard rails
# ---------------------------------------------------------------------- #
class TestElasticPolicy:
    def test_disabled_raises(self):
        apt = _make_apt(multi_machine_cluster(2, 2), elastic=False)
        with pytest.raises(RuntimeError, match="elastic execution is disabled"):
            apt.run_strategy("gdp", N, faults=_leave())

    def test_explicit_partition_cannot_follow_membership(self):
        parts = np.arange(DS.graph.num_nodes) % 4
        apt = _make_apt(multi_machine_cluster(2, 2), partition=parts)
        with pytest.raises(ValueError, match="explicit partitions"):
            apt.run_strategy("gdp", N, faults=_leave())
