"""Elastic membership meets heterogeneity (DESIGN.md §5.16 + §5.17).

The regression pin: a ``host_join`` bringing a faster device class must
leave the *re-partition* speed-proportional — the joiner's devices own a
share of the graph proportional to their throughput, not an equal slice.
"""

import numpy as np
import pytest

from repro.cluster import device_class, multi_machine_cluster
from repro.cluster.faults import FaultEvent, FaultSchedule
from repro.config import APTConfig
from repro.core import APT
from repro.graph.datasets import small_dataset
from repro.models import GraphSAGE

K, N = 1, 3  # join at epoch K, run N epochs

DS = small_dataset(n=800, feature_dim=16, num_classes=4, seed=7)


def _make_apt(cluster, **kw):
    kwargs = dict(fanouts=(4, 4), global_batch_size=256, seed=0)
    kwargs.update(kw)
    return APT(DS, GraphSAGE(16, 8, 4, 2, seed=1), cluster, APTConfig(**kwargs))


def _join(device_cls, epoch=K):
    return FaultSchedule(
        [FaultEvent(epoch=epoch, kind="host_join", device_class=device_cls)]
    )


class TestWeightedRejoin:
    def test_faster_joiner_gets_proportionally_more_nodes(self):
        # v100 ~2x the t4's sustained throughput: after the join, each of
        # the joiner's devices must own ~2x a t4 device's nodes.
        base = multi_machine_cluster(2, 2)
        apt = _make_apt(base)
        apt.run_strategy("snp", N, faults=_join("v100"))

        counts = np.bincount(apt.context.parts, minlength=6).astype(float)
        assert counts.size == 6 and counts.min() > 0
        t4_mean = counts[:4].mean()
        joiner_mean = counts[4:].mean()
        speed_ratio = (
            device_class("v100").effective_flops
            / device_class("t4").effective_flops
        )
        assert joiner_mean / t4_mean == pytest.approx(speed_ratio, rel=0.3)

    def test_same_class_joiner_keeps_equal_parts(self):
        base = multi_machine_cluster(2, 2)
        apt = _make_apt(base)
        apt.run_strategy("snp", N, faults=_join("t4"))
        counts = np.bincount(apt.context.parts, minlength=6).astype(float)
        assert counts.max() / counts.min() < 1.3

    def test_join_emits_repartition_event(self):
        base = multi_machine_cluster(2, 2)
        apt = _make_apt(base)
        report = apt.run_strategy("snp", N, faults=_join("v100"))
        kinds = [e.kind for e in report.collector.events]
        assert "host_join" in kinds
        assert "repartition" in kinds

    def test_training_continues_after_weighted_rejoin(self):
        base = multi_machine_cluster(2, 2)
        apt = _make_apt(base)
        report = apt.run_strategy("snp", N, faults=_join("a100"))
        assert len(report.epochs) == N
        assert np.isfinite([e.mean_loss for e in report.epochs]).all()
