"""Timing-only mode must charge the exact same simulated time as numerics.

This pins the two execution paths of every strategy together: any drift
between the math path and the charge path fails here.  "Exact" is
``==``: the epoch time, every paper-breakdown and raw phase entry, and
every ``VolumeRecorder`` field, for GraphSAGE, GCN and GAT, every single
strategy and two layerwise specs, on one and on two machines.
"""

import numpy as np
import pytest

from repro.cluster import multi_machine_cluster, single_machine_cluster
from repro.config import APTConfig
from repro.core import APT
from repro.engine import STRATEGIES
from repro.engine.context import ExecutionContext
from repro.graph.datasets import small_dataset
from repro.models import GAT, GCN, GraphSAGE

# includes the hybrid extension
NAMES = sorted(STRATEGIES) + ["layerwise:snp,gdp", "layerwise:dnp,snp"]


@pytest.fixture(scope="module")
def ds():
    return small_dataset(n=1500, feature_dim=16, num_classes=4, seed=7)


def _canon(value):
    if isinstance(value, np.ndarray):
        return (str(value.dtype), value.shape, value.tobytes())
    if isinstance(value, dict):
        return {k: _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def run_recorded(apt, name, numerics):
    """One epoch of ``name``, plus every ``VolumeRecorder`` it filled."""
    contexts = []
    build = ExecutionContext.build

    def recording_build(cls, *args, **kwargs):
        ctx = build(*args, **kwargs)
        contexts.append(ctx)
        return ctx

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExecutionContext, "build", classmethod(recording_build))
        report = apt.run_strategy(name, 1, numerics=numerics)
    return report, [_canon(vars(ctx.recorder)) for ctx in contexts]


def compare_modes(ds, cluster, model_factory):
    for name in NAMES:
        model = model_factory()
        apt = APT(ds, model, cluster, APTConfig(fanouts=(4, 4), global_batch_size=256, seed=0))
        apt.prepare()
        a, a_recorders = run_recorded(apt, name, numerics=True)
        b, b_recorders = run_recorded(apt, name, numerics=False)
        assert a.epoch_seconds == b.epoch_seconds, name
        assert a.breakdown == b.breakdown, name
        assert [e.phases for e in a.result.epochs] == [
            e.phases for e in b.result.epochs
        ], name
        assert a_recorders and a_recorders == b_recorders, name


def one_machine(ds):
    return single_machine_cluster(4, gpu_cache_bytes=ds.feature_bytes * 0.05)


def two_machines(ds):
    return multi_machine_cluster(2, 2, gpu_cache_bytes=ds.feature_bytes * 0.05)


def sage(ds):
    return lambda: GraphSAGE(ds.feature_dim, 8, ds.num_classes, 2, seed=3)


def gcn(ds):
    return lambda: GCN(ds.feature_dim, 8, ds.num_classes, 2, seed=3)


def gat(ds):
    return lambda: GAT(ds.feature_dim, 4, ds.num_classes, 2, heads=2, seed=3)


class TestTimingMode:
    def test_sage_single_machine(self, ds):
        compare_modes(ds, one_machine(ds), sage(ds))

    def test_gcn_single_machine(self, ds):
        compare_modes(ds, one_machine(ds), gcn(ds))

    def test_gat_single_machine(self, ds):
        compare_modes(ds, one_machine(ds), gat(ds))

    def test_sage_multi_machine(self, ds):
        compare_modes(ds, two_machines(ds), sage(ds))

    def test_gcn_multi_machine(self, ds):
        compare_modes(ds, two_machines(ds), gcn(ds))

    def test_gat_multi_machine(self, ds):
        compare_modes(ds, two_machines(ds), gat(ds))

    def test_timing_mode_returns_nan_loss(self, ds):
        cluster = single_machine_cluster(4)
        model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, 2, seed=3)
        apt = APT(ds, model, cluster, APTConfig(fanouts=(4, 4), global_batch_size=256, seed=0))
        apt.prepare()
        r = apt.run_strategy("gdp", 1, numerics=False)
        assert np.isnan(r.final_loss)

    def test_timing_mode_does_not_touch_model(self, ds):
        cluster = single_machine_cluster(4)
        model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, 2, seed=3)
        before = model.state_dict()
        apt = APT(ds, model, cluster, APTConfig(fanouts=(4, 4), global_batch_size=256, seed=0))
        apt.prepare()
        apt.run_strategy("snp", 1, numerics=False)
        after = model.state_dict()
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])
