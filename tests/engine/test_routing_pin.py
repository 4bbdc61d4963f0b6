"""One first-layer router reproduces SNP's and DNP's own routing exactly.

SNP, DNP and hyb route their first layer through
``repro.engine.base.route_first_layer`` with two keys (DESIGN.md §5.19).
Against each strategy's frozen ``plan_batch`` in
``tests/routing_reference.py`` a dry-run and a numerics epoch must give
the same tasks (every array, in order, with its dtype), the same load
sets, every ``VolumeRecorder`` field, the same Timeline state and the
same simulated-run telemetry counters — for GraphSAGE, GCN and GAT, for snp, dnp, hyb
and a layerwise spec over DNP and SNP, on one and on two machines.
"""

import functools

import numpy as np
import pytest

from repro.cluster import multi_machine_cluster, single_machine_cluster
from repro.config import APTConfig
from repro.core import APT
from repro.engine.context import ExecutionContext
from repro.engine.dnp import DNPStrategy
from repro.engine.snp import SNPStrategy
from repro.graph.datasets import small_dataset
from repro.models import GAT, GCN, GraphSAGE
from repro.obs.telemetry import TelemetryCollector
from tests.routing_reference import install_reference_routing

STRATEGIES = ("snp", "dnp", "hyb", "layerwise:dnp,gdp,snp")
MODELS = {
    "sage": GraphSAGE,
    "gcn": GCN,
    "gat": functools.partial(GAT, heads=2),
}
CLUSTERS = {"1x4": (1, 4), "2x4": (2, 4)}


@pytest.fixture(scope="module")
def ds():
    return small_dataset(n=1200, feature_dim=16, num_classes=4, seed=5)


def _canon(value):
    if isinstance(value, np.ndarray):
        return (str(value.dtype), value.shape, value.tobytes())
    if isinstance(value, dict):
        return {k: _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def _plan_facts(plan):
    return [
        [_canon(vars(task)) for task in plan.tasks],
        _canon(plan.load_nodes),
    ]


def _run(ds, model_cls, strategy, shape, reference):
    machines, gpus = shape
    cache = ds.feature_bytes * 0.05
    cluster = (
        single_machine_cluster(gpus, gpu_cache_bytes=cache)
        if machines == 1
        else multi_machine_cluster(machines, gpus, gpu_cache_bytes=cache)
    )
    num_layers = len(strategy.split(",")) if "," in strategy else 2
    model = model_cls(ds.feature_dim, 8, ds.num_classes, num_layers, seed=1)
    apt = APT(ds, model, cluster, APTConfig(
        fanouts=(4,) * num_layers, global_batch_size=64, seed=0,
    ))
    plans, contexts = [], []
    build = ExecutionContext.build

    def recording_build(cls, *args, **kwargs):
        if kwargs.get("telemetry") is None:
            kwargs["telemetry"] = TelemetryCollector()
        ctx = build(*args, **kwargs)
        contexts.append(ctx)
        return ctx

    with pytest.MonkeyPatch.context() as mp:
        if reference:
            install_reference_routing(mp)
        for cls in (SNPStrategy, DNPStrategy):
            def recording_plan(self, ctx, batches, epoch=0,
                               _plan=cls.plan_batch):
                plan = _plan(self, ctx, batches, epoch)
                plans.append(_plan_facts(plan))
                return plan

            mp.setattr(cls, "plan_batch", recording_plan)
        mp.setattr(ExecutionContext, "build", classmethod(recording_build))
        plan_context = apt.prepare()
        stats = plan_context.dryrun.run(strategy)
        report = apt.run_strategy(strategy, 1)
    ledgers = [
        (
            _canon(vars(ctx.recorder)),
            _canon(ctx.timeline.state_dict()),
            # minus the process backend's own host-clock counters, which
            # differ between any two runs
            {k: v for k, v in ctx.telemetry.counters.items()
             if k[2] != "parallel"},
        )
        for ctx in contexts
    ]
    return {
        "plans": plans,
        "ledgers": ledgers,
        "t_build": stats.t_build,
        "losses": [e.mean_loss for e in report.result.epochs],
        "phases": [e.phases for e in report.result.epochs],
        "params": _canon(model.state_dict()),
    }


@pytest.mark.parametrize("shape", CLUSTERS.values(), ids=CLUSTERS.keys())
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
def test_router_equals_each_strategys_own_routing(ds, model, strategy, shape):
    got = _run(ds, model, strategy, shape, reference=False)
    want = _run(ds, model, strategy, shape, reference=True)
    # a dry-run and a training epoch, each planning several batches
    assert len(got["plans"]) > 2 and len(got["ledgers"]) == 2
    assert got["plans"] == want["plans"]
    assert got["ledgers"] == want["ledgers"]
    assert got["t_build"] == want["t_build"]
    assert got["losses"] == want["losses"]
    assert got["phases"] == want["phases"]
    assert got["params"] == want["params"]
