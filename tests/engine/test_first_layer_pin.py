"""The stacked engine equals the per-pair and per-device one, bit for bit.

NFP, SNP and DNP run their first layer as a few stacked ops per batch,
and every strategy runs GDP's whole model, every upper layer and the loss
as one stacked op set per batch (DESIGN.md §5.18).  Against the frozen
forms in ``tests/first_layer_reference.py`` every run must give exactly
the same losses, final parameters, simulated Timeline state and
``VolumeRecorder`` fields.  hyb and the layerwise specs reuse SNP's first
layer and the stacked upper layers.  Reaching the devices in reversed or
scrambled order (the per-device trainer summed the device losses in that
order; the stacked engine takes it from ``engine.base.reach_order``) makes
the tape reach the requesters out of device order, which the stacked
adjoints must follow; DNP's unstacked GAT path is pinned too, and
per-batch tape-node ceilings keep per-pair or per-device ops from creeping
back.
"""

import functools

import numpy as np
import pytest

from repro.cluster import (
    multi_machine_cluster,
    parse_cluster_spec,
    single_machine_cluster,
)
from repro.config import APTConfig
from repro.core import APT
from repro.engine import base
from repro.engine.trainer import ParallelTrainer
from repro.graph.datasets import small_dataset
from repro.models import GAT, GCN, GraphSAGE
from repro.models.base import PartialMeanLayer
from repro.tensor import fused
from repro.tensor.tensor import Tensor, add_n
from tests import first_layer_reference as reference
from tests.first_layer_reference import install_per_device, install_per_pair

STRATEGIES = ("nfp", "snp", "dnp", "hyb", "layerwise:snp,gdp")
CLUSTERS = {"1x4": (1, 4), "2x4": (2, 4)}


@pytest.fixture(scope="module")
def ds():
    return small_dataset(n=1500, feature_dim=16, num_classes=4, seed=7)


def _cluster(ds, shape):
    if isinstance(shape, str):
        return parse_cluster_spec(shape)
    machines, gpus = shape
    cache = ds.feature_bytes * 0.05
    return (
        single_machine_cluster(gpus, gpu_cache_bytes=cache)
        if machines == 1
        else multi_machine_cluster(machines, gpus, gpu_cache_bytes=cache)
    )


def _finalize_sum(layer, total):
    """The epilogue the frozen per-pair NFP form calls on each owner's
    summed pre-activation: bias and activation, one node per owner (the
    stacked first layer runs one ``add_bias_act`` over all owners)."""
    return fused.add_bias_act([total], layer.bias, activation=layer._act)


def _run(ds, model_cls, strategy, shape, per_pair, loss_order=None,
         per_device=False):
    cluster = _cluster(ds, shape)
    model = model_cls(ds.feature_dim, 8, ds.num_classes, 2, seed=1)
    apt = APT(ds, model, cluster,
              APTConfig(fanouts=(4, 4), global_batch_size=256, seed=0))
    apt.prepare()
    contexts = []
    init = ParallelTrainer.__init__

    def recording_init(self, strategy, ctx, optimizer=None):
        contexts.append(ctx)
        init(self, strategy, ctx, optimizer)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ParallelTrainer, "__init__", recording_init)
        if per_pair:
            install_per_pair(mp)
            mp.setattr(PartialMeanLayer, "finalize_sum", _finalize_sum,
                       raising=False)
        if per_device:
            install_per_device(mp)
        if loss_order is not None:
            # Reach the devices in another order: the per-device trainer
            # sums their losses in it, the stacked one stacks them in it.
            mp.setattr(reference, "add_n", lambda losses: add_n(
                [losses[i] for i in loss_order(len(losses))]
            ))
            mp.setattr(base, "reach_order", lambda devices: [
                devices[i] for i in loss_order(len(devices))
            ])
        report = apt.run_strategy(strategy, 2)
    recorders = [
        {k: (v.tobytes() if isinstance(v, np.ndarray) else v)
         for k, v in vars(ctx.recorder).items()}
        for ctx in contexts
    ]
    timelines = [
        {k: (v.tobytes() if isinstance(v, np.ndarray) else v)
         for k, v in ctx.timeline.state_dict().items() if k != "trace_batches"}
        for ctx in contexts
    ]
    traces = [
        [(start, delta.tobytes())
         for start, delta in ctx.timeline.state_dict()["trace_batches"]]
        for ctx in contexts
    ]
    epochs = report.result.epochs
    return (
        [e.mean_loss for e in epochs],
        [e.phases for e in epochs],
        model.state_dict(),
        recorders,
        (timelines, traces),
    )


def _assert_same(run, ref):
    losses, phases, params, recorders, timelines = run
    assert losses == ref[0]  # exact float equality
    assert phases == ref[1]
    assert params.keys() == ref[2].keys()
    for k in params:
        assert np.array_equal(params[k], ref[2][k]), k
    assert recorders and recorders == ref[3]
    assert timelines == ref[4]


@pytest.mark.parametrize("shape", CLUSTERS.values(), ids=CLUSTERS.keys())
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("model_cls", [GraphSAGE, GCN], ids=["sage", "gcn"])
def test_stacked_first_layer_equals_per_pair(ds, model_cls, strategy, shape):
    _assert_same(
        _run(ds, model_cls, strategy, shape, False),
        _run(ds, model_cls, strategy, shape, True),
    )


@pytest.mark.parametrize("shape", CLUSTERS.values(), ids=CLUSTERS.keys())
def test_dnp_gat_first_layer_equals_per_pair(ds, shape):
    # GAT is not stacked, but DNP now builds its per-task sub-blocks out
    # of the batch block and charges the shuffle by shape.
    gat = functools.partial(GAT, heads=2)
    _assert_same(*[_run(ds, gat, "dnp", shape, pp) for pp in (False, True)])


LOSS_ORDERS = {
    "reversed": lambda n: np.arange(n)[::-1],
    "scrambled": lambda n: np.random.default_rng(n).permutation(n),
}


@pytest.mark.parametrize("order", LOSS_ORDERS.values(), ids=LOSS_ORDERS.keys())
@pytest.mark.parametrize("strategy", ("nfp", "snp", "dnp", "hyb"))
@pytest.mark.parametrize("model_cls", [GraphSAGE, GCN], ids=["sage", "gcn"])
def test_stacked_backward_follows_the_tape_order(ds, model_cls, strategy, order):
    # The segment-ordered adjoints must replay the order in which the tape
    # reaches each requester (reversed, hyb's projections come back
    # machine 1 first), not device order.
    _assert_same(*[
        _run(ds, model_cls, strategy, (2, 4), per_pair, loss_order=order)
        for per_pair in (False, True)
    ])


MODELS = {"sage": GraphSAGE, "gcn": GCN, "gat": functools.partial(GAT, heads=2)}
UPPER_STRATEGIES = ("gdp", "nfp", "snp", "dnp", "hyb", "layerwise:gdp,snp")


@pytest.mark.parametrize("shape", CLUSTERS.values(), ids=CLUSTERS.keys())
@pytest.mark.parametrize("strategy", UPPER_STRATEGIES)
@pytest.mark.parametrize("model", MODELS)
def test_stacked_model_equals_per_device(ds, model, strategy, shape):
    # GDP's whole model, every upper layer and the loss against one set
    # of ops per device, and the vector charges against scalar ones.
    _assert_same(
        _run(ds, MODELS[model], strategy, shape, False),
        _run(ds, MODELS[model], strategy, shape, False, per_device=True),
    )


@pytest.mark.parametrize("strategy", ("gdp", "dnp", "layerwise:gdp,snp"))
@pytest.mark.parametrize("model", MODELS)
def test_vector_charges_on_a_mixed_fleet(ds, model, strategy):
    # Each device's charge is priced by its own spec (an a100 and a t4 per
    # machine here), exactly as the scalar per-device calls priced it.
    shape = "1x2:a100,1x2:t4"
    _assert_same(
        _run(ds, MODELS[model], strategy, shape, False),
        _run(ds, MODELS[model], strategy, shape, False, per_device=True),
    )


@pytest.mark.parametrize("order", LOSS_ORDERS.values(), ids=LOSS_ORDERS.keys())
@pytest.mark.parametrize("strategy", ("gdp", "nfp", "snp", "dnp", "hyb"))
@pytest.mark.parametrize("model", MODELS)
def test_stacked_model_follows_the_loss_order(ds, model, strategy, order):
    # The loss adds the devices' losses, and every stacked adjoint
    # accumulates their gradients, in the order the tape reaches them.
    _assert_same(
        _run(ds, MODELS[model], strategy, (2, 4), False, loss_order=order),
        _run(ds, MODELS[model], strategy, (2, 4), False, loss_order=order,
             per_device=True),
    )


#: Gradient-carrying (non-leaf) tape nodes of one batch, GraphSAGE on 8
#: GPUs: the stacked engine's counts, which may only go down.  The
#: per-pair first layer recorded 353 (nfp), 241 (snp) and 265 (dnp); with
#: the stacked first layer and per-device upper layers and losses the
#: counts were 81 (gdp), 90 (nfp), 92 (snp) and 66 (dnp); NFP's
#: per-owner first layer kept 39 until it ran as one op set over all owners.
TAPE_CEILINGS = {"gdp": 6, "nfp": 8, "snp": 12, "dnp": 7}


@pytest.mark.parametrize("strategy", TAPE_CEILINGS)
def test_tape_nodes_per_batch_stay_under_ceiling(ds, strategy, monkeypatch):
    counts = []
    backward = Tensor.backward

    def counting(self, grad=None):
        seen, stack, nodes = set(), [self], 0
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._parents)
                nodes += node._backward_fn is not None
        counts.append(nodes)
        return backward(self, grad)

    monkeypatch.setattr(Tensor, "backward", counting)
    model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, 2, seed=1)
    cluster = single_machine_cluster(8, gpu_cache_bytes=ds.feature_bytes * 0.05)
    apt = APT(ds, model, cluster,
              APTConfig(fanouts=(4, 4), global_batch_size=256, seed=0))
    apt.prepare()
    apt.run_strategy(strategy, 1)
    assert counts and max(counts) <= TAPE_CEILINGS[strategy], counts
