"""The stacked first layer equals the per-pair one, bit for bit.

NFP, SNP and DNP run their first layer as a few stacked ops per batch
(DESIGN.md §5.18).  Against the frozen per-pair forms in
``tests/first_layer_reference.py`` every run must give exactly the same
losses, final parameters, simulated Timeline phases and ``VolumeRecorder``
fields.  hyb and ``layerwise:snp,gdp`` reuse SNP's first layer.  Summing
the devices' losses in reversed or scrambled order makes the tape reach
the requesters out of device order, which the stacked adjoints must
follow; DNP's unstacked GAT path is pinned too, and per-batch tape-node
ceilings keep per-pair ops from creeping back.
"""

import functools

import numpy as np
import pytest

from repro.cluster import multi_machine_cluster, single_machine_cluster
from repro.config import APTConfig
from repro.core import APT
from repro.engine import trainer
from repro.engine.trainer import ParallelTrainer
from repro.graph.datasets import small_dataset
from repro.models import GAT, GCN, GraphSAGE
from repro.tensor.tensor import Tensor, add_n
from tests.first_layer_reference import install_per_pair

STRATEGIES = ("nfp", "snp", "dnp", "hyb", "layerwise:snp,gdp")
CLUSTERS = {"1x4": (1, 4), "2x4": (2, 4)}


@pytest.fixture(scope="module")
def ds():
    return small_dataset(n=1500, feature_dim=16, num_classes=4, seed=7)


def _run(ds, model_cls, strategy, shape, per_pair, loss_order=None):
    machines, gpus = shape
    cache = ds.feature_bytes * 0.05
    cluster = (
        single_machine_cluster(gpus, gpu_cache_bytes=cache)
        if machines == 1
        else multi_machine_cluster(machines, gpus, gpu_cache_bytes=cache)
    )
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
        if loss_order is not None:
            # Sum the devices' losses in another order: the tape then
            # reaches the first layer's consumers in that order.
            mp.setattr(trainer, "add_n", lambda losses: add_n(
                [losses[i] for i in loss_order(len(losses))]
            ))
        report = apt.run_strategy(strategy, 2)
    recorders = [
        {k: (v.tobytes() if isinstance(v, np.ndarray) else v)
         for k, v in vars(ctx.recorder).items()}
        for ctx in contexts
    ]
    epochs = report.result.epochs
    return (
        [e.mean_loss for e in epochs],
        [e.phases for e in epochs],
        model.state_dict(),
        recorders,
    )


@pytest.mark.parametrize("shape", CLUSTERS.values(), ids=CLUSTERS.keys())
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("model_cls", [GraphSAGE, GCN], ids=["sage", "gcn"])
def test_stacked_first_layer_equals_per_pair(ds, model_cls, strategy, shape):
    losses, phases, params, recorders = _run(ds, model_cls, strategy, shape, False)
    ref_losses, ref_phases, ref_params, ref_recorders = _run(
        ds, model_cls, strategy, shape, True
    )
    assert losses == ref_losses  # exact float equality
    assert phases == ref_phases
    assert params.keys() == ref_params.keys()
    for k in params:
        assert np.array_equal(params[k], ref_params[k]), k
    assert recorders and recorders == ref_recorders


@pytest.mark.parametrize("shape", CLUSTERS.values(), ids=CLUSTERS.keys())
def test_dnp_gat_first_layer_equals_per_pair(ds, shape):
    # GAT is not stacked, but DNP now builds its per-task sub-blocks out
    # of the batch block and charges the shuffle by shape.
    gat = functools.partial(GAT, heads=2)
    runs = [_run(ds, gat, "dnp", shape, per_pair) for per_pair in (False, True)]
    assert runs[0][0] == runs[1][0] and runs[0][1] == runs[1][1]
    for k in runs[0][2]:
        assert np.array_equal(runs[0][2][k], runs[1][2][k]), k
    assert runs[0][3] == runs[1][3]


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
    runs = [
        _run(ds, model_cls, strategy, (2, 4), per_pair, loss_order=order)
        for per_pair in (False, True)
    ]
    assert runs[0][0] == runs[1][0]
    for k in runs[0][2]:
        assert np.array_equal(runs[0][2][k], runs[1][2][k]), k


#: Gradient-carrying (non-leaf) tape nodes of one batch, GraphSAGE on 8
#: GPUs: the stacked first layer's counts, which may only go down.  The
#: per-pair first layer recorded 353 (nfp), 241 (snp) and 265 (dnp); gdp,
#: which it never touched, records 81 either way.
TAPE_CEILINGS = {"gdp": 81, "nfp": 90, "snp": 92, "dnp": 66}


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
