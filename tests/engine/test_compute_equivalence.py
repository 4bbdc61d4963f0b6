"""End-to-end bit-identity of the compute path against its composed form.

The contract (DESIGN.md §5.12): the fused kernels, the segment-sum
adjoint of row gathers and the cross-device shared gather are *pure
host-side* choices — every strategy must produce exactly the losses, final
parameters and simulated Timeline it produces on the composed reference
(``tests/composed_reference.py``: primitive tape nodes, ``np.add.at``
adjoint, one direct gather per device).
"""

import numpy as np
import pytest

from repro.cluster import multi_machine_cluster
from repro.config import APTConfig
from repro.core import APT
from repro.graph.datasets import small_dataset
from repro.models import GCN, GraphSAGE
from repro.tensor import sparse
from tests import composed_reference as reference

STRATEGIES = ("gdp", "nfp", "snp", "dnp")


@pytest.fixture(scope="module")
def ds():
    return small_dataset(n=1500, feature_dim=16, num_classes=4, seed=7)


def _run(
    ds, strategy, *, composed, direct_gather, backend="serial", gather=False,
    model_cls=GraphSAGE, fused_aggregation=True,
):
    model = model_cls(ds.feature_dim, 8, ds.num_classes, 2, seed=1)
    cluster = multi_machine_cluster(
        2, 2, gpu_cache_bytes=ds.feature_bytes * 0.06
    )
    config = APTConfig(
        fanouts=(4, 4),
        global_batch_size=128,
        seed=0,
        execution_backend=backend,
        num_workers=2,
        gather_prefetch=gather,
    )
    apt = APT(ds, model, cluster, config)
    apt.prepare()
    with pytest.MonkeyPatch.context() as mp:
        if composed:
            reference.install_composed_kernels(mp)
        if direct_gather:
            reference.install_direct_gather(mp)
        if not fused_aggregation:
            mp.setattr(sparse, "gather_segment_sum", reference.gather_segment_sum)
        report = apt.run_strategy(strategy, 2, numerics=True)
    return report, model


def _reference(ds, strategy):
    return _run(ds, strategy, composed=True, direct_gather=True)


def _facts(report):
    return (
        [e.mean_loss for e in report.result.epochs],
        [e.phases for e in report.result.epochs],
        [e.num_batches for e in report.result.epochs],
    )


def _assert_identical(ra, ma, rb, mb):
    losses_a, phases_a, nb_a = _facts(ra)
    losses_b, phases_b, nb_b = _facts(rb)
    assert losses_a == losses_b  # exact float equality, not approx
    assert phases_a == phases_b  # the simulated Timeline is untouched
    assert nb_a == nb_b
    sa, sb = ma.state_dict(), mb.state_dict()
    assert sa.keys() == sb.keys()
    for k in sa:
        assert np.array_equal(sa[k], sb[k]), k


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_all_optimizations_bitwise_identical(ds, strategy):
    rb, mb = _reference(ds, strategy)
    ro, mo = _run(ds, strategy, composed=False, direct_gather=False)
    _assert_identical(rb, mb, ro, mo)


@pytest.mark.parametrize(
    "strategy,composed,direct_gather",
    # Kernels alone on the strategy with the richest read pattern; the
    # shared gather alone on GDP, whose aggregation reads the staged union
    # through an index (SNP stages nothing).
    [("snp", False, True), ("gdp", True, False)],
    ids=["fusion-only", "dedup-only"],
)
def test_each_optimization_alone_is_bitwise_identical(
    ds, strategy, composed, direct_gather
):
    rb, mb = _reference(ds, strategy)
    ro, mo = _run(ds, strategy, composed=composed, direct_gather=direct_gather)
    _assert_identical(rb, mb, ro, mo)


@pytest.mark.parametrize("strategy", STRATEGIES + ("layerwise:gdp,snp",))
@pytest.mark.parametrize("model_cls", [GraphSAGE, GCN], ids=["sage", "gcn"])
def test_fused_aggregation_bitwise_identical(ds, model_cls, strategy):
    # Only the gather→aggregate node differs: every mean/sum aggregation
    # (full forward, SNP partials, NFP's union columns) against the
    # composed gather + segment sum.
    runs = [
        _run(ds, strategy, composed=False, direct_gather=False,
             model_cls=model_cls, fused_aggregation=fused)
        for fused in (False, True)
    ]
    _assert_identical(*runs[0], *runs[1])


def test_dedup_with_process_backend_gather_prefetch(ds):
    # GDP + process backend + gather prefetch: the trainer must skip the
    # shared gather (workers serve rows from shared memory) and still be
    # bit-identical to the serial composed reference.
    rb, mb = _reference(ds, "gdp")
    ro, mo = _run(
        ds,
        "gdp",
        composed=False,
        direct_gather=False,
        backend="process",
        gather=True,
    )
    _assert_identical(rb, mb, ro, mo)


def test_gather_and_arena_telemetry_counters(ds):
    # The run's telemetry summary reports requested vs unique gather rows
    # (dedup can only shrink the count); the deleted gradient arena's
    # counters are gone, so ``tensor.arena_hit_ratio`` reads 0.
    report, _ = _run(ds, "gdp", composed=False, direct_gather=False)
    counters = report.telemetry["counters"]
    req = counters.get("gather.requested_rows", 0)
    uniq = counters.get("gather.unique_rows", 0)
    assert req > 0 and 0 < uniq <= req
    assert not any(name.startswith("arena.") for name in counters)
