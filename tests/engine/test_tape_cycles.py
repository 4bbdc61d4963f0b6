"""A training epoch leaves no reference cycles behind.

Every batch's tape — its tensors, their closures and the stacked layers'
reach orders — must be freed by reference counting as soon as the batch
ends.  A closure that holds an object which holds the closure (a tape node
keeping its ``Rows``, say) makes each batch's tape wait for the cyclic
collector instead, and the tapes pile up: a stacked adjoint that closed
over its ``Rows`` raised ``train_serial``'s peak RSS by tens of MiB
(DESIGN.md §5.18).  With the collector off, an epoch of every strategy
must leave nothing for ``gc.collect()`` to find.
"""

import gc
from collections import Counter

import pytest

from repro.cluster import multi_machine_cluster
from repro.config import APTConfig
from repro.core import APT
from repro.graph.datasets import small_dataset
from repro.models import GCN, GraphSAGE

STRATEGIES = ("gdp", "nfp", "snp", "dnp", "hyb", "layerwise:gdp,snp")


@pytest.fixture(scope="module")
def ds():
    return small_dataset(n=1500, feature_dim=16, num_classes=4, seed=7)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("model_cls", [GraphSAGE, GCN], ids=["sage", "gcn"])
def test_an_epoch_leaves_no_reference_cycles(ds, model_cls, strategy):
    model = model_cls(ds.feature_dim, 8, ds.num_classes, 2, seed=1)
    cluster = multi_machine_cluster(2, 4, gpu_cache_bytes=ds.feature_bytes * 0.05)
    apt = APT(ds, model, cluster,
              APTConfig(fanouts=(4, 4), global_batch_size=256, seed=0))
    apt.prepare()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        apt.run_strategy(strategy, 1)
        found = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert found == 0, kinds.most_common(5)
