"""Which segment kernel the training path takes, and how often it indexes.

Two counts over real batches (DESIGN.md §5.9): no n-D operand at or above
the element cutoff reaches ``np.add.at`` under any strategy (the fused
gather→aggregate node included), and NFP — which aggregates every
owner's block over all shards in one op — stacks the owners' fused union
columns into one set and builds the grouping structure of any id array
once per batch.
"""

from collections import Counter

import numpy as np
import pytest

from repro.cluster import single_machine_cluster
from repro.config import APTConfig
from repro.core import APT
from repro.engine import nfp
from repro.graph.datasets import small_dataset
from repro.models import GraphSAGE
from repro.tensor import sparse

STRATEGIES = ("gdp", "nfp", "snp", "dnp")


@pytest.fixture(scope="module")
def ds():
    return small_dataset(n=1500, feature_dim=32, num_classes=4, seed=7)


def _one_epoch(ds, strategy):
    model = GraphSAGE(ds.feature_dim, 16, ds.num_classes, 2, seed=1)
    cluster = single_machine_cluster(4, gpu_cache_bytes=ds.feature_bytes * 0.06)
    # one global batch per epoch
    config = APTConfig(fanouts=(6, 6), global_batch_size=4096, seed=0)
    apt = APT(ds, model, cluster, config)
    apt.prepare()
    report = apt.run_strategy(strategy, 1, numerics=True)
    assert report.result.epochs[0].num_batches == 1
    return report


class _AddSpy:
    """Stands in for ``np.add``; records the operand of every ``.at``."""

    def __init__(self):
        self._add = np.add
        self.operands = []

    def __call__(self, *args, **kwargs):
        return self._add(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._add, name)

    def at(self, a, indices, b=None):
        self.operands.append(np.shape(b))
        return self._add.at(a, indices, b)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_no_nd_operand_over_the_cutoff_reaches_add_at(ds, strategy, monkeypatch):
    spy = _AddSpy()
    monkeypatch.setattr(np, "add", spy)
    _one_epoch(ds, strategy)
    np.add.at(np.zeros(2), np.array([0]), np.ones(1))
    monkeypatch.undo()
    assert spy.operands[-1] == (1,)  # the spy sees every module's np.add.at
    slow = [
        shape for shape in spy.operands
        if len(shape) >= 2 and int(np.prod(shape)) >= sparse._ADD_AT_MAX_SIZE
    ]
    assert not slow, f"{len(slow)} n-D np.add.at operands, e.g. {slow[:3]}"


def test_nfp_indexes_each_id_array_once(ds, monkeypatch):
    built = Counter()   # SegmentIndex objects per id array
    checks = Counter()  # sortedness checks / stable sorts per id array
    keep = []           # hold the arrays: a freed id() could be reused

    init = sparse.SegmentIndex.__init__

    def counting_init(self, ids, num_segments):
        init(self, ids, num_segments)
        built[id(self.ids)] += 1
        keep.append(self.ids)

    def counting(fn):
        def wrapper(ids, *args):
            checks[(fn.__name__, id(ids))] += 1
            keep.append(ids)
            return fn(ids, *args)
        return wrapper

    monkeypatch.setattr(sparse.SegmentIndex, "__init__", counting_init)
    monkeypatch.setattr(
        sparse, "_is_nondecreasing", counting(sparse._is_nondecreasing)
    )
    monkeypatch.setattr(sparse, "_stable_order", counting(sparse._stable_order))
    columns, reads = [], []  # each owner's union columns; aggregated ids
    union_columns = nfp.union_columns
    gather_segment_sum = sparse.gather_segment_sum

    def counting_columns(*args):
        columns.append(union_columns(*args))
        return columns[-1]

    def counting_gather(x, src, *args):
        reads.append(src)
        return gather_segment_sum(x, src, *args)

    monkeypatch.setattr(nfp, "union_columns", counting_columns)
    monkeypatch.setattr(sparse, "gather_segment_sum", counting_gather)
    _one_epoch(ds, "nfp")
    # Four owners' blocks over the column-stacked shard projections: their
    # union columns stacked into one set, read by the one aggregation that
    # covers every owner and all four shards (no owner's own columns are
    # aggregated), and no id array is indexed twice.
    stacked = np.concatenate([c.ids for c in columns])
    assert len(columns) == 4
    assert sum(np.array_equal(src, stacked) for src in reads) == 1
    assert not any(src is c or src is c.ids for src in reads for c in columns)
    assert built and max(built.values()) == 1, built.most_common(3)
    assert checks and max(checks.values()) == 1, checks.most_common(3)


def test_nfp_union_columns_reject_repeated_union_rows():
    # The composite columns equal the two chained gathers only when the
    # block's union rows are distinct (each block row owns its union row).
    edge_src = np.array([0, 1, 2, 1])
    cols = nfp.union_columns(np.array([5, 0, 3]), edge_src, 6)
    assert np.array_equal(cols.ids, [5, 0, 3, 0]) and cols.num_segments == 6
    with pytest.raises(AssertionError, match="repeat a union position"):
        nfp.union_columns(np.array([5, 0, 5]), edge_src, 6)
