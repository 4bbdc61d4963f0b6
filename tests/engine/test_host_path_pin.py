"""The sort-based host path moves no simulated number.

Every strategy is dry-run twice on a 2x4 cluster from a fresh ``APT``:
once on the production host path, and once with every ``sorted_unique``
routed to NumPy's hash-based ``np.unique`` and every all-to-all charged
by the per-call rebuild (``tests/host_reference.py``).  Every
``VolumeRecorder`` field, ``T_build`` and the plan's estimates must agree
bit for bit.

The whole-matrix comm sums equal the per-device loop only because byte
payloads are integer-valued (exact in any summation order); the second
test pins that every matrix the engines charge is.
"""

import numpy as np
import pytest

from repro.cluster import multi_machine_cluster
from repro.cluster.comm import Communicator
from repro.config import APTConfig
from repro.core import APT
from repro.graph.datasets import small_dataset
from repro.models import GAT, GraphSAGE
from tests.host_reference import install_hash_unique, install_rebuilt_comm

STRATEGIES = (
    "gdp", "nfp", "snp", "dnp", "layerwise:gdp,snp,snp", "layerwise:dnp,gdp,gdp",
)


@pytest.fixture(scope="module")
def ds():
    return small_dataset(n=1500, feature_dim=16, num_classes=4, seed=7)


def _apt(ds, model=None):
    cluster = multi_machine_cluster(2, 4, gpu_cache_bytes=ds.feature_bytes * 0.05)
    if model is None:
        model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, 3, seed=1)
    apt = APT(ds, model, cluster,
              APTConfig(fanouts=(4, 4, 4), global_batch_size=256, seed=1))
    apt.prepare()
    return apt


def _recorded(ds):
    apt = _apt(ds)
    out = {}
    for s in STRATEGIES:
        stats = apt.context.dryrun.run(s)
        fields = {
            k: (v.tobytes() if isinstance(v, np.ndarray) else v)
            for k, v in vars(stats.recorder).items()
        }
        out[s] = (fields, stats.t_build)
    plan = apt.plan().plan
    out["plan"] = (plan.chosen, {n: float(e.total) for n, e in plan.estimates.items()})
    return out


def test_sort_path_equals_hash_path(ds, monkeypatch):
    fast = _recorded(ds)
    assert install_hash_unique(monkeypatch) >= 8
    install_rebuilt_comm(monkeypatch)
    reference = _recorded(ds)
    assert fast.keys() == reference.keys()
    for key in fast:
        assert fast[key] == reference[key], key
    assert all(fast[s][0]["n_dst"] > 0 for s in STRATEGIES)


def test_every_charged_byte_matrix_is_integer_valued(ds, monkeypatch):
    seen = []
    real = Communicator._charge_pairwise

    def recording(self, bytes_matrix, phase, direction_factor):
        seen.append(np.asarray(bytes_matrix, dtype=np.float64) * direction_factor)
        return real(self, bytes_matrix, phase, direction_factor)

    monkeypatch.setattr(Communicator, "_charge_pairwise", recording)
    apt = _apt(ds)
    for s in STRATEGIES:
        apt.context.dryrun.run(s)
    apt.compare_all(num_epochs=1, numerics=False)
    apt.compare_all(num_epochs=1)
    gat = GAT(ds.feature_dim, 4, ds.num_classes, 3, heads=2, seed=1)
    _apt(ds, gat).compare_all(num_epochs=1)
    assert len(seen) > 40
    for B in seen:
        assert np.array_equal(B, np.rint(B)) and B.max() < 2.0**53
