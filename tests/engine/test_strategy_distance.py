"""How far NFP, SNP and DNP land from GDP after three epochs (paper Fig. 6).

The strategies apply the same updates, but each adds partial sums in its
own order, so they agree with GDP to the last bits rather than exactly.
The ceilings below are the measured distances — epoch losses in units in
the last place, final parameters in absolute difference — and may only
tighten: a change that moves a strategy further from GDP fails here.
"""

import numpy as np
import pytest

from repro.cluster import multi_machine_cluster, single_machine_cluster
from repro.config import APTConfig
from repro.core import APT
from repro.graph.datasets import small_dataset
from repro.models import GCN, GraphSAGE

MODELS = {"sage": GraphSAGE, "gcn": GCN}
CLUSTERS = {"1x4": (1, 4), "2x4": (2, 4)}

#: (model, cluster, strategy) -> (max loss ulps, max |parameter difference|)
CEILINGS = {
    ("sage", "1x4", "nfp"): (1, 5.56e-17),
    ("sage", "1x4", "snp"): (2, 5.56e-17),
    ("sage", "1x4", "dnp"): (2, 5.56e-17),
    ("sage", "2x4", "nfp"): (0, 5.56e-17),
    ("sage", "2x4", "snp"): (2, 5.56e-17),
    ("sage", "2x4", "dnp"): (2, 5.56e-17),
    ("gcn", "1x4", "nfp"): (1, 5.56e-17),
    ("gcn", "1x4", "snp"): (1, 5.56e-17),
    ("gcn", "1x4", "dnp"): (1, 1.12e-16),
    ("gcn", "2x4", "nfp"): (0, 5.56e-17),
    ("gcn", "2x4", "snp"): (1, 1.39e-17),
    ("gcn", "2x4", "dnp"): (0, 5.56e-17),
}


@pytest.fixture(scope="module")
def ds():
    return small_dataset(n=3000, feature_dim=32, num_classes=4, seed=0)


def _train(ds, model, cluster, strategy):
    machines, gpus = CLUSTERS[cluster]
    spec = (
        single_machine_cluster(gpus)
        if machines == 1
        else multi_machine_cluster(machines, gpus)
    )
    net = MODELS[model](ds.feature_dim, 16, ds.num_classes, 2, seed=0)
    apt = APT(ds, net, spec,
              APTConfig(fanouts=(5, 5), global_batch_size=512, seed=0))
    apt.prepare()
    report = apt.run_strategy(strategy, 3)
    losses = np.array([e.mean_loss for e in report.result.epochs])
    return losses, net.state_dict()


@pytest.mark.parametrize("cluster", CLUSTERS)
@pytest.mark.parametrize("model", MODELS)
def test_distance_to_gdp_stays_under_ceiling(ds, model, cluster):
    ref_losses, ref_params = _train(ds, model, cluster, "gdp")
    for strategy in ("nfp", "snp", "dnp"):
        losses, params = _train(ds, model, cluster, strategy)
        ulps = np.abs(losses.view(np.int64) - ref_losses.view(np.int64)).max()
        drift = max(np.abs(params[k] - ref_params[k]).max() for k in params)
        max_ulps, max_drift = CEILINGS[(model, cluster, strategy)]
        assert ulps <= max_ulps, (strategy, ulps)
        assert drift <= max_drift, (strategy, drift)
