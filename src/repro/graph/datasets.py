"""Scale-model analogs of the paper's evaluation graphs.

The paper trains on three public graphs (Table 2):

=============  ======== ======= ============ =================================
graph          vertices edges   feature dim  access skewness (paper Table 3)
=============  ======== ======= ============ =================================
Papers (PS)    111M     3.2B    128          extreme — top 1% of nodes take
                                             50.1% of all feature accesses
Friendster(FS) 66M      3.6B    256          scattered — top 1% take 17.7%;
                                             the 20-50% band still takes 13.5%
IGB260M (IM)   269M     3.9B    128          intermediate — top 1% take 31.1%
=============  ======== ======= ============ =================================

Hosting these is impossible here (52-128 GB of features), so each analog is
a ~40-60k-node community-structured power-law graph whose *degree-skew knob*
(power-law exponent, hub cap) is tuned so that fanout-sampling access
frequencies land in the same skewness band.  The ``table3_skewness`` case of
``benchmarks/cases.py`` regenerates paper Table 3 against these analogs as a
calibration check.

Every analog also carries learnable structure: labels follow planted
communities and features are noisy class centroids, so the accuracy sanity
experiments (paper Fig. 6/7) have real signal to fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.cluster.spec import ELEMENT_BYTES
from repro.graph.csr import CSRGraph
from repro.graph.generators import community_graph
from repro.utils.random import rng_from


@dataclass
class GraphDataset:
    """A graph plus features, labels, and the training seed set.

    Attributes
    ----------
    name:
        Short name ("ps", "fs", "im", or custom).
    graph:
        Topology in CSR (in-neighbor) layout.
    features:
        ``(num_nodes, feature_dim)`` float64 input node features.
    labels:
        ``(num_nodes,)`` int64 class labels.
    train_seeds:
        Node ids used as minibatch seeds during training.
    num_classes:
        Number of label classes.
    communities:
        Planted community assignment (also the label source); exposed so
        tests can check partitioner behaviour against ground truth.
    """

    name: str
    graph: CSRGraph
    features: np.ndarray
    labels: np.ndarray
    train_seeds: np.ndarray
    num_classes: int
    communities: Optional[np.ndarray] = None

    def __post_init__(self):
        n = self.graph.num_nodes
        if self.features.shape[0] != n:
            raise ValueError(
                f"features rows {self.features.shape[0]} != num_nodes {n}"
            )
        if self.labels.shape != (n,):
            raise ValueError(f"labels shape {self.labels.shape} != ({n},)")

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    @property
    def feature_bytes(self) -> int:
        """Simulated bytes of the feature matrix (drives cache sizing)."""
        return int(self.num_nodes * self.feature_dim * ELEMENT_BYTES)

    def with_features(self, features: np.ndarray) -> "GraphDataset":
        """Return a copy with a different feature matrix (input-dim sweeps)."""
        return GraphDataset(
            name=self.name,
            graph=self.graph,
            features=features,
            labels=self.labels,
            train_seeds=self.train_seeds,
            num_classes=self.num_classes,
            communities=self.communities,
        )


def _make_analog(
    name: str,
    n: int,
    avg_degree: float,
    exponent: float,
    intra_prob: float,
    feature_dim: int,
    num_classes: int,
    seed: int,
    max_degree: Optional[int],
    train_fraction: float,
    feature_noise: float,
) -> GraphDataset:
    graph, comm = community_graph(
        n,
        avg_degree,
        num_communities=num_classes,
        intra_prob=intra_prob,
        exponent=exponent,
        seed=seed,
        max_degree=max_degree,
        return_communities=True,
    )
    rng = rng_from(seed, 0xFEA7)
    centers = rng.normal(size=(num_classes, feature_dim))
    features = centers[comm] + feature_noise * rng.normal(size=(n, feature_dim))
    labels = comm.astype(np.int64)
    n_train = max(int(round(train_fraction * n)), 1)
    train_seeds = rng.choice(n, size=n_train, replace=False).astype(np.int64)
    train_seeds.sort()
    return GraphDataset(
        name=name,
        graph=graph,
        features=features,
        labels=labels,
        train_seeds=train_seeds,
        num_classes=num_classes,
        communities=comm,
    )


def ps_like(
    n: int = 45_000,
    feature_dim: int = 128,
    seed: int = 1,
    *,
    train_fraction: float = 0.10,
) -> GraphDataset:
    """Papers100M analog: extreme access skew (hub-dominated citations).

    Low power-law exponent and a generous hub cap concentrate sampling
    accesses on few nodes (paper: top 1% of nodes receive ~50% of accesses,
    the bottom half receives ~0%).
    """
    return _make_analog(
        name="ps",
        n=n,
        avg_degree=120.0,
        exponent=1.45,
        intra_prob=0.90,
        feature_dim=feature_dim,
        num_classes=16,
        seed=seed,
        max_degree=int(n * 0.15),
        train_fraction=train_fraction,
        feature_noise=1.0,
    )


def fs_like(
    n: int = 40_000,
    feature_dim: int = 256,
    seed: int = 2,
    *,
    train_fraction: float = 0.10,
) -> GraphDataset:
    """Friendster analog: scattered accesses (social graph, flat degrees).

    High exponent plus a tight hub cap spread sampling accesses across most
    of the graph (paper: top 1% take only ~18%, the 20-50% band still takes
    ~14%), which makes GPU caches ineffective for GDP and favors SNP.
    """
    return _make_analog(
        name="fs",
        n=n,
        avg_degree=60.0,
        exponent=1.70,
        intra_prob=0.88,
        feature_dim=feature_dim,
        num_classes=16,
        seed=seed,
        max_degree=int(n * 0.03),
        train_fraction=train_fraction,
        feature_noise=1.0,
    )


def im_like(
    n: int = 60_000,
    feature_dim: int = 128,
    seed: int = 3,
    *,
    train_fraction: float = 0.10,
) -> GraphDataset:
    """IGB260M analog: intermediate access skew.

    Paper Table 3: top 1% take ~31% of accesses, bottom half ~0%.
    """
    return _make_analog(
        name="im",
        n=n,
        avg_degree=45.0,
        exponent=1.60,
        intra_prob=0.90,
        feature_dim=feature_dim,
        num_classes=16,
        seed=seed,
        max_degree=int(n * 0.05),
        train_fraction=train_fraction,
        feature_noise=1.0,
    )


_REGISTRY: Dict[str, Callable[..., GraphDataset]] = {
    "ps": ps_like,
    "fs": fs_like,
    "im": im_like,
}


def load_dataset(name: str, **kwargs) -> GraphDataset:
    """Load a dataset analog by its paper abbreviation ("ps", "fs", "im")."""
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)


def small_dataset(
    n: int = 2_000,
    feature_dim: int = 16,
    num_classes: int = 4,
    seed: int = 7,
    avg_degree: float = 8.0,
) -> GraphDataset:
    """A tiny dataset for unit tests and the quickstart example."""
    return _make_analog(
        name="small",
        n=n,
        avg_degree=avg_degree,
        exponent=2.2,
        intra_prob=0.85,
        feature_dim=feature_dim,
        num_classes=num_classes,
        seed=seed,
        max_degree=None,
        train_fraction=0.2,
        feature_noise=0.8,
    )
