"""Request-hotness-keyed feature caching for serving.

Training keys the GPU caches by the dry-run access census — the frequency
each node's feature is read over a *training epoch*.  Serving traffic has
its own skew (the Zipf head of the request stream plus its sampled
neighborhoods) and, under drift, that skew *moves*; a census-keyed cache
slowly turns into a cache of yesterday's hot set.

:class:`HotnessCache` closes the loop: it counts the feature rows each
served batch actually read (the sampled input sets, not just the request
seeds), decays the counts so the window slides, and on :meth:`refresh`
re-keys the :class:`~repro.featurestore.store.UnifiedFeatureStore` GPU
tier with the currently hottest nodes through the same
:func:`~repro.featurestore.cache.hot_cache_nodes` /
:meth:`~repro.featurestore.store.UnifiedFeatureStore.configure_caches`
machinery the training policies use.  The re-keyed tier holds what the
store's own budget, ``cluster.gpu_cache_bytes`` per device, allows.

Re-keying changes *where* rows are read from, never their values, so
serving outputs are bit-identical with the cache policy on or off — only
the simulated latency moves (pinned by ``tests/serve/test_engine.py``).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.featurestore.cache import cache_capacity_nodes, hot_cache_nodes
from repro.featurestore.store import (
    HOTNESS_DECAY,
    TIERS,
    Tier,
    UnifiedFeatureStore,
)


class HotnessCache:
    """Sliding-window request-hotness tracker + GPU-cache re-keyer.

    Parameters
    ----------
    store:
        The feature store whose GPU tier this cache re-keys, within its
        cluster's per-device ``gpu_cache_bytes``.
    num_nodes / feature_dim:
        Shape of the tracked id space and of one feature row.
    num_devices:
        Devices to configure (every device gets the same hot set, the
        GDP/PaGraph replication policy — correct for any strategy because
        tier placement never changes values).
    dim_fraction:
        Row-width fraction each device reads (1/C under NFP).

    Each refresh multiplies every count by
    :data:`~repro.featurestore.store.HOTNESS_DECAY`, so the window slides
    and drifted-away nodes cool off.
    """

    def __init__(
        self,
        store: UnifiedFeatureStore,
        num_nodes: int,
        feature_dim: int,
        num_devices: int,
        *,
        dim_fraction: float = 1.0,
    ):
        self.store = store
        self.num_nodes = int(num_nodes)
        self.feature_dim = int(feature_dim)
        self.num_devices = int(num_devices)
        self.cache_bytes = float(store.cluster.gpu_cache_bytes)
        self.dim_fraction = float(dim_fraction)
        self.counts = np.zeros(self.num_nodes, dtype=np.float64)
        self.observed_rows = 0
        self.refreshes = 0
        self.last_hot_size = 0

    # ------------------------------------------------------------------ #
    def observe(self, node_ids: np.ndarray) -> None:
        """Record one batch's feature-row reads (sampled input sets)."""
        ids = np.asarray(node_ids, dtype=np.int64)
        if ids.size == 0:
            return
        np.add.at(self.counts, ids, 1.0)
        self.observed_rows += int(ids.size)

    def capacity_nodes(self) -> int:
        return cache_capacity_nodes(
            self.cache_bytes, self.feature_dim, self.dim_fraction
        )

    def refresh(self) -> int:
        """Re-key the store's GPU tier to the current hot set.

        Returns the number of nodes now cached per device.  Counts are
        decayed afterwards so the hotness window slides.
        """
        hot = hot_cache_nodes(self.counts, self.capacity_nodes())
        self.store.configure_caches(
            [hot] * self.num_devices, dim_fraction=self.dim_fraction
        )
        self.counts *= HOTNESS_DECAY
        self.refreshes += 1
        self.last_hot_size = int(hot.size)
        return self.last_hot_size

    # ------------------------------------------------------------------ #
    @staticmethod
    def hit_fraction(load_rows) -> float:
        """GPU-cache share of all feature rows in a recorder's ledger.

        ``load_rows`` is ``VolumeRecorder.load_rows`` (or a per-window
        delta of it): a devices × tiers row matrix, columns in
        :data:`~repro.featurestore.store.TIERS` order.
        """
        hits = float(load_rows[:, TIERS.index(Tier.GPU_CACHE)].sum())
        total = float(load_rows.sum())
        return hits / total if total > 0 else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "cache_bytes": self.cache_bytes,
            "capacity_nodes": self.capacity_nodes(),
            "dim_fraction": self.dim_fraction,
            "decay": HOTNESS_DECAY,
            "observed_rows": self.observed_rows,
            "refreshes": self.refreshes,
            "last_hot_size": self.last_hot_size,
        }
