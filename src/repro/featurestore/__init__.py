"""Unified feature store over the simulated memory hierarchy.

Mirrors APT §4.2 "Unified feature store": node features live in a hierarchy
of GPU cache / peer GPU (when fast inter-GPU links exist) / local CPU /
remote CPU; each strategy configures per-GPU caches with its own
hotness-based policy (§3.2 "Cache configuration"), and every feature read is
resolved through a feature map and charged to the timeline at the
corresponding link's bandwidth.
"""

from repro.featurestore.store import (
    TIERS,
    DeviceLoad,
    LoadReport,
    LoadSplit,
    Tier,
    UnifiedFeatureStore,
    coalesce_ranges,
    count_ranges,
    is_disk_backed,
    ranged_gather,
)
from repro.featurestore.cache import (
    cache_capacity_nodes,
    dnp_cache_nodes,
    hot_cache_nodes,
    snp_cache_nodes,
    unified_cache_nodes,
)

__all__ = [
    "UnifiedFeatureStore",
    "LoadReport",
    "LoadSplit",
    "DeviceLoad",
    "TIERS",
    "Tier",
    "hot_cache_nodes",
    "unified_cache_nodes",
    "snp_cache_nodes",
    "dnp_cache_nodes",
    "cache_capacity_nodes",
    "is_disk_backed",
    "coalesce_ranges",
    "count_ranges",
    "ranged_gather",
]
