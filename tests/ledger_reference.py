"""The per-device load-set stage, frozen: how the feature store classified,
recorded and charged a batch's feature loads before they became one
devices × tiers row matrix per batch (DESIGN.md §5.19).

Each device's load set was classified on its own (one ``{Tier: ids}``
dict, built in the order gpu, peer, disk, local, remote), recorded into
one ``{Tier: rows}`` dict per device with its disk ranged reads counted,
counted into telemetry tier by tier, and charged from its dict with the
links looked up per call.  The disk tier observed each classification
through ``np.add.at``.  ``tests/featurestore/test_ledger_pin.py``
requires the batch stage to match these forms bit for bit.

The functions take the store as an argument and use only its state and
its unchanged promotion step (``_promote_hot_rows``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.cluster.spec import ELEMENT_BYTES
from repro.featurestore.store import Tier, count_ranges


def observe_disk(store, disk_ids: np.ndarray) -> None:
    if disk_ids.size:
        np.add.at(store._disk_hot, disk_ids, 1.0)
    store._disk_classify_calls += 1
    if (
        store._promote_capacity > 0
        and store._disk_classify_calls % store._promote_every == 0
        and store._disk_hot.max() > 0.0
    ):
        store._promote_hot_rows()


def classify(store, device: int, node_ids: np.ndarray) -> Dict[Tier, np.ndarray]:
    node_ids = np.asarray(node_ids, dtype=np.int64)
    out: Dict[Tier, np.ndarray] = {}
    own_hit = store._cached[device, node_ids]
    out[Tier.GPU_CACHE] = node_ids[own_hit]
    rest = node_ids[~own_hit]

    machine = store.cluster.machine_of(device)
    mspec = store.cluster.machine_spec(device)
    if mspec.nvlink is not None and rest.size:
        peers = [
            d
            for d in store.cluster.devices_of_machine(machine)
            if d != device
        ]
        if peers:
            peer_hit = store._cached[np.ix_(peers, rest)].any(axis=0)
        else:
            peer_hit = np.zeros(rest.size, dtype=bool)
        out[Tier.PEER_GPU] = rest[peer_hit]
        rest = rest[~peer_hit]
    else:
        out[Tier.PEER_GPU] = np.empty(0, dtype=np.int64)

    if store._disk_pos is not None and rest.size:
        on_disk = store._disk_pos[rest] < 0
        out[Tier.DISK] = rest[on_disk]
        rest = rest[~on_disk]
        observe_disk(store, out[Tier.DISK])
    else:
        out[Tier.DISK] = np.empty(0, dtype=np.int64)
        if store._disk_pos is not None:
            observe_disk(store, out[Tier.DISK])

    local = store.node_machine[rest] == machine
    out[Tier.LOCAL_CPU] = rest[local]
    out[Tier.REMOTE_CPU] = rest[~local]
    return out


class Ledger:
    """The per-device ``VolumeRecorder`` fields the load-set stage wrote."""

    def __init__(self, num_devices: int):
        self.load_rows = [{t: 0.0 for t in Tier} for _ in range(num_devices)]
        self.disk_ranged_reads = np.zeros(num_devices)

    def record_load(self, device, rows_per_tier, *, ranged_reads=0) -> None:
        for tier, rows in rows_per_tier.items():
            self.load_rows[device][tier] += float(rows)
        if ranged_reads:
            self.disk_ranged_reads[device] += float(ranged_reads)


def record_loads(
    store, ledger: Ledger, telemetry, load_nodes: List[Optional[np.ndarray]]
) -> List[Optional[Dict[Tier, np.ndarray]]]:
    splits: List[Optional[Dict[Tier, np.ndarray]]] = []
    for d, nodes in enumerate(load_nodes):
        if nodes is None:
            splits.append(None)
            continue
        split = classify(store, d, nodes)
        ledger.record_load(
            d,
            {t: ids.size for t, ids in split.items()},
            ranged_reads=count_ranges(split[Tier.DISK]),
        )
        if telemetry is not None:
            for t, ids in split.items():
                telemetry.count(f"load_rows.{t.value}", ids.size, device=d, phase="load")
        splits.append(split)
    return splits


def charge_load(store, device, split, timeline=None, phase="load") -> dict:
    """The report's fields: ``rows``, ``bytes``, ``seconds``, ``ranged_reads``."""
    row_bytes = store.dataset.feature_dim * ELEMENT_BYTES * store.dim_fraction

    mspec = store.cluster.machine_spec(device)
    dspec = store.cluster.device_spec(device)
    tier_links = {
        Tier.GPU_CACHE: None,
        Tier.PEER_GPU: mspec.gpu_peer_link(),
        Tier.LOCAL_CPU: mspec.pcie,
        Tier.REMOTE_CPU: store.cluster.inter_machine_link_per_gpu(device),
        Tier.DISK: mspec.disk,
    }
    rows: Dict[Tier, int] = {}
    nbytes_of: Dict[Tier, float] = {}
    seconds = 0.0
    ranged_reads = 0
    for tier, ids in split.items():
        nbytes = ids.size * row_bytes
        rows[tier] = int(ids.size)
        nbytes_of[tier] = nbytes
        if ids.size == 0:
            continue
        link = tier_links[tier]
        if link is None:
            seconds += dspec.memory_bound_seconds(nbytes)
        elif tier is Tier.DISK:
            nranges = count_ranges(ids)
            ranged_reads += nranges
            seconds += link.seconds(nbytes, messages=nranges)
            store.disk_stats["rows"] += float(ids.size)
            store.disk_stats["bytes"] += float(nbytes)
            store.disk_stats["ranged_reads"] += float(nranges)
        else:
            seconds += link.seconds(nbytes, messages=1)
    if timeline is not None:
        timeline.charge(device, phase, seconds)
    return {"rows": rows, "bytes": nbytes_of, "seconds": seconds,
            "ranged_reads": ranged_reads}
