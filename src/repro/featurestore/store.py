"""The unified feature store: placement, feature map, and read accounting.

Resolution order for a feature read by GPU ``d`` (paper §4.2):

1. ``d``'s own GPU cache (HBM bandwidth — effectively free);
2. a peer GPU's cache on the same machine, *only when fast inter-GPU links
   (NVLink) exist* — the T4 preset has none, so this tier is inactive by
   default, exactly as on the paper's platform;
3. the local CPU's feature shard (PCIe UVA read);
4. a remote machine's CPU (shared NIC);
5. local NVMe storage (``Tier.DISK``) — active only for memory-mapped
   out-of-core datasets (DESIGN.md §5.14), where the feature matrix never
   fits in RAM and a row is CPU-resident only after hot-row promotion.

A read has two halves.  :meth:`UnifiedFeatureStore.classify` splits a
batch's load sets — every device's at once — by tier, at the load-set
stage of the batch's plan: one :class:`LoadSplit`, a devices × tiers row
matrix plus each device's disk ranged-read count (on a disk-backed store
it is also the disk tier's one observation of each device's read).
:meth:`~UnifiedFeatureStore.charge_load` charges one device's row of that
split at each tier's bandwidth and returns a :class:`LoadReport`.
:meth:`~UnifiedFeatureStore.read` is the data half: the rows, with no
accounting.  Disk reads are charged per *ranged read*: sorted node ids are
coalesced into contiguous runs and each run pays one setup latency, which
is also how :func:`ranged_gather` materializes them from the memmap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.spec import ELEMENT_BYTES, ClusterSpec
from repro.cluster.timeline import Timeline
from repro.graph.datasets import GraphDataset
from repro.utils.ids import sorted_unique


def is_disk_backed(features) -> bool:
    """Whether a feature matrix is memory-mapped (out-of-core) storage."""
    return isinstance(features, np.memmap)


#: Runs of sorted ids separated by at most this many rows are coalesced
#: into one ranged read (reading a few dead rows beats a second seek).
COALESCE_GAP = 8

#: Default budget (MiB) of the disk tier's CPU-resident promoted rows
#: (``APTConfig.disk_promote_mb``).
DISK_PROMOTE_MB = 64

#: Multiplier applied to every hotness count at each re-ranking, so rows
#: that stopped being read cool off: the disk tier's promotion counts and
#: :class:`repro.serve.cache.HotnessCache`'s request counts.
HOTNESS_DECAY = 0.5


def coalesce_ranges(sorted_ids: np.ndarray, gap: int = COALESCE_GAP) -> np.ndarray:
    """Coalesce sorted node ids into ``(start, stop)`` half-open row ranges.

    Consecutive ids whose spacing is ``<= gap`` share one range; the result
    is a ``(num_ranges, 2)`` int64 array.  The range count is the number of
    read requests an out-of-core gather issues (the ``messages`` term of
    the disk link's latency charge).
    """
    ids = np.asarray(sorted_ids, dtype=np.int64)
    if ids.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    breaks = np.flatnonzero(np.diff(ids) > gap) + 1
    starts = ids[np.concatenate(([0], breaks))]
    stops = ids[np.concatenate((breaks - 1, [ids.size - 1]))] + 1
    return np.stack([starts, stops], axis=1)


def count_ranges(node_ids: np.ndarray, gap: int = COALESCE_GAP) -> int:
    """Number of coalesced ranged reads needed to fetch ``node_ids``.

    Unsorted inputs are sorted first (the gather sorts too), so the count
    matches what :func:`ranged_gather` would actually issue.
    """
    ids = np.asarray(node_ids, dtype=np.int64)
    if ids.size == 0:
        return 0
    if ids.size > 1 and np.any(np.diff(ids) < 0):
        ids = np.sort(ids)
    return int(np.count_nonzero(np.diff(ids) > gap)) + 1


def ranged_gather(
    features: np.ndarray,
    sorted_ids: np.ndarray,
    out: Optional[np.ndarray] = None,
    gap: int = COALESCE_GAP,
) -> np.ndarray:
    """Gather rows from a (typically memmap-backed) matrix via ranged reads.

    Sorted unique ids are coalesced into contiguous runs and each run is
    read with one slice — sequential I/O instead of the page-by-page random
    access a fancy index performs on a memmap.  The produced rows are
    bit-identical to ``features[sorted_ids]`` (same bytes, different access
    pattern).  When the ids coalesce poorly (more than one range per four
    rows) the slice loop would dominate, so the gather falls back to one
    fancy index.
    """
    ids = np.asarray(sorted_ids, dtype=np.int64)
    shape = (ids.size,) + features.shape[1:]
    if out is None:
        out = np.empty(shape, dtype=features.dtype)
    if ids.size == 0:
        return out
    ranges = coalesce_ranges(ids, gap)
    if ranges.shape[0] * 4 > ids.size:
        out[...] = features[ids]
        return out
    pos = 0
    for start, stop in ranges:
        hi = pos + int(np.searchsorted(ids[pos:], stop))
        block = np.asarray(features[start:stop])
        out[pos:hi] = block[ids[pos:hi] - start]
        pos = hi
    return out


class Tier(enum.Enum):
    """Memory tier a feature row was served from."""

    GPU_CACHE = "gpu_cache"
    PEER_GPU = "peer_gpu"
    LOCAL_CPU = "local_cpu"
    REMOTE_CPU = "remote_cpu"
    #: Memory-mapped on-disk features (out-of-core datasets only): rows not
    #: promoted into a cache/CPU tier are read from local NVMe in coalesced
    #: ranged reads.
    DISK = "disk"


#: The columns of a :class:`LoadSplit`'s row matrix (and of
#: ``VolumeRecorder.load_rows``): the order :meth:`UnifiedFeatureStore.charge_load`
#: adds a device's tier seconds in.
TIERS = (Tier.GPU_CACHE, Tier.PEER_GPU, Tier.DISK, Tier.LOCAL_CPU, Tier.REMOTE_CPU)
_GPU, _PEER, _DISK, _LOCAL, _REMOTE = range(len(TIERS))


class DeviceLoad(NamedTuple):
    """One device's row of a :class:`LoadSplit` — what
    :meth:`UnifiedFeatureStore.charge_load` charges."""

    #: rows read from each tier, in :data:`TIERS` order
    rows: List[int]
    #: coalesced read requests its disk rows take (0 without disk rows)
    ranged_reads: int


@dataclass
class LoadSplit:
    """A batch's load sets split by the tier each row is read from (what
    :meth:`UnifiedFeatureStore.classify` returns), for every device at once.

    ``split[d]`` is device ``d``'s :class:`DeviceLoad` (``None``: it reads
    nothing).  The row matrix and the ranged-read counts are computed once,
    at classification; the recorder adds them and each charge reads its
    device's row, so the rows charged are the rows recorded.
    """

    #: ``(devices, len(TIERS))`` rows per device and tier
    rows: np.ndarray
    #: coalesced disk ranged reads per device
    ranged_reads: np.ndarray
    #: every load set concatenated in device order, and the :data:`TIERS`
    #: column each row is read from; device ``d``'s are at
    #: ``ptr[d]:ptr[d + 1]`` (its disk ids: those in the disk column)
    node_ids: np.ndarray
    tiers: np.ndarray
    ptr: List[int]
    #: each device's row, ``None`` where it has no load set
    loads: List[Optional[DeviceLoad]]

    def __getitem__(self, device: int) -> Optional[DeviceLoad]:
        return self.loads[device]


@dataclass
class LoadReport:
    """Per-tier accounting of one device's feature read.

    The ``Tier``-keyed :attr:`rows` / :attr:`bytes` dicts are built only
    when read: ``charge_load`` runs per device per batch and keeps the
    charged row as is.  A charged report has all five tier keys; an empty
    ``LoadReport()`` has none.
    """

    #: rows per tier, in :data:`TIERS` order
    tier_rows: Sequence[int] = ()
    #: bytes of one row as charged (``dim_fraction`` applied)
    row_bytes: float = 0.0
    seconds: float = 0.0
    #: coalesced read requests issued against the disk tier (0 unless the
    #: store serves a memory-mapped out-of-core dataset)
    ranged_reads: int = 0

    @property
    def rows(self) -> Dict[Tier, int]:
        return dict(zip(TIERS, self.tier_rows))

    @property
    def bytes(self) -> Dict[Tier, float]:
        return {t: n * self.row_bytes for t, n in zip(TIERS, self.tier_rows)}


class UnifiedFeatureStore:
    """Feature placement plus cached-read accounting for all strategies.

    Parameters
    ----------
    dataset:
        Provides the feature matrix and graph.
    cluster:
        Hardware model; supplies tier bandwidths and the cache byte budget.
    node_machine:
        ``(num_nodes,)`` machine index holding each node's features in CPU
        memory.  With one machine this is all zeros.  Benchmarks pass a
        METIS-grouped assignment, mirroring the paper's data layout step.
    """

    def __init__(
        self,
        dataset: GraphDataset,
        cluster: ClusterSpec,
        node_machine: Optional[np.ndarray] = None,
        *,
        disk_promote_bytes: Optional[float] = None,
    ):
        self.dataset = dataset
        self.cluster = cluster
        n = dataset.num_nodes
        if node_machine is None:
            node_machine = np.zeros(n, dtype=np.int64)
        node_machine = np.asarray(node_machine, dtype=np.int64)
        if node_machine.shape != (n,):
            raise ValueError(f"node_machine shape {node_machine.shape} != ({n},)")
        if node_machine.size and node_machine.max() >= cluster.num_machines:
            raise ValueError("node_machine references a machine beyond the cluster")
        self.node_machine = node_machine
        C = cluster.num_devices
        # Per-device boolean cache membership.
        self._cached = np.zeros((C, n), dtype=bool)
        # Per-machine "some device caches it" rows, built on the first
        # NVLink classification after a cache change.
        self._machine_cached: Optional[np.ndarray] = None
        self._devices = np.arange(C)
        self._device_machine = np.array(
            [cluster.machine_of(d) for d in range(C)], dtype=np.int64
        )
        self._device_nvlink = np.array(
            [cluster.machine_spec(d).nvlink is not None for d in range(C)]
        )
        self._any_nvlink = bool(self._device_nvlink.any())
        # What charge_load prices each tier with, per device, in TIERS
        # order: HBM (memory bandwidth) and the four links.
        self._tier_links = [
            (
                cluster.device_spec(d),
                cluster.machine_spec(d).gpu_peer_link(),
                cluster.machine_spec(d).disk,
                cluster.machine_spec(d).pcie,
                cluster.inter_machine_link_per_gpu(d),
            )
            for d in range(C)
        ]
        #: Dimension fraction each device reads (1.0 except under NFP).
        self.dim_fraction = 1.0
        # Shared-gather scope state (see begin_shared_gather).
        self._shared_uniq: Optional[np.ndarray] = None
        self._shared_rows: Optional[np.ndarray] = None
        # Disk-tier state (inactive for in-RAM datasets): position of each
        # node's row in the promoted CPU-resident buffer, -1 = on disk.
        self._disk_pos: Optional[np.ndarray] = None
        self._disk_rows_buf: Optional[np.ndarray] = None
        self._disk_hot: Optional[np.ndarray] = None
        self._promote_capacity = 0
        self._promote_every = 0
        self._disk_classify_calls = 0
        #: cumulative disk-tier counters (telemetry / `repro run`)
        self.disk_stats: Dict[str, float] = {
            "rows": 0.0,
            "bytes": 0.0,
            "ranged_reads": 0.0,
            "promotions": 0.0,
            "refreshes": 0.0,
        }
        if is_disk_backed(dataset.features):
            self.configure_disk_tier(promote_bytes=disk_promote_bytes)

    # ------------------------------------------------------------------ #
    # configuration
    # ------------------------------------------------------------------ #
    def configure_caches(
        self, cached_nodes: Sequence[np.ndarray], dim_fraction: float = 1.0
    ) -> None:
        """Install per-device cache node sets (from a §3.2 cache policy)."""
        C = self.cluster.num_devices
        if len(cached_nodes) != C:
            raise ValueError(f"need {C} cache sets, got {len(cached_nodes)}")
        if not 0.0 < dim_fraction <= 1.0:
            raise ValueError(f"dim_fraction must be in (0, 1], got {dim_fraction}")
        self._cached[:] = False
        self._machine_cached = None
        for d, nodes in enumerate(cached_nodes):
            if np.asarray(nodes).size:
                self._cached[d, np.asarray(nodes, dtype=np.int64)] = True
        self.dim_fraction = float(dim_fraction)

    # ------------------------------------------------------------------ #
    # disk tier (out-of-core datasets, DESIGN.md §5.14)
    # ------------------------------------------------------------------ #
    @property
    def disk_tier_active(self) -> bool:
        return self._disk_pos is not None

    def configure_disk_tier(
        self,
        *,
        promote_bytes: Optional[float] = None,
        promote_every: int = 32,
    ) -> None:
        """Activate the disk tier: rows live on disk until promoted.

        ``promote_bytes`` bounds the CPU-resident side buffer holding
        promoted hot rows (default :data:`DISK_PROMOTE_MB` MiB);
        every ``promote_every`` disk-touching classifies the hottest rows
        are re-promoted from access counts decayed by
        :data:`HOTNESS_DECAY` — the same decayed-hotness scheme
        :class:`repro.serve.cache.HotnessCache` uses for the GPU tier.
        Promotion moves rows between *tiers*, never changes their values,
        so losses stay bit-identical to an in-RAM store.
        """
        n = self.dataset.num_nodes
        if promote_bytes is None:
            promote_bytes = DISK_PROMOTE_MB * 2**20
        row_bytes = max(self.dataset.feature_dim * ELEMENT_BYTES, 1)
        self._promote_capacity = max(int(promote_bytes // row_bytes), 0)
        self._promote_every = max(int(promote_every), 1)
        self._disk_pos = np.full(n, -1, dtype=np.int64)
        self._disk_hot = np.zeros(n, dtype=np.float64)
        self._disk_rows_buf = None
        self._disk_classify_calls = 0

    def _install_resident(self, nodes: np.ndarray) -> None:
        """Replace the promoted set with ``nodes`` (sorted unique ids)."""
        assert self._disk_pos is not None
        self._disk_pos.fill(-1)
        if nodes.size == 0:
            self._disk_rows_buf = None
            return
        self._disk_pos[nodes] = np.arange(nodes.size, dtype=np.int64)
        # Copy the promoted rows off disk in one coalesced pass; the copies
        # are the same bytes, so served values never depend on residency.
        self._disk_rows_buf = ranged_gather(self.dataset.features, nodes)

    def _observe_disk(self, disk_ids: np.ndarray) -> bool:
        """Count one read's disk accesses (``disk_ids`` distinct); every
        ``promote_every``-th observation re-promotes the hottest rows.
        Returns whether it did."""
        if disk_ids.size:
            self._disk_hot[disk_ids] += 1.0
        self._disk_classify_calls += 1
        if (
            self._promote_capacity > 0
            and self._disk_classify_calls % self._promote_every == 0
            and self._disk_hot.max() > 0.0
        ):
            self._promote_hot_rows()
            return True
        return False

    def _promote_hot_rows(self) -> None:
        from repro.featurestore.cache import hot_cache_nodes

        hot = hot_cache_nodes(self._disk_hot, self._promote_capacity)
        hot = hot[self._disk_hot[hot] > 0.0]
        before = self._disk_pos[hot] >= 0
        self._install_resident(hot)
        self._disk_hot *= HOTNESS_DECAY
        self.disk_stats["promotions"] += float(np.count_nonzero(~before))
        self.disk_stats["refreshes"] += 1.0

    def disk_resident_count(self) -> int:
        """Number of rows currently promoted CPU-resident."""
        if self._disk_pos is None:
            return self.dataset.num_nodes
        return int(np.count_nonzero(self._disk_pos >= 0))

    def disk_summary(self) -> Optional[Dict[str, float]]:
        """Disk-tier counters so far; ``None`` for in-RAM stores."""
        if not self.disk_tier_active:
            return None
        return {**self.disk_stats, "resident_rows": self.disk_resident_count()}

    # ------------------------------------------------------------------ #
    # shared gather (cross-device dedup, one global batch at a time)
    # ------------------------------------------------------------------ #
    def begin_shared_gather(
        self, requests: Sequence[Optional[np.ndarray]]
    ) -> Optional[Tuple[int, int]]:
        """Materialize the union of per-device row requests once.

        ``requests`` is the strategy's per-device load sets for one global
        batch (``None`` entries allowed).  Until :meth:`end_shared_gather`,
        a caller that consumes rows through an index indirection (GDP's
        ``src_index`` path) reads them from :meth:`shared_rows` at
        :meth:`shared_positions`; :meth:`read` always gathers directly.

        Returns ``(requested_rows, unique_rows)`` for telemetry, or ``None``
        when there is nothing to stage.  Tier accounting is unaffected:
        :meth:`charge_load` still charges each device's own split.
        """
        reqs = [
            np.asarray(r, dtype=np.int64)
            for r in requests
            if r is not None and np.asarray(r).size
        ]
        if not reqs:
            return None
        total = int(sum(r.size for r in reqs))
        # concatenate copies even one request: the staged union must not
        # alias a caller's array (sorted_unique returns sorted input as is).
        uniq = sorted_unique(np.concatenate(reqs))
        self._shared_rows = self.read(uniq)
        self._shared_uniq = uniq
        return total, int(uniq.size)

    def end_shared_gather(self) -> None:
        """Close the shared-gather scope and drop the staging buffer."""
        self._shared_rows = None
        self._shared_uniq = None

    def shared_rows(self) -> Optional[np.ndarray]:
        """The staged union buffer, or ``None`` outside a gather scope."""
        return self._shared_rows

    def shared_positions(self, node_ids: np.ndarray) -> Optional[np.ndarray]:
        """Positions of ``node_ids`` within the staged union, or ``None``.

        When not ``None``, ``shared_rows()[pos]`` is bitwise equal to
        ``read(node_ids)`` — callers that can consume the
        union buffer through an index indirection (GDP's ``src_index``
        path) avoid materializing their per-device row block entirely.
        """
        if self._shared_uniq is None:
            return None
        uniq = self._shared_uniq
        ids = np.asarray(node_ids, dtype=np.int64)
        pos = np.searchsorted(uniq, ids)
        if ids.size and (
            pos.max() >= uniq.size or not np.array_equal(uniq[pos], ids)
        ):
            return None
        return pos

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def classify(self, load_sets: Sequence[Optional[np.ndarray]]) -> LoadSplit:
        """Split every device's load set by the tier it reads each row
        from, in one pass over the batch.

        ``load_sets[d]`` holds device ``d``'s distinct node ids (``None``:
        it reads nothing).  A row is read from the device's own cache, else
        from a same-machine peer's cache (NVLink only), else from disk (a
        disk-backed store's unpromoted rows), else from its machine's CPU
        or a remote one.  On a disk-backed store this is the disk tier's
        observation of the batch: each device with a load set observes its
        disk rows once, in device order, and a promotion that one
        device's observation triggers holds for the later devices' rows —
        as one classification per device would.  The load-set stage
        (``repro.engine.base.record_loads``) classifies once per batch and
        every charge reuses the split.
        """
        C = self.cluster.num_devices
        devices = [d for d, ids in enumerate(load_sets) if ids is not None]
        sets = [np.asarray(load_sets[d], dtype=np.int64) for d in devices]
        sizes = [0] * C
        for d, ids in zip(devices, sets):
            sizes[d] = ids.size
        ptr = list(accumulate(sizes, initial=0))
        node_ids = np.concatenate(sets) if sets else np.empty(0, dtype=np.int64)
        dev = np.repeat(self._devices, sizes)
        machine = self._device_machine[dev]

        own = self._cached[dev, node_ids]
        # _LOCAL where the row's home machine is the device's, else _REMOTE
        tiers = (self.node_machine[node_ids] != machine) + _LOCAL
        uncached = ~own
        if self._any_nvlink:
            if self._machine_cached is None:
                self._machine_cached = np.stack([
                    self._cached[self.cluster.devices_of_machine(m)].any(axis=0)
                    for m in range(self.cluster.num_machines)
                ])
            # Not in its own cache but in the machine's: a peer holds it.
            peer = uncached & self._device_nvlink[dev]
            peer &= self._machine_cached[machine, node_ids]
            tiers[peer] = _PEER
            uncached &= ~peer
        ranged_reads = [0] * C
        if self._disk_pos is not None:
            # CPU tiers hold only promoted rows; the rest hit local NVMe.
            on_disk = uncached & (self._disk_pos[node_ids] < 0)
            for d in devices:
                lo, hi = ptr[d], ptr[d + 1]
                disk_ids = node_ids[lo:hi][on_disk[lo:hi]]
                ranged_reads[d] = count_ranges(disk_ids)
                if self._observe_disk(disk_ids):
                    on_disk[hi:] = uncached[hi:] & (self._disk_pos[node_ids[hi:]] < 0)
            tiers[on_disk] = _DISK
        tiers[own] = _GPU

        width = len(TIERS)
        rows = np.bincount(dev * width + tiers, minlength=C * width).reshape(C, width)
        row_lists = rows.tolist()
        loads: List[Optional[DeviceLoad]] = [None] * C
        for d in devices:
            loads[d] = DeviceLoad(row_lists[d], ranged_reads[d])
        return LoadSplit(
            rows=rows, ranged_reads=np.array(ranged_reads, dtype=np.int64),
            node_ids=node_ids, tiers=tiers, ptr=ptr, loads=loads,
        )

    def read(self, node_ids: np.ndarray) -> np.ndarray:
        """Rows for ``node_ids``, bit-identical to ``features[node_ids]`` —
        the data half of a feature read (:meth:`charge_load` is the
        accounting half); nothing is classified or charged.

        The rows have full dimensionality (NFP slices its shard
        afterwards).  For in-RAM stores this is a plain gather.  With the
        disk tier active, promoted rows come from the resident buffer
        (copies of the same bytes) and the rest from the memmap via
        coalesced ranged reads.
        """
        features = self.dataset.features
        ids = np.asarray(node_ids, dtype=np.int64)
        if self._disk_pos is None:
            return features[ids]
        out = np.empty((ids.size,) + features.shape[1:], dtype=features.dtype)
        if ids.size == 0:
            return out
        pos = self._disk_pos[ids]
        hit = pos >= 0
        if hit.any():
            out[hit] = self._disk_rows_buf[pos[hit]]
        n_miss = int(ids.size - np.count_nonzero(hit))
        if n_miss:
            miss_idx = np.flatnonzero(~hit)
            miss_ids = ids[miss_idx]
            order = np.argsort(miss_ids, kind="stable")
            rows = ranged_gather(features, miss_ids[order])
            out[miss_idx[order]] = rows
        return out

    def charge_load(
        self,
        device: int,
        split: DeviceLoad,
        timeline: Optional[Timeline] = None,
        phase: str = "load",
    ) -> LoadReport:
        """Charge ``device``'s read of a load set already split by tier.

        ``split`` is the device's row of what :meth:`classify` returned at
        the batch's load-set stage; nothing is classified here, so the rows
        charged are the rows recorded and the disk tier sees the read once.
        Tier seconds are added in :data:`TIERS` order, empty tiers skipped.
        Simulated load seconds are charged to ``timeline`` when given.
        """
        row_bytes = self.dataset.feature_dim * ELEMENT_BYTES * self.dim_fraction
        links = self._tier_links[device]
        rows, ranged_reads = split
        seconds = 0.0
        for col, n in enumerate(rows):
            if not n:
                continue
            nbytes = n * row_bytes
            if col == _GPU:
                seconds += links[_GPU].memory_bound_seconds(nbytes)
            elif col == _DISK:
                # One setup latency per coalesced ranged read, not per bulk
                # transfer — scattered reads pay for their seeks.
                seconds += links[_DISK].seconds(nbytes, messages=ranged_reads)
                self.disk_stats["rows"] += float(n)
                self.disk_stats["bytes"] += float(nbytes)
                self.disk_stats["ranged_reads"] += float(ranged_reads)
            else:
                seconds += links[col].seconds(nbytes, messages=1)
        if timeline is not None:
            timeline.charge(device, phase, seconds)
        return LoadReport(rows, row_bytes, seconds, ranged_reads)
