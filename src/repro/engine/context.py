"""Execution context and communication-volume recording.

:class:`ExecutionContext` bundles everything a strategy touches: the
dataset, the simulated cluster, the model, the sampler, the feature store,
and the ledgers (timeline + volume recorder).  A fresh context is built per
training/dry-run, so runs never leak state into each other.

:class:`VolumeRecorder` captures the communication *volumes* (independent
of time) that the APT cost model consumes: per-tier feature-load rows,
hidden-embedding shuffle bytes, computation-graph structure bytes, and the
paper's counting statistics ``N_d`` (layer-1 destinations), ``N_vs`` (SNP
virtual nodes) and ``N_vd`` (DNP virtual nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.cluster.comm import Communicator
from repro.cluster.compute import ComputeCharger
from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import Timeline
from repro.featurestore.store import TIERS, LoadSplit, Tier, UnifiedFeatureStore
from repro.graph.datasets import GraphDataset
from repro.models.base import GNNModel
from repro.sampling.cache import SampleCache
from repro.sampling.neighbor import NeighborSampler


class VolumeRecorder:
    """Accumulates communication volumes and counting statistics."""

    def __init__(self, num_devices: int):
        self.num_devices = int(num_devices)
        #: rows loaded per device per tier (feature reads): the running
        #: sum of every batch's :class:`LoadSplit` rows, columns in
        #: :data:`~repro.featurestore.store.TIERS` order
        self.load_rows = np.zeros((self.num_devices, len(TIERS)))
        #: hidden-embedding bytes, forward direction: ``[src, dst]`` pairs
        self.hidden_bytes = np.zeros((self.num_devices, self.num_devices))
        #: computation-graph structure bytes sent per device
        self.structure_send_bytes = np.zeros(self.num_devices)
        #: paper counting statistics
        self.n_dst = 0  # N_d: layer-1 destination nodes (summed over devices)
        self.n_virtual = 0  # N_vs / N_vd depending on the strategy
        #: point-to-point messages each device will exchange during hidden
        #: shuffling (drives the latency part of the T_shuffle estimate —
        #: dominant when hidden dimensions are small)
        self.shuffle_messages = np.zeros(self.num_devices)
        #: coalesced ranged reads issued against the disk tier per device
        #: (drives the per-read setup latency in the T_load estimate —
        #: dominant when out-of-core misses are scattered)
        self.disk_ranged_reads = np.zeros(self.num_devices)
        #: peak layer-1 intermediate bytes per device (OOM analysis, Fig. 10)
        self.peak_intermediate_bytes = np.zeros(self.num_devices)
        #: estimated first-layer forward FLOPs per device.  The paper's cost
        #: model drops T_train ("the same for all strategies") — true for
        #: the *total*, but under bulk-synchronous barriers the max-loaded
        #: device governs, and SNP/DNP inherit compute skew from source
        #: popularity.  This record feeds the planner's optional
        #: compute-skew extension (ablated in the benchmarks).
        self.layer1_flops = np.zeros(self.num_devices)
        #: upper-layer (>= 2) forward FLOPs per seed-owning device.  Equal
        #: seed splits make this uniform, so it cancels out of homogeneous
        #: rankings — but on a mixed fleet a slow device with an equal seed
        #: share governs the barrier, and the skew estimate needs the full
        #: per-device compute, not just layer 1 (DESIGN.md §5.17).
        self.upper_flops = np.zeros(self.num_devices)
        #: hidden-embedding bytes moved by layerwise re-layout stages
        #: (``[holder, new_owner]``; a subset of ``hidden_bytes`` kept
        #: separately for reporting — DESIGN.md §5.15)
        self.relayout_bytes = np.zeros((self.num_devices, self.num_devices))
        #: re-layout bytes attributed per model layer index
        self.relayout_layer_bytes: Dict[int, float] = {}
        #: per-node feature-access frequency census
        self.access_frequency: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def record_loads(self, split: LoadSplit) -> None:
        """Add one batch's tier rows and disk ranged reads."""
        self.load_rows += split.rows
        self.disk_ranged_reads += split.ranged_reads

    def record_hidden(self, src: int, dst: int, nbytes: float) -> None:
        if src != dst:
            self.hidden_bytes[src, dst] += nbytes

    @property
    def hidden_send_bytes(self) -> np.ndarray:
        return self.hidden_bytes.sum(axis=1)

    def record_structure(self, device: int, nbytes: float) -> None:
        self.structure_send_bytes[device] += nbytes

    def record_layer1_flops(self, device: int, flops: float) -> None:
        self.layer1_flops[device] += flops

    def record_upper_flops(self, device: int, flops: float) -> None:
        self.upper_flops[device] += flops

    def record_message_pattern(self, pattern: np.ndarray, calls: int = 1) -> None:
        """Count the messages a pairwise exchange with this non-zero
        ``pattern`` will cost each device, over ``calls`` collective calls."""
        nz = np.asarray(pattern) > 0
        np.fill_diagonal(nz, False)
        self.shuffle_messages += calls * (
            nz.sum(axis=1) + nz.sum(axis=0)
        ).astype(np.float64)

    def record_relayout(
        self, layer: int, holder: int, new_owner: int, nbytes: float
    ) -> None:
        """One re-layout row movement: embedding rows of ``layer``'s input
        changing owners.  Doubles as ``record_hidden`` so the cost model's
        T_shuffle term prices re-layout traffic with no extra plumbing."""
        if holder != new_owner:
            self.relayout_bytes[holder, new_owner] += nbytes
            self.relayout_layer_bytes[layer] = (
                self.relayout_layer_bytes.get(layer, 0.0) + nbytes
            )
            self.record_hidden(holder, new_owner, nbytes)

    def record_intermediate(self, device: int, nbytes: float) -> None:
        self.peak_intermediate_bytes[device] = max(
            self.peak_intermediate_bytes[device], nbytes
        )

    # ------------------------------------------------------------------ #
    def total_hidden_bytes(self) -> float:
        return float(self.hidden_send_bytes.sum())

    def total_load_rows(self, tier: Tier) -> float:
        return float(self.load_rows[:, TIERS.index(tier)].sum())

    def total_relayout_bytes(self) -> float:
        return float(self.relayout_bytes.sum())


@dataclass
class ExecutionContext:
    """Everything one training (or dry-run) run operates on."""

    dataset: GraphDataset
    cluster: ClusterSpec
    model: GNNModel
    sampler: NeighborSampler
    store: UnifiedFeatureStore
    timeline: Timeline
    comm: Communicator
    charger: ComputeCharger
    recorder: VolumeRecorder
    #: node -> device partition (SNP/DNP); ``None`` lets strategies compute
    #: or require one.
    parts: Optional[np.ndarray] = None
    #: per-node access frequency from a dry-run census (cache policies).
    access_freq: Optional[np.ndarray] = None
    global_batch_size: int = 1024
    shuffle_seed: int = 0
    #: DistDGL-style CPU sampling (Fig. 7 baseline) instead of GPU sampling.
    cpu_sampling: bool = False
    #: Model prefetch pipelining (sampling/loading overlaps training); see
    #: :class:`repro.cluster.timeline.Timeline`.
    overlap: bool = False
    #: When False, strategies charge the exact same simulated time but skip
    #: the tensor math (timing-only mode for performance sweeps; correctness
    #: is covered by the numerics-on equivalence tests, and
    #: ``tests/engine/test_timing_mode.py`` pins that both modes charge
    #: identical timelines).
    numerics: bool = True
    #: Optional :class:`~repro.obs.telemetry.TelemetryCollector`; the
    #: timeline, communicator, and strategy executors emit into it.  Pure
    #: observation — never charges simulated time (see tests/obs).
    telemetry: Optional[object] = None
    #: Optional :class:`~repro.sampling.cache.SampleCache` reusing sampled
    #: epochs across strategies/runs.  Wall-clock only: cached batches are
    #: bit-identical to fresh ones, so charged sampling time is unchanged.
    sample_cache: Optional[SampleCache] = None
    #: Host-side :class:`~repro.parallel.backend.ExecutionBackend` that
    #: sampling / feature-gather loops dispatch through.  ``None`` means
    #: the shared serial backend.  Host wall-clock only: every backend
    #: yields bit-identical batches and simulated Timeline charges.
    backend: Optional[object] = None
    #: Dry-runs only: the node-layout blocks layerwise specs regroup, keyed
    #: by ``(epoch, layer, frontier)`` and shared across the candidate specs
    #: of one :class:`~repro.core.dryrun.DryRun` (same partition, same
    #: sampler).  ``None`` in training, where each batch is planned once.
    regrouped: Optional[dict] = None

    @property
    def num_devices(self) -> int:
        return self.cluster.num_devices

    def count(self, name: str, value: float = 1.0, *, device=None, phase=None) -> None:
        """Accumulate a telemetry counter; no-op without a collector."""
        if self.telemetry is not None:
            self.telemetry.count(name, value, device=device, phase=phase)

    @classmethod
    def build(
        cls,
        dataset: GraphDataset,
        cluster: ClusterSpec,
        model: GNNModel,
        fanouts,
        *,
        parts: Optional[np.ndarray] = None,
        node_machine: Optional[np.ndarray] = None,
        access_freq: Optional[np.ndarray] = None,
        global_batch_size: int = 1024,
        sampler_seed: int = 0,
        shuffle_seed: int = 0,
        cpu_sampling: bool = False,
        numerics: bool = True,
        overlap: bool = False,
        telemetry=None,
        sample_cache: Optional[SampleCache] = None,
        backend=None,
        disk_promote_bytes: Optional[float] = None,
    ) -> "ExecutionContext":
        """Assemble a fresh context with new ledgers."""
        timeline = Timeline(cluster.num_devices, overlap=overlap, telemetry=telemetry)
        store = UnifiedFeatureStore(
            dataset,
            cluster,
            node_machine=node_machine,
            disk_promote_bytes=disk_promote_bytes,
        )
        return cls(
            dataset=dataset,
            cluster=cluster,
            model=model,
            sampler=NeighborSampler(dataset.graph, fanouts, global_seed=sampler_seed),
            store=store,
            timeline=timeline,
            comm=Communicator(cluster, timeline),
            charger=ComputeCharger(cluster, timeline),
            recorder=VolumeRecorder(cluster.num_devices),
            parts=parts,
            access_freq=access_freq,
            global_batch_size=global_batch_size,
            shuffle_seed=shuffle_seed,
            cpu_sampling=cpu_sampling,
            numerics=numerics,
            overlap=overlap,
            telemetry=telemetry,
            sample_cache=sample_cache,
            backend=backend,
        )
