"""APT cost models (paper §3.2).

Epoch time decomposes as ``T = T_build + T_load + T_shuffle + T_train``
(Eq. 2).  ``T_train`` is identical across strategies (they run the same
computation) and is *excluded from comparisons*; the model estimates the
three strategy-specific terms from dry-run statistics:

* ``T_build`` — measured directly by the dry-run (it actually performs the
  sampling and the computation-graph shuffling);
* ``T_load`` — per-tier feature-row volumes divided by the profiled
  bandwidth of the corresponding communication operator (GPU-CPU UVA read,
  cross-machine read, ...);
* ``T_shuffle`` — hidden-embedding volumes (forward + the equal-sized
  gradient backward, the paper's ``2 d'`` per node) divided by the profiled
  collective bandwidths.

Bandwidth profiling follows the paper's Prepare step ("APT conducts trials
to measure the bandwidth of different communication operators"): the model
reads the cluster spec through an optional multiplicative measurement noise
so that estimates differ realistically from the simulated ground truth
(Fig. 12 reports ~5% max error; ours lands in the same band).

The closed-form volume formulas the paper states —
``2 d' C N_d`` (NFP), ``2 d' N_vs`` (SNP), ``2 d' N_vd`` (DNP) — are
implemented as :func:`nfp_shuffle_volume` etc. and are property-tested
against the recorded volumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.cluster.spec import ELEMENT_BYTES, ClusterSpec
from repro.core.dryrun import DryRunStats
from repro.featurestore.store import TIERS, Tier
from repro.utils.random import rng_from


# ---------------------------------------------------------------------- #
# the paper's closed-form shuffle volumes (bytes of ELEMENT_BYTES elements)
# ---------------------------------------------------------------------- #
def nfp_shuffle_volume(hidden_dim: int, num_devices: int, n_dst: int) -> float:
    """NFP: every GPU exchanges a partial per layer-1 destination —
    ``2 d' C N_d`` elements (§3.2)."""
    return 2.0 * hidden_dim * num_devices * n_dst * ELEMENT_BYTES


def snp_shuffle_volume(hidden_dim: int, n_virtual: int) -> float:
    """SNP: ``2 d' N_vs`` elements over the virtual nodes (§3.2)."""
    return 2.0 * hidden_dim * n_virtual * ELEMENT_BYTES


def dnp_shuffle_volume(hidden_dim: int, n_virtual: int) -> float:
    """DNP: ``2 d' N_vd`` elements over the virtual nodes (§3.2)."""
    return 2.0 * hidden_dim * n_virtual * ELEMENT_BYTES


@dataclass
class CostEstimate:
    """Estimated strategy-specific epoch costs (seconds).

    ``t_skew`` is this reproduction's documented extension: the paper
    excludes T_train because its *total* is strategy-independent, but under
    bulk-synchronous execution the most-loaded device governs, and SNP/DNP
    inherit first-layer compute skew from source/destination popularity.
    ``t_skew`` estimates that excess (max-device minus mean-device layer-1
    time); set ``include_compute_skew=False`` on the model to reproduce the
    paper's exact formulation (ablated by the ``ablation_planner`` case of
    ``benchmarks/cases.py``).
    """

    strategy: str
    t_build: float
    t_load: float
    t_shuffle: float
    t_skew: float = 0.0
    #: informational: re-layout traffic of a layerwise composition.  Its
    #: *time* is already inside ``t_shuffle`` (re-layouts record into the
    #: hidden-byte matrix); the byte count is kept for reports and the
    #: trace output (DESIGN.md §5.15).
    relayout_bytes: float = 0.0
    #: the second planner objective (DESIGN.md §5.17): the comparable
    #: epoch seconds billed at the cluster's aggregate $/hour.  Candidates
    #: over *different device subsets* make this more than a rescaled
    #: ``total`` — a cheaper subset can win dollars while losing time.
    dollars: float = 0.0

    @property
    def total(self) -> float:
        """The comparable part of epoch time (common T_train excluded)."""
        return self.t_build + self.t_load + self.t_shuffle + self.t_skew

    def as_dict(self) -> Dict[str, float]:
        out = {
            "t_build": self.t_build,
            "t_load": self.t_load,
            "t_shuffle": self.t_shuffle,
            "t_skew": self.t_skew,
            "total": self.total,
            "dollars": self.dollars,
        }
        if self.relayout_bytes:
            out["relayout_bytes"] = self.relayout_bytes
        return out


@dataclass
class LatencyEstimate:
    """Predicted per-request serving latency of one strategy.

    The serving cost model (DESIGN.md §5.13) decomposes one inference
    batch's simulated service time as ``service(b) = t_fixed +
    t_per_seed * b``: ``t_fixed`` collects the per-batch link setup
    latencies (one bulk transfer per touched tier, one message round per
    shuffle partner) that a batch pays regardless of size, and
    ``t_per_seed`` the volume terms (sampling, feature bytes, hidden
    bytes) that scale with the seeds served.  Both are derived from the
    same dry-run statistics the epoch objective uses — scaled from one
    training epoch down to one serving batch.

    ``p50`` is the predicted median request latency at a full batch;
    ``p99`` adds the batching policy's worst-case formation wait.  The
    wait terms are strategy-independent, so the *ranking* is decided by
    ``service(batch_size)`` — but the absolute numbers stay comparable to
    the measured serve-side percentiles.
    """

    strategy: str
    batch_size: int
    t_fixed: float
    t_per_seed: float
    p50: float
    p99: float

    @property
    def total(self) -> float:
        """Ranking key (the tail is what serving objectives minimize)."""
        return self.p99

    def as_dict(self) -> Dict[str, float]:
        return {
            "batch_size": self.batch_size,
            "t_fixed": self.t_fixed,
            "t_per_seed": self.t_per_seed,
            "p50": self.p50,
            "p99": self.p99,
            "total": self.total,
        }


def _tier_rows(recorder) -> list:
    """One ``{Tier: rows}`` dict per device of a recorder's row matrix."""
    return [dict(zip(TIERS, row)) for row in recorder.load_rows.tolist()]


class CostModel:
    """Estimates strategy costs from dry-run statistics."""

    def __init__(
        self,
        cluster: ClusterSpec,
        feature_dim: int,
        *,
        bandwidth_noise: float = 0.0,
        noise_seed: int = 0,
        include_compute_skew: bool = True,
    ):
        if not 0.0 <= bandwidth_noise < 0.5:
            raise ValueError(
                f"bandwidth_noise must be in [0, 0.5), got {bandwidth_noise}"
            )
        self.cluster = cluster
        self.feature_dim = int(feature_dim)
        self.include_compute_skew = bool(include_compute_skew)
        rng = rng_from(noise_seed, 0xBA4D)

        def measured(bw: float) -> float:
            if bandwidth_noise == 0.0:
                return bw
            return bw * (1.0 + rng.uniform(-bandwidth_noise, bandwidth_noise))

        def machine_profile(m) -> Dict[str, float]:
            return {
                "hbm": measured(m.device.mem_bandwidth),
                "peer": measured(m.gpu_peer_link().bandwidth),
                "pcie": measured(m.pcie.bandwidth),
                "net_per_gpu": measured(
                    cluster.network.bandwidth / max(m.num_gpus, 1)
                ),
                "msg_latency": measured(m.gpu_peer_link().latency)
                if m.gpu_peer_link().latency > 0
                else 0.0,
                "pcie_latency": measured(m.pcie.latency) if m.pcie.latency > 0 else 0.0,
                "net_latency": measured(cluster.network.latency)
                if cluster.network.latency > 0
                else 0.0,
                "disk": measured(m.disk.bandwidth),
                "disk_latency": measured(m.disk.latency) if m.disk.latency > 0 else 0.0,
            }

        #: profiled operator bandwidths (bytes/s) and per-message latencies,
        #: one trial each (machine 0 — the historical whole-cluster profile)
        self.profile: Dict[str, float] = machine_profile(cluster.machines[0])
        #: on a mixed fleet every machine class gets its own trials; on a
        #: homogeneous cluster every device shares ``self.profile``, keeping
        #: the historical arithmetic (and its noise draws) bit-for-bit.
        self._heterogeneous = cluster.is_heterogeneous
        if self._heterogeneous:
            per_machine = [self.profile] + [
                machine_profile(m) for m in cluster.machines[1:]
            ]
            self._device_profiles = [
                per_machine[cluster.machine_of(d)]
                for d in range(cluster.num_devices)
            ]
        else:
            self._device_profiles = [
                self.profile for _ in range(cluster.num_devices)
            ]

    # ------------------------------------------------------------------ #
    def load_latency_seconds(self, stats: DryRunStats) -> float:
        """Per-message latency share of T_load.

        The feature store issues one bulk transfer per tier per batch, so a
        tier that sees any traffic pays its link's setup latency once per
        batch.  Mirrors that with the profiled latencies (GPU-cache hits are
        plain memory reads and carry none); slowest device governs, like the
        bandwidth term.
        """
        reads = stats.recorder.disk_ranged_reads
        per_device = []
        for d, rows in enumerate(_tier_rows(stats.recorder)):
            prof = self._device_profiles[d]
            tier_latency = {
                Tier.PEER_GPU: prof["msg_latency"],
                Tier.LOCAL_CPU: prof["pcie_latency"],
                Tier.REMOTE_CPU: prof["net_latency"],
            }
            lat = stats.num_batches * sum(
                lat for t, lat in tier_latency.items() if rows.get(t, 0.0) > 0
            )
            # Disk pays one setup latency per coalesced ranged read, not
            # per batch — scattered misses are what make disk slow.
            lat += float(reads[d]) * prof["disk_latency"]
            per_device.append(lat)
        return float(max(per_device)) if per_device else 0.0

    def load_seconds(self, stats: DryRunStats) -> float:
        """T_load: the slowest device's per-tier load volume at profiled
        bandwidths, plus the per-batch message latencies."""
        row_bytes = self.feature_dim * ELEMENT_BYTES * stats.dim_fraction
        reads = stats.recorder.disk_ranged_reads
        per_device = []
        for d, rows in enumerate(_tier_rows(stats.recorder)):
            prof = self._device_profiles[d]
            tier_bw = {
                Tier.GPU_CACHE: prof["hbm"],
                Tier.PEER_GPU: prof["peer"],
                Tier.LOCAL_CPU: prof["pcie"],
                Tier.REMOTE_CPU: prof["net_per_gpu"],
                Tier.DISK: prof["disk"],
            }
            tier_latency = {
                Tier.PEER_GPU: prof["msg_latency"],
                Tier.LOCAL_CPU: prof["pcie_latency"],
                Tier.REMOTE_CPU: prof["net_latency"],
            }
            secs = sum(rows.get(t, 0.0) * row_bytes / tier_bw[t] for t in Tier)
            secs += stats.num_batches * sum(
                lat for t, lat in tier_latency.items() if rows.get(t, 0.0) > 0
            )
            secs += float(reads[d]) * prof["disk_latency"]
            per_device.append(secs)
        return float(max(per_device)) if per_device else 0.0

    def shuffle_seconds(self, stats: DryRunStats) -> float:
        """T_shuffle: pairwise hidden-embedding volumes (x2 for gradients)
        through the profiled link bandwidths plus per-message latency (which
        dominates at small hidden dimensions); slowest device governs."""
        B = stats.recorder.hidden_bytes * 2.0  # forward + backward
        C = self.cluster.num_devices
        machines = np.array([self.cluster.machine_of(d) for d in range(C)])
        same = machines[:, None] == machines[None, :]
        per_device = np.zeros(C)
        for i in range(C):
            prof = self._device_profiles[i]
            mask = np.ones(C, dtype=bool)
            mask[i] = False
            send_intra = B[i, mask & same[i]].sum()
            send_inter = B[i, mask & ~same[i]].sum()
            recv_intra = B[mask & same[i], i].sum()
            recv_inter = B[mask & ~same[i], i].sum()
            per_device[i] = (
                max(send_intra, recv_intra) / prof["peer"]
                + max(send_inter, recv_inter) / prof["net_per_gpu"]
                + stats.recorder.shuffle_messages[i] * prof["msg_latency"]
            )
        return float(per_device.max()) if C else 0.0

    def train_skew_seconds(self, stats: DryRunStats) -> float:
        """Excess time of the most-loaded device's first layer vs the mean.

        Uses the dry-run's per-device FLOP estimates; the full-step factor
        (forward + backward) matches the execution engine's charging.
        """
        from repro.cluster.compute import TRAIN_FLOP_FACTOR

        flops = stats.recorder.layer1_flops
        if flops.size == 0:
            return 0.0
        if not self._heterogeneous:
            spec = self.cluster.device_spec(0)
            excess = float(flops.max() - flops.mean())
            return spec.dense_seconds(excess * TRAIN_FLOP_FACTOR)
        # Mixed fleet: convert each device's FLOPs at *its own* throughput
        # first — the straggler is whoever takes longest, not whoever
        # computes most (a slow device with few FLOPs can still govern).
        # Upper-layer compute follows the seed assignment, so it joins the
        # skew here: an equal seed split (gdp) leaves the slow tier holding
        # an equal share of *all* layers, not just layer 1.
        flops = flops + stats.recorder.upper_flops
        secs = np.array([
            self.cluster.device_spec(d).dense_seconds(
                float(flops[d]) * TRAIN_FLOP_FACTOR
            )
            for d in range(flops.size)
        ])
        # Baseline is the perfectly balanced assignment (total FLOPs at the
        # fleet's aggregate throughput) — strategy-independent, unlike the
        # per-strategy mean, so skews stay comparable across candidates.
        # On a homogeneous cluster this equals the mean, so the branch
        # above keeps its historical arithmetic.
        aggregate = sum(
            self.cluster.device_spec(d).effective_flops
            for d in range(flops.size)
        )
        ideal = float(flops.sum()) * TRAIN_FLOP_FACTOR / aggregate
        return float(secs.max() - ideal)

    def estimate(self, stats: DryRunStats) -> CostEstimate:
        """Full strategy-specific cost estimate for one dry-run."""
        est = CostEstimate(
            strategy=stats.strategy,
            t_build=stats.t_build,
            t_load=self.load_seconds(stats),
            t_shuffle=self.shuffle_seconds(stats),
            t_skew=(
                self.train_skew_seconds(stats)
                if self.include_compute_skew
                else 0.0
            ),
            relayout_bytes=stats.recorder.total_relayout_bytes(),
        )
        est.dollars = est.total * self.cluster.dollars_per_hour() / 3600.0
        return est

    def estimate_all(
        self, stats_by_strategy: Dict[str, DryRunStats]
    ) -> Dict[str, CostEstimate]:
        return {
            name: self.estimate(stats)
            for name, stats in stats_by_strategy.items()
        }

    # ------------------------------------------------------------------ #
    # serving latency objective (DESIGN.md §5.13)
    # ------------------------------------------------------------------ #
    def shuffle_latency_seconds(self, stats: DryRunStats) -> float:
        """Per-message latency share of T_shuffle (slowest device)."""
        msgs = stats.recorder.shuffle_messages
        if msgs.size == 0:
            return 0.0
        return float(msgs.max()) * self.profile["msg_latency"]

    def latency_estimate(
        self,
        stats: DryRunStats,
        *,
        batch_size: int,
        seeds_per_epoch: int,
        max_wait_s: float = 0.0,
    ) -> LatencyEstimate:
        """Predicted p50/p99 per-request latency for one serving batch size.

        The dry-run measured one training epoch over ``seeds_per_epoch``
        seeds in ``stats.num_batches`` batches.  Volume terms (sampling,
        feature bytes, hidden bytes, compute skew) scale linearly with the
        seeds served, so dividing the epoch's volume seconds by its seeds
        yields the marginal cost per request; the per-batch setup
        latencies (tier transfers, shuffle message rounds) are paid once
        per serving batch regardless of size.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if seeds_per_epoch <= 0:
            raise ValueError(
                f"seeds_per_epoch must be positive, got {seeds_per_epoch}"
            )
        load_fixed_epoch = self.load_latency_seconds(stats)
        shuffle_fixed_epoch = self.shuffle_latency_seconds(stats)
        volume_epoch = (
            stats.t_build
            + max(self.load_seconds(stats) - load_fixed_epoch, 0.0)
            + max(self.shuffle_seconds(stats) - shuffle_fixed_epoch, 0.0)
            + (
                self.train_skew_seconds(stats)
                if self.include_compute_skew
                else 0.0
            )
        )
        batches = max(stats.num_batches, 1)
        t_fixed = (load_fixed_epoch + shuffle_fixed_epoch) / batches
        t_per_seed = volume_epoch / float(seeds_per_epoch)
        service = t_fixed + t_per_seed * batch_size
        # Formation wait: the median request of a steadily filling batch
        # waits about half the window, the unluckiest nearly all of it.
        # Strategy-independent, so it shifts but never reorders rankings.
        return LatencyEstimate(
            strategy=stats.strategy,
            batch_size=int(batch_size),
            t_fixed=t_fixed,
            t_per_seed=t_per_seed,
            p50=service + 0.5 * float(max_wait_s),
            p99=service + float(max_wait_s),
        )

    def latency_all(
        self,
        stats_by_strategy: Dict[str, DryRunStats],
        *,
        batch_size: int,
        seeds_per_epoch: int,
        max_wait_s: float = 0.0,
    ) -> Dict[str, LatencyEstimate]:
        return {
            name: self.latency_estimate(
                stats,
                batch_size=batch_size,
                seeds_per_epoch=seeds_per_epoch,
                max_wait_s=max_wait_s,
            )
            for name, stats in stats_by_strategy.items()
        }
