"""Communication operators over the simulated cluster.

Because all logical devices live in one process, *numerics* of a collective
are trivial (tensors are shared or summed with autograd-aware ``add_n``);
what the Communicator really does is **cost accounting**: every operator
charges simulated seconds to the participating devices' timeline buckets
using standard collective cost models:

* pairwise **all-to-all** — per device, the max of send/receive volume over
  its bottleneck link, split into intra-machine (PCIe/NVLink) and
  inter-machine (shared NIC) components, plus per-peer latency;
* ring **allreduce** — ``2 (C-1)/C * bytes / bw`` over the slowest link in
  the ring (the paper's DDP gradient sync and NFP's hidden-embedding
  exchange);
* **allgather/broadcast** — each device ships its payload to every peer
  (NFP's computation-graph broadcast).

Forward/backward symmetry: the paper's cost model counts hidden-embedding
volume as ``2 d'`` per node — embedding forward plus gradient backward.
Operators take ``count_backward`` and charge both directions at call time;
the autograd tape handles backward *numerics* automatically because the
"transferred" tensors are the same Python objects.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.cluster.spec import ELEMENT_BYTES, ClusterSpec
from repro.cluster.timeline import Timeline
from repro.tensor.tensor import Tensor, add_n


class Communicator:
    """Collective operators bound to a cluster spec and a timeline."""

    def __init__(self, cluster: ClusterSpec, timeline: Timeline):
        if timeline.num_devices != cluster.num_devices:
            raise ValueError(
                f"timeline has {timeline.num_devices} devices, cluster has "
                f"{cluster.num_devices}"
            )
        self.cluster = cluster
        self.timeline = timeline
        # Per-cluster constants of the pairwise model, built once
        # (``ClusterSpec`` is frozen): off-diagonal pairs on one machine
        # (intra) or across machines (inter), and each device's links.
        C = cluster.num_devices
        machine = np.array([cluster.machine_of(d) for d in range(C)])
        same = machine[:, None] == machine[None, :]
        self._devices = np.arange(C)
        self._off_diag = ~np.eye(C, dtype=bool)
        self._intra = self._off_diag & same
        self._inter = self._off_diag & ~same
        peer = [cluster.machine_spec(d).gpu_peer_link() for d in range(C)]
        self._peer_bw = np.array([link.bandwidth for link in peer])
        self._peer_latency = np.array([link.latency for link in peer])
        self._inter_bw = np.array(
            [cluster.inter_machine_link_per_gpu(d).bandwidth for d in range(C)]
        )

    # ------------------------------------------------------------------ #
    # cost primitives
    # ------------------------------------------------------------------ #
    def _charge_pairwise(
        self, bytes_matrix: np.ndarray, phase: str, direction_factor: float
    ) -> None:
        """Charge an all-to-all with per-device payloads ``B[i, j]``.

        ``direction_factor`` is 1.0 for one-way traffic and 2.0 when the
        matching backward-pass transfer is charged up front.
        """
        B = np.asarray(bytes_matrix, dtype=np.float64) * direction_factor
        C = self.cluster.num_devices
        if B.shape != (C, C):
            raise ValueError(f"bytes matrix must be ({C}, {C}), got {B.shape}")
        # Per device: bottleneck of send/receive volume over its peer link
        # and over its share of the NIC, plus per-message latency.  Byte
        # payloads are integer-valued, so these sums are exact in any order
        # and equal a per-device loop bit for bit (both pinned in
        # tests/engine/test_host_path_pin.py and tests/cluster/test_comm.py).
        intra = B * self._intra
        inter = B * self._inter
        msgs = (B > 0) & self._off_diag
        n_msgs = msgs.sum(axis=1) + msgs.sum(axis=0)
        secs = (
            np.maximum(intra.sum(axis=1), intra.sum(axis=0)) / self._peer_bw
            + np.maximum(inter.sum(axis=1), inter.sum(axis=0)) / self._inter_bw
            + n_msgs * self._peer_latency
        )
        self.timeline.charge(self._devices, phase, secs)
        telemetry = self.timeline.telemetry
        if telemetry is not None:
            telemetry.count("comm.pairwise_bytes", float(B.sum()), phase=phase)
            telemetry.count("comm.collectives", phase=phase)

    def _ring_allreduce_seconds(self, nbytes: float) -> float:
        """Time of a ring allreduce of ``nbytes`` per device."""
        C = self.cluster.num_devices
        if C == 1:
            return 0.0
        if self.cluster.num_machines > 1:
            link = self.cluster.inter_machine_link_per_gpu(0)
        else:
            link = self.cluster.machines[0].gpu_peer_link()
        return 2.0 * (C - 1) / C * nbytes / link.bandwidth + 2.0 * (C - 1) * link.latency

    # ------------------------------------------------------------------ #
    # structure (non-differentiable) shuffles
    # ------------------------------------------------------------------ #
    def alltoall_bytes(
        self, bytes_matrix: np.ndarray, phase: str, count_backward: bool = False
    ) -> None:
        """Cost-only all-to-all for structural or shape-known payloads.

        ``count_backward=True`` doubles the bandwidth charge, matching
        :meth:`alltoall_tensors` — timing-only execution uses this form for
        hidden-embedding shuffles whose tensor shapes are known from the
        plan.
        """
        self._charge_pairwise(
            bytes_matrix, phase, direction_factor=2.0 if count_backward else 1.0
        )

    def allgather_bytes(self, bytes_per_device: Sequence[float], phase: str) -> None:
        """Cost-only allgather: device ``i`` broadcasts ``bytes[i]`` to all.

        Used for NFP's AllBroadcast of layer-1 computation graphs.
        """
        C = self.cluster.num_devices
        b = np.asarray(bytes_per_device, dtype=np.float64)
        if b.shape != (C,):
            raise ValueError(f"need one payload per device, got shape {b.shape}")
        B = np.tile(b[:, None], (1, C))
        np.fill_diagonal(B, 0.0)
        self._charge_pairwise(B, phase, direction_factor=1.0)

    # ------------------------------------------------------------------ #
    # tensor collectives
    # ------------------------------------------------------------------ #
    def alltoall_tensors(
        self,
        parts: List[List[Optional[Tensor]]],
        phase: str,
        count_backward: bool = True,
    ) -> List[List[Optional[Tensor]]]:
        """All-to-all of tensors: ``out[j][i] = parts[i][j]``.

        The returned objects are the inputs themselves (single-process
        execution), so gradients flow back to the producing device's tape
        automatically; the transfer cost — forward and, when
        ``count_backward``, the matching gradient traffic — is charged here.
        """
        C = self.cluster.num_devices
        if len(parts) != C or any(len(row) != C for row in parts):
            raise ValueError(f"parts must be a {C}x{C} grid")
        B = np.zeros((C, C))
        for i in range(C):
            for j in range(C):
                t = parts[i][j]
                if t is not None and i != j:
                    B[i, j] = t.size * ELEMENT_BYTES
        self._charge_pairwise(B, phase, 2.0 if count_backward else 1.0)
        return [[parts[i][j] for i in range(C)] for j in range(C)]

    def alltoall_many(
        self,
        grids: List[List[List[Optional[Tensor]]]],
        phase: str,
        count_backward: bool = True,
    ) -> List[List[List[Optional[Tensor]]]]:
        """All-to-all several tensor grids as one fused message per pair.

        Real engines pack a destination's partial payloads (e.g. SNP's
        partial sums + self terms, or GAT's numerators + denominators) into
        one buffer per peer; charging them as a single message keeps the
        latency accounting equal to the fused transfer (and to the
        timing-only mode's single bytes-matrix charge).
        """
        C = self.cluster.num_devices
        B = np.zeros((C, C))
        for grid in grids:
            if len(grid) != C or any(len(row) != C for row in grid):
                raise ValueError(f"each grid must be {C}x{C}")
            for i in range(C):
                for j in range(C):
                    t = grid[i][j]
                    if t is not None and i != j:
                        B[i, j] += t.size * ELEMENT_BYTES
        self._charge_pairwise(B, phase, 2.0 if count_backward else 1.0)
        return [
            [[grid[i][j] for i in range(C)] for j in range(C)] for grid in grids
        ]

    def scatter_reduce(
        self,
        contributions: List[List[Optional[Tensor]]],
        phase: str,
        count_backward: bool = True,
    ) -> List[Optional[Tensor]]:
        """Reduce ``contributions[src][owner]`` into one tensor per owner.

        This is the paper's *SparseAllreduce* (NFP Reshuffle stage): every
        device holds a partial result for every owner's destination nodes;
        owner ``o`` receives ``sum_src contributions[src][o]``.  The
        backward pass broadcasts the owner's gradient back to every
        contributor — the same volume — so ``count_backward`` doubles the
        charge, matching the paper's ``2 d'`` per-node accounting.
        """
        C = self.cluster.num_devices
        if len(contributions) != C or any(len(row) != C for row in contributions):
            raise ValueError(f"contributions must be a {C}x{C} grid")
        B = np.zeros((C, C))
        for src in range(C):
            for owner in range(C):
                t = contributions[src][owner]
                if t is not None and src != owner:
                    B[src, owner] = t.size * ELEMENT_BYTES
        self._charge_pairwise(B, phase, 2.0 if count_backward else 1.0)
        out: List[Optional[Tensor]] = []
        for owner in range(C):
            parts = [
                contributions[src][owner]
                for src in range(C)
                if contributions[src][owner] is not None
            ]
            out.append(add_n(parts) if parts else None)
        return out

    def allreduce_gradient_sync(self, nbytes: float, phase: str = "train") -> None:
        """Charge the DDP model-gradient ring allreduce (all strategies)."""
        secs = self._ring_allreduce_seconds(nbytes)
        if secs > 0.0:
            self.timeline.charge_all(phase, secs)
        telemetry = self.timeline.telemetry
        if telemetry is not None:
            telemetry.count("comm.allreduce_bytes", float(nbytes), phase=phase)
