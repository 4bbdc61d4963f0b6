"""Hybrid strategy: GDP across machines, SNP within each machine.

The paper's conclusion sketches this as future work: "use GDP to coordinate
different machines in order to avoid shuffling hidden embeddings among
machines, and SNP for the GPUs on each machine to effectively utilize the
GPU cache for graphs like FS".  This module implements exactly that:

* **Across machines — GDP.**  Global seed batches are split round-robin
  over machines; machines never exchange computation graphs or hidden
  embeddings (only the DDP gradient sync crosses the network).
* **Within a machine — SNP.**  Every machine carries the same G-way
  *slot* partition of the graph (derived by collapsing the global C-way
  partition through each device's index within its machine).  A machine's
  seeds go to the GPU whose slot owns them; first-layer edges are routed
  to the same-machine GPU owning their source; partial aggregations come
  back over PCIe only.

Because every machine uses the same slot map, GPU ``g`` of every machine
caches the same slot-``g`` hot set — the cache behaves exactly like
single-machine SNP while the expensive NIC carries no hidden embeddings.

The implementation subclasses :class:`~repro.engine.snp.SNPStrategy` and
overrides only the ownership function (:meth:`server_of_nodes` resolves
within the requester's machine, which is the key SNP hands the shared
first-layer router), the seed assignment, and the cache policy; the
Permute/Shuffle/Execute/Reshuffle machinery — including the exact
partial-aggregation algebra for GraphSAGE, GCN, and GAT — is reused
verbatim, so the hybrid strategy is semantically equivalent to the other
four (covered by the equivalence tests).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.engine.base import StrategyReport
from repro.engine.context import ExecutionContext
from repro.engine.snp import SNPStrategy
from repro.featurestore.cache import cache_capacity_nodes, snp_cache_nodes


class HybridGDPSNPStrategy(SNPStrategy):
    """GDP between machines + SNP inside each machine (paper future work)."""

    name = "hyb"
    requires_partition = True

    def __init__(self):
        super().__init__()
        self._slot_of_node: Optional[np.ndarray] = None
        self._machine_devices: Optional[np.ndarray] = None  # (M, G)
        self._machine_of_device: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def prepare(self, ctx: ExecutionContext) -> StrategyReport:
        parts = self.check_partition(ctx)
        self._parts = parts
        cluster = ctx.cluster
        gpus = cluster.gpus_per_machine
        if any(m.num_gpus != gpus for m in cluster.machines):
            raise ValueError(
                "the hybrid strategy requires homogeneous machines"
            )
        # Collapse the global C-way partition into a G-way slot map: a
        # node owned by device d belongs to slot (d mod machine layout).
        self._machine_of_device = np.array(
            [cluster.machine_of(d) for d in range(cluster.num_devices)],
            dtype=np.int64,
        )
        slot_of_device = np.zeros(cluster.num_devices, dtype=np.int64)
        machine_devices = np.zeros((cluster.num_machines, gpus), dtype=np.int64)
        for m in range(cluster.num_machines):
            devs = cluster.devices_of_machine(m)
            machine_devices[m] = devs
            for slot, d in enumerate(devs):
                slot_of_device[d] = slot
        self._machine_devices = machine_devices
        self._slot_of_node = slot_of_device[parts]

        # Cache policy: GPU with slot g (on any machine) serves only nodes
        # of slot g, so it caches the hottest nodes of that slot.
        freq = self.resolve_access_freq(ctx)
        cap = cache_capacity_nodes(
            ctx.cluster.gpu_cache_bytes, ctx.dataset.feature_dim
        )
        caches = [
            snp_cache_nodes(freq, self._slot_of_node, int(slot_of_device[d]), cap)
            for d in range(cluster.num_devices)
        ]
        ctx.store.configure_caches(caches, dim_fraction=1.0)
        return StrategyReport(
            name=self.name,
            cached_nodes_per_device=[int(c.size) for c in caches],
            dim_fraction=1.0,
        )

    # ------------------------------------------------------------------ #
    def assign_seeds(
        self, ctx: ExecutionContext, global_batch: np.ndarray
    ) -> List[Optional[np.ndarray]]:
        """Round-robin across machines (GDP), slot-local within (SNP)."""
        gb = np.asarray(global_batch, dtype=np.int64)
        cluster = ctx.cluster
        chunks = np.array_split(gb, cluster.num_machines)
        out: List[Optional[np.ndarray]] = [None] * cluster.num_devices
        for m, chunk in enumerate(chunks):
            if chunk.size == 0:
                continue
            slots = self._slot_of_node[chunk]
            for slot in range(cluster.gpus_per_machine):
                mine = chunk[slots == slot]
                if mine.size:
                    out[self._machine_devices[m, slot]] = mine
        return out

    def server_of_nodes(self, nodes: np.ndarray, requester: int) -> np.ndarray:
        """Resolve ownership within the requester's machine only."""
        m = self._machine_of_device[requester]
        return self._machine_devices[m][self._slot_of_node[nodes]]
