"""Graph data parallel (GDP) — the classical strategy (paper §3.1, Fig. 3a).

Each device processes its own seed nodes end to end: samples the subgraphs,
loads the input features (from its cache, local CPU, or remote CPU), and
runs the whole model locally.  Nothing is shuffled except DDP gradients, so
``T_shuffle = 0`` and T_build has no communication component — GDP's entire
strategy-specific cost is feature loading, which is why it wins when the
GPU cache absorbs most accesses (skewed graphs, e.g. PS) and loses when
accesses are scattered (FS).

All devices share one process, so GraphSAGE/GCN run every device's whole
model as one stacked op set per layer (DESIGN.md §5.18).
"""

from __future__ import annotations

from typing import Optional

from repro.engine.base import (
    RoutePlan,
    Rows,
    Strategy,
    StrategyReport,
    charge_loads,
    layer_step,
    read_load_sets,
    record_loads,
    split_round_robin,
)
from repro.engine.context import ExecutionContext
from repro.featurestore.cache import (
    cache_capacity_nodes,
    hot_cache_nodes,
    unified_cache_nodes,
)
from repro.tensor.tensor import Tensor


class GDPStrategy(Strategy):
    name = "gdp"
    requires_partition = False

    def prepare(self, ctx: ExecutionContext) -> StrategyReport:
        freq = self.resolve_access_freq(ctx)
        cap = cache_capacity_nodes(
            ctx.cluster.gpu_cache_bytes, ctx.dataset.feature_dim
        )
        if ctx.cluster.machines[0].nvlink is not None and ctx.num_devices > 1:
            # Fast inter-GPU links: stripe a DSP/Quiver-style unified cache
            # across the GPUs of each machine instead of replicating the
            # same hot set (paper §6: APT "can easily incorporate" such
            # caching strategies).
            caches = [None] * ctx.num_devices
            for m in range(ctx.cluster.num_machines):
                devs = ctx.cluster.devices_of_machine(m)
                per_machine = unified_cache_nodes(freq, cap, len(devs))
                for d, nodes in zip(devs, per_machine):
                    caches[d] = nodes
        else:
            hot = hot_cache_nodes(freq, cap)
            caches = [hot] * ctx.num_devices
        ctx.store.configure_caches(caches, dim_fraction=1.0)
        return StrategyReport(
            name=self.name,
            cached_nodes_per_device=[int(c.size) for c in caches],
            dim_fraction=1.0,
        )

    def assign_seeds(self, ctx, global_batch):
        return split_round_robin(global_batch, ctx.num_devices)

    # ------------------------------------------------------------------ #
    def plan_batch(
        self, ctx: ExecutionContext, batches, epoch: int = 0
    ) -> RoutePlan:
        # No routing: each device loads its own sampled inputs.
        load_nodes = [None if mb is None else mb.input_nodes for mb in batches]
        splits = record_loads(ctx, load_nodes)
        for d, mb in enumerate(batches):
            if mb is None:
                continue
            ctx.recorder.n_dst += mb.blocks[0].num_dst
            ctx.recorder.record_layer1_flops(
                d, ctx.model.first_layer.forward_flops(mb.blocks[0])
            )
        return RoutePlan(load_nodes, splits)

    def load_requests(self, ctx, plan: RoutePlan, batches):
        # Aggregation layers consume the staged union through an index
        # indirection (src_index), skipping the per-device row gather
        # entirely.  Attention layers would re-materialize their rows
        # anyway, so for them staging is pure overhead — don't request it.
        if ctx.model.first_layer.is_attention:
            return None
        return plan.load_nodes

    def execute_batch(
        self, ctx: ExecutionContext, plan: RoutePlan, batches
    ) -> Optional[Rows]:
        # Every device's load is charged from its split; its whole model
        # runs as one set of ops per layer (DESIGN.md §5.18).  The trainer
        # stages every device's load set or none: staged, the layer reads
        # the union through src_index and rows are never read per device.
        index = None
        if ctx.store.shared_rows() is None:
            x = Rows.from_parts(read_load_sets(ctx, plan))
        else:
            charge_loads(ctx, plan.splits)
            x = Rows([0 if mb is None else 1 for mb in batches],
                     tensor=Tensor(ctx.store.shared_rows()))
            index = [None if mb is None else ctx.store.shared_positions(nodes)
                     for mb, nodes in zip(batches, plan.load_nodes)]
        blocks = [None if mb is None else mb.blocks[0] for mb in batches]
        return layer_step(ctx, ctx.model.first_layer, blocks, x,
                          intermediate=True, src_index=index)
