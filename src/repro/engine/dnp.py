"""Destination node parallel (DNP) — the paper's new strategy (§3.1, Fig. 3d).

Like SNP, DNP relies on an edge-cut partition, but routes each first-layer
**destination** node (with its complete sampled in-edge list) to the device
managing its partition.  The manager loads all the source features — its
cache holds the hottest nodes of its partition *plus the 1-hop halo*, which
is exactly the input set it can be asked for — computes the *full* layer-1
embedding, and ships one finished ``d'``-vector back per virtual node.

Consequences the paper highlights (§3.3):

* at most **one** hidden embedding is shuffled per destination node
  (``N_vd <= N_d``), usually fewer than SNP's per-partition partials;
* every destination is computed with a complete view of its sources, so
  attention models need no extra communication (unlike SNP/NFP);
* DNP can exploit *excess* cache beyond ``1/C`` of the features (the halo),
  but with a small cache it loads more rows than SNP because the per-device
  input set (partition + halo) is larger.

Routing is SNP's router (:func:`~repro.engine.base.route_first_layer`)
with each edge keyed by its destination's owner and no self edges: a
task's server is the owner of all its destinations, and its load set is
their sources plus themselves.  DNP keeps its own full-layer flops,
finished-row payloads and message pattern (DESIGN.md §5.19).  They, and
the execute charges, read the router's per-pair counts; a task's source
count comes from one sort per requester in timing-only mode and from the
batch block the numerics build anyway.  Only GAT's estimate, which counts
distinct sources, and the numerics read the routed tasks' ids.

GraphSAGE/GCN run every (owner, requester) task's layer at once over a
block-diagonal "batch block"; its adjoint reduces each task's rows on their
own, in tape order, bit for bit, and charges stay per task (DESIGN.md §5.18).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.cluster.spec import ELEMENT_BYTES
from repro.engine.base import (
    RoutePlan,
    RouteTask,
    Rows,
    Strategy,
    StrategyReport,
    local_index_of,
    read_load_sets,
    route_first_layer,
    split_by_partition,
    split_rows,
)
from repro.engine.context import ExecutionContext
from repro.featurestore.cache import cache_capacity_nodes, dnp_cache_nodes
from repro.models.gat import GATLayer
from repro.sampling.block import Block
from repro.tensor import concat as tensor_concat
from repro.tensor import fused
from repro.tensor.sparse import gather_segment_mean, segment_sum
from repro.tensor.tensor import Tensor
from repro.utils.ids import sorted_unique


class BlockSizes(NamedTuple):
    """The sizes a layer's ``forward_flops`` reads from a :class:`Block`."""

    num_src: int
    num_dst: int
    num_edges: int


class DNPStrategy(Strategy):
    name = "dnp"
    seed_split = "partition"
    requires_partition = True

    def __init__(self):
        self._parts: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def prepare(self, ctx: ExecutionContext) -> StrategyReport:
        self._parts = self.check_partition(ctx)
        freq = self.resolve_access_freq(ctx)
        cap = cache_capacity_nodes(
            ctx.cluster.gpu_cache_bytes, ctx.dataset.feature_dim
        )
        caches = [
            dnp_cache_nodes(freq, self._parts, d, ctx.dataset.graph, cap)
            for d in range(ctx.num_devices)
        ]
        ctx.store.configure_caches(caches, dim_fraction=1.0)
        return StrategyReport(
            name=self.name,
            cached_nodes_per_device=[int(c.size) for c in caches],
            dim_fraction=1.0,
        )

    def assign_seeds(self, ctx, global_batch):
        return split_by_partition(global_batch, self._parts, ctx.num_devices)

    # ------------------------------------------------------------------ #
    def plan_batch(
        self, ctx: ExecutionContext, batches, epoch: int = 0
    ) -> RoutePlan:
        layer = ctx.model.first_layer
        d_hidden = layer.out_dim
        plan = route_first_layer(ctx, batches, self._owners, self_as_edge=False)
        counts = plan.counts
        # Only GAT's estimate reads distinct sources, hence the tasks' ids.
        n_uniq = (
            [sorted_unique(t.edge_src).size for t in plan.tasks]
            if layer.is_attention else None
        )
        for k, (r, o) in enumerate(counts.pairs()):
            n_edges, n_vdst = int(counts.edges[r, o]), int(counts.vdst[r, o])
            # Owner-side full layer-1 work estimate.
            if layer.is_attention:
                n_src = n_uniq[k] + n_vdst
                flops = (
                    2.0 * n_src * layer.in_dim * layer.heads * layer.head_dim
                    + (n_edges + n_vdst) * layer.heads * (layer.head_dim + 6.0)
                )
            else:
                flops = (
                    2.0 * n_edges * layer.in_dim
                    + 4.0 * n_vdst * layer.in_dim * d_hidden
                )
            ctx.recorder.record_layer1_flops(o, flops)
            ctx.recorder.record_hidden(o, r, n_vdst * d_hidden * ELEMENT_BYTES)
        # One hidden-embedding alltoall per batch along the task pattern.
        ctx.recorder.record_message_pattern(counts.pattern(), calls=1)
        return plan

    def _owners(self, requester: int, block, src_ids: np.ndarray):
        """DNP's key: an edge goes to its destination's owner."""
        dst_owner = self._parts[block.dst_nodes]
        return dst_owner[block.edge_dst], dst_owner

    # load_requests intentionally stays at the base default (None): owner
    # input sets (partition + halo) overlap too little across devices for
    # a staged union to beat direct gathers (measured ~1.26 requested rows
    # per unique row — the re-gather would cost more than it saves).

    # ------------------------------------------------------------------ #
    def execute_batch(self, ctx, plan: RoutePlan, batches) -> List[Optional[Tensor]]:
        C = ctx.num_devices
        layer = ctx.model.first_layer
        xs = read_load_sets(ctx, plan)
        counts = plan.counts
        pairs = counts.pairs()
        if ctx.numerics:
            # The batch block's sub-blocks carry each task's source count.
            tasks = plan.tasks
            bb, subs = batch_block(tasks, ctx.dataset.num_nodes)
            n_src = [sub.num_src for sub in subs]
        else:
            sources = plan.source_counts(ctx.dataset.num_nodes)
            n_src = [int(sources[r, o]) for r, o in pairs]
        # Owners compute complete layer-1 embeddings per task; the charges
        # read only each task's sub-block sizes.
        hidden_bytes = np.zeros((C, C))
        flops = []
        for (r, o), num_src in zip(pairs, n_src):
            sub = BlockSizes(
                num_src, int(counts.vdst[r, o]), int(counts.edges[r, o])
            )
            flops.append(layer.forward_flops(sub))
            ctx.recorder.record_intermediate(
                o,
                ELEMENT_BYTES
                * (sub.num_src * layer.in_dim + sub.num_dst * layer.out_dim),
            )
            if o != r:
                hidden_bytes[o, r] += sub.num_dst * layer.out_dim * ELEMENT_BYTES
        ctx.charger.dense([o for _, o in pairs], flops)
        ctx.comm.alltoall_bytes(hidden_bytes, phase="shuffle", count_backward=True)
        if not ctx.numerics:
            return [None] * C

        requester = np.array([t.requester for t in tasks])
        if isinstance(layer, GATLayer):
            # Not stacked (DESIGN.md §5.18): one layer forward per task,
            # each requester's rows assembled in owner order.
            pieces = [
                layer.full_forward(sub, Tensor(xs[t.server].data[
                    local_index_of(plan.load_nodes[t.server], sub.src_nodes)
                ]))
                for t, sub in zip(tasks, subs)
            ]
            h1: List[Optional[Tensor]] = []
            for r, mb in enumerate(batches):
                ts = np.flatnonzero(requester == r)
                h1.append(None if mb is None else segment_sum(
                    tensor_concat([pieces[t] for t in ts], axis=0),
                    np.concatenate([tasks[t].vdst_req_idx for t in ts]),
                    mb.blocks[0].num_dst,
                ))
            return Rows.from_parts(h1)
        # The batch block: one aggregation of every task's raw inputs, one
        # segment-linear over every task's rows, one node per requester.
        n = np.int64(ctx.dataset.num_nodes)
        owners = [o for o in range(C) if xs[o] is not None]
        task_owner = np.array([t.server for t in tasks])
        x_rows = local_index_of(
            np.concatenate([o * n + plan.load_nodes[o] for o in owners]),
            task_owner[bb.src_nodes // n] * n + bb.src_nodes % n,
        )
        x = Tensor(np.concatenate([xs[o].data for o in owners]))
        self_rows = x_rows[bb.dst_in_src]
        cols, dst = x_rows[bb.edge_src], bb.edge_dst
        if layer.self_loop_in_aggregation:
            cols = np.concatenate([cols, self_rows])
            dst = np.concatenate([dst, np.arange(bb.num_dst)])
        agg = gather_segment_mean(x, cols, dst, bb.num_dst)
        if layer.self_loop_in_aggregation:
            terms = [(agg, layer.weight)]
        else:
            terms = [(agg, layer.w_neigh), (Tensor(x.data[self_rows]), layer.w_self)]
        out = Rows.first_layer(batches)
        reached = out.reached
        h = fused.segment_linear(
            terms, np.cumsum([0] + [t.vdst.size for t in tasks]), layer.bias,
            layer._act,
            lambda: [t for r in reached() for t in np.flatnonzero(requester == r)],
        )
        out.tensor = split_rows(h, out, requester, [t.vdst_req_idx for t in tasks])
        return out


def batch_block(tasks: List[RouteTask], num_nodes: int) -> Tuple[Block, List[Block]]:
    """Every task's sub-block at once: a block-diagonal "batch block" built
    by one ``Block.from_global_edges`` over task-keyed ids
    (``t * num_nodes + id``), and each task's own slice of it."""
    n = np.int64(num_nodes)
    ne = [t.edge_src.size for t in tasks]
    nv = [t.vdst.size for t in tasks]
    tid = np.arange(len(tasks), dtype=np.int64)
    v_key = np.repeat(tid, nv) * n + np.concatenate([t.vdst for t in tasks])
    v_ptr = np.cumsum([0] + nv)
    e_ptr = np.cumsum([0] + ne)
    dst = np.repeat(v_ptr[:-1], ne) + np.concatenate([t.edge_dst for t in tasks])
    bb = Block.from_global_edges(
        np.repeat(tid, ne) * n + np.concatenate([t.edge_src for t in tasks]),
        v_key[dst],
        dst_nodes=v_key,
    )
    s_ptr = np.searchsorted(bb.src_nodes, np.arange(len(tasks) + 1) * n)
    subs = [
        Block(
            src_nodes=bb.src_nodes[s_ptr[t] : s_ptr[t + 1]] - t * n,
            dst_nodes=task.vdst,
            dst_in_src=bb.dst_in_src[v_ptr[t] : v_ptr[t + 1]] - s_ptr[t],
            edge_src=bb.edge_src[e_ptr[t] : e_ptr[t + 1]] - s_ptr[t],
            edge_dst=task.edge_dst,
        )
        for t, task in enumerate(tasks)
    ]
    return bb, subs
