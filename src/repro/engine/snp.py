"""Source node parallel (SNP) — GSplit-style (paper §3.1, Fig. 3c).

An edge-cut partition assigns every graph node to a device.  Each device
samples blocks for the seeds *in its own partition*; first-layer edges are
then routed to the device owning their **source** node.  A destination node
with sources on a remote device gets a *virtual node* there: the remote
device projects and partially aggregates its local sources' contributions
and ships the partial back to the requester (GroupReduce = alltoall + local
aggregation, paper footnote 2).

Exactness of the partials:

* GraphSAGE — partials are ``(sum_u W_n x_u, count)`` pairs plus the self
  term ``W_s x_v`` produced by ``v``'s owner; the requester divides summed
  sums by summed counts.  Exactly the single-device mean.
* GAT — attention needs ``v``'s destination score on every edge-holding
  device (extra communication, §3.3): owners compute and distribute
  ``a_r . W x_v``, every device forms shift-consistent
  ``(sum exp(e-c) W x_u, sum exp(e-c))`` partials, and the requester's
  division reconstructs the exact softmax (shift-invariance).

Cache policy: the hottest nodes of the device's own partition — the read
set of an SNP server is a subset of its partition, so a quality partition
makes the cache extremely effective (and a random one destroys it,
paper Fig. 11).

Routing is the shared first-layer router
(:func:`~repro.engine.base.route_first_layer`) keyed by each edge's source
server (:meth:`SNPStrategy.server_of_nodes`); GAT and GCN also route each
destination's self edge to its owner.  SNP keeps its own partial-work
flops, partial payloads and message patterns (DESIGN.md §5.19).  They,
and the timing-only charges of GraphSAGE/GCN, read the router's
per-pair counts; only GAT's destination-score terms and the numerics
read the routed tasks' ids.

GraphSAGE/GCN row-stack every (server, requester) task into a few ops per
batch whose adjoints replay the per-task reductions in tape order, bit for
bit; charges stay per pair (DESIGN.md §5.18).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.spec import ELEMENT_BYTES
from repro.engine.base import (
    RoutePlan,
    RouteTask,
    Rows,
    Strategy,
    StrategyReport,
    local_index_of,
    ordered_adjoint,
    read_load_sets,
    route_first_layer,
    split_by_partition,
    split_rows,
)
from repro.engine.context import ExecutionContext
from repro.featurestore.cache import cache_capacity_nodes, snp_cache_nodes
from repro.models.base import PartialMeanLayer
from repro.models.gat import GATLayer
from repro.tensor import concat as tensor_concat
from repro.tensor import fused, sparse
from repro.tensor.sparse import SegmentIndex, segment_sum
from repro.tensor.tensor import Tensor
from repro.utils.ids import sorted_unique


class SNPStrategy(Strategy):
    name = "snp"
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
            snp_cache_nodes(freq, self._parts, d, cap)
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

    def server_of_nodes(self, nodes: np.ndarray, requester: int) -> np.ndarray:
        """Device that manages each node, from the view of ``requester``.

        Pure SNP routes by the global partition regardless of the
        requester; the hybrid strategy (GDP across machines, SNP within)
        overrides this to stay inside the requester's machine.
        """
        return self._parts[nodes]

    # ------------------------------------------------------------------ #
    def plan_batch(
        self, ctx: ExecutionContext, batches, epoch: int = 0
    ) -> RoutePlan:
        C = ctx.num_devices
        layer = ctx.model.first_layer
        is_attention = layer.is_attention
        d_hidden = (
            layer.heads * layer.head_dim if is_attention else layer.out_dim
        )
        # GAT and GCN fold the destination's own input into the edge
        # aggregation (a self-edge routed to the owner); SAGE ships a
        # separate self term instead.
        self_as_edge = is_attention or layer.self_loop_in_aggregation
        plan = route_first_layer(ctx, batches, self._owners, self_as_edge)

        counts = plan.counts
        for r, p in counts.pairs():
            n_edges, n_vdst = int(counts.edges[r, p]), int(counts.vdst[r, p])
            n_self = 0 if self_as_edge else int(counts.owned[r, p])
            # Server-side partial work estimate (projection added below,
            # per load set).
            edge_flops = (
                n_edges * layer.heads * (layer.head_dim + 6.0)
                if is_attention
                else 2.0 * n_edges * d_hidden
            )
            ctx.recorder.record_layer1_flops(
                p, edge_flops + 2.0 * n_self * layer.in_dim * d_hidden
            )
            ctx.recorder.record_layer1_flops(r, 4.0 * n_vdst * d_hidden)
            # Hidden partial payload: GraphSAGE ships (psum, count, self);
            # GAT ships (numerator, denominator) and receives the
            # destination scores beforehand.
            payload = (
                n_vdst * (d_hidden + 2 * layer.heads) if is_attention
                else n_vdst * (d_hidden + 1) + n_self * d_hidden
            )
            ctx.recorder.record_hidden(p, r, payload * ELEMENT_BYTES)

        # Message patterns of the Reshuffle stage (latency estimation).
        pairs = counts.pattern()
        if is_attention:
            # one fused (numerator, denominator) exchange per task pair,
            # plus the owner -> server destination-score distribution
            # (the one term that reads the tasks' destination ids).
            ctx.recorder.record_message_pattern(pairs, calls=1)
            score_pattern = np.zeros((C, C))
            for task in plan.tasks:
                owners = self.server_of_nodes(task.vdst, task.requester)
                for o in sorted_unique(owners):
                    if o != task.server:
                        score_pattern[o, task.server] = 1.0
            ctx.recorder.record_message_pattern(score_pattern, calls=1)
        else:
            # fused (psum, self) exchange plus the counts exchange.
            ctx.recorder.record_message_pattern(pairs, calls=2)
        for p, nodes in enumerate(plan.load_nodes):
            if nodes is not None:
                ctx.recorder.record_layer1_flops(
                    p, 2.0 * nodes.size * layer.in_dim * d_hidden
                )
        return plan

    def _owners(self, requester: int, block, src_ids: np.ndarray):
        """SNP's key: an edge goes to its source's server."""
        return (
            self.server_of_nodes(src_ids, requester),
            self.server_of_nodes(block.dst_nodes, requester),
        )

    # load_requests intentionally stays at the base default (None): each
    # server reads its own partition slice, so per-device requests are
    # nearly disjoint and a staged union would just double-copy the rows.

    # ------------------------------------------------------------------ #
    def execute_batch(self, ctx, plan: RoutePlan, batches) -> List[Optional[Tensor]]:
        layer = ctx.model.first_layer
        if isinstance(layer, GATLayer):
            return self._execute_gat(ctx, plan, batches, layer)
        if isinstance(layer, PartialMeanLayer):
            # The partial-mean protocol (GraphSAGE, GCN, ...).
            return self._execute_sage(ctx, plan, batches, layer)
        raise TypeError(
            f"SNP does not know how to decompose layer type {type(layer).__name__}"
        )

    # ------------------------------------------------------------------ #
    def _execute_sage(self, ctx, plan, batches, layer: PartialMeanLayer):
        C = ctx.num_devices
        xs = read_load_sets(ctx, plan)
        d_hidden = layer.out_dim
        servers = [p for p in range(C) if plan.load_nodes[p] is not None]
        # Every compute charge in the per-pair loop's order, charged at once.
        devices, flops = [], []
        for p in servers:
            rows = plan.load_nodes[p].size
            devices.append(p)
            flops.append(2.0 * rows * layer.in_dim * d_hidden)
            ctx.recorder.record_intermediate(
                p, rows * (layer.in_dim + d_hidden) * ELEMENT_BYTES
            )
        # Partials and self terms ship as one message per pair, then counts.
        counts = plan.counts
        pairs = counts.pairs()
        ships_self = not layer.self_loop_in_aggregation
        n_self = [int(counts.owned[r, p]) if ships_self else 0 for r, p in pairs]
        counts_bytes = np.zeros((C, C))
        partial_bytes = np.zeros((C, C))
        for (r, p), ns in zip(pairs, n_self):
            n_vdst = int(counts.vdst[r, p])
            if p != r:
                partial_bytes[p, r] += (n_vdst + ns) * d_hidden * ELEMENT_BYTES
                counts_bytes[p, r] += n_vdst * ELEMENT_BYTES
            devices.append(p)
            flops.append(2.0 * int(counts.edges[r, p]) * d_hidden)
            if ns:
                devices.append(p)
                flops.append(2.0 * ns * layer.in_dim * d_hidden)
        ctx.comm.alltoall_bytes(partial_bytes, phase="shuffle", count_backward=True)
        ctx.comm.alltoall_bytes(counts_bytes, phase="shuffle")
        for r, mb in enumerate(batches):
            if mb is not None:
                devices.append(r)
                flops.append(4.0 * mb.blocks[0].num_dst * d_hidden)
        ctx.charger.dense(devices, flops)
        if not ctx.numerics:
            return [None] * C

        # Row-stacked: the servers' inputs and projections, every task's
        # partial rows and every shipped self row (DESIGN.md §5.18).
        tasks = plan.tasks
        n = np.int64(ctx.dataset.num_nodes)
        x = np.concatenate([xs[p].data for p in servers])
        keys = np.concatenate([p * n + plan.load_nodes[p] for p in servers])
        z_ptr = np.cumsum([0] + [plan.load_nodes[p].size for p in servers])
        server = np.array([t.server for t in tasks])
        requester = np.array([t.requester for t in tasks])
        v_ptr = np.cumsum([0] + [t.vdst.size for t in tasks])
        edge_task = np.repeat(np.arange(len(tasks)), [t.edge_src.size for t in tasks])
        cols = local_index_of(
            keys, server[edge_task] * n + np.concatenate([t.edge_src for t in tasks])
        )
        dst = SegmentIndex(
            v_ptr[edge_task] + np.concatenate([t.edge_dst for t in tasks]),
            v_ptr[-1],
        )
        z_order: List[int] = []
        z = fused.segment_linear(
            [(Tensor(x), layer.w_neigh if ships_self else layer.weight)], z_ptr,
            order=lambda: z_order,
        )
        out = Rows.first_layer(batches)
        reached = out.reached

        def task_rank() -> np.ndarray:
            # The tape reaches each requester's tasks in its arrival, and a
            # server's projection in the arrival of its last requester
            # (servers ascending among equals).
            rank = reached.ranks(C)
            last = np.full(len(servers), -1)
            np.maximum.at(last, np.searchsorted(servers, server), rank[requester])
            z_order[:] = [s for s in np.argsort(last, kind="stable") if last[s] >= 0]
            return rank[requester]

        req_idx = [t.vdst_req_idx for t in tasks]
        psums = split_rows(_ordered_aggregate(z, cols, dst, edge_task, task_rank),
                           out, requester, req_idx)
        counts = np.bincount(dst.ids, minlength=dst.num_segments).astype(np.float64)
        totals = split_rows(Tensor(counts), out, requester, req_idx).data
        shipping = np.flatnonzero(n_self)
        selfs = None
        if shipping.size:
            s_ptr = np.cumsum([0] + [n_self[t] for t in shipping])
            masks = [tasks[t].self_mask for t in shipping]
            x_self = x[local_index_of(keys, np.concatenate([
                server[t] * n + tasks[t].vdst[m] for t, m in zip(shipping, masks)
            ]))]
            selfs = split_rows(
                fused.segment_linear(
                    [(Tensor(x_self), layer.w_self)], s_ptr,
                    order=lambda: [
                        k for r in reached()
                        for k in np.flatnonzero(requester[shipping] == r)
                    ],
                ),
                out, requester[shipping],
                [req_idx[t][m] for t, m in zip(shipping, masks)],
            )
        # GroupReduce at every requester at once; the bias adjoint sums
        # each requester's rows on its own, in reach order.
        out.tensor = layer.combine_partials(
            psums, totals, selfs, spans=out.ptr, order=reached
        )
        return out

    # ------------------------------------------------------------------ #
    def _execute_gat(self, ctx, plan, batches, layer: GATLayer):
        C = ctx.num_devices
        xs = read_load_sets(ctx, plan)
        heads, d_proj = layer.heads, layer.heads * layer.head_dim

        z_servers: List[Optional[Tensor]] = []
        sl_servers: List[Optional[Tensor]] = []
        for p in range(C):
            if plan.load_nodes[p] is None:
                z_servers.append(None)
                sl_servers.append(None)
                continue
            if ctx.numerics:
                z = layer.project(xs[p])
                z_servers.append(z)
                sl_servers.append(layer.src_scores(z))
            else:
                z_servers.append(None)
                sl_servers.append(None)
            ctx.charger.dense(
                p,
                2.0 * plan.load_nodes[p].size * layer.in_dim * d_proj
                + 4.0 * plan.load_nodes[p].size * d_proj,
            )
            ctx.recorder.record_intermediate(
                p, plan.load_nodes[p].size * (layer.in_dim + d_proj) * ELEMENT_BYTES
            )

        # --- destination-score distribution (the attention extra comm) --- #
        # For each requester, owners compute a_r . z_v for the destinations
        # they own; assembled per requester, then used by every server.
        s_r_full: List[Optional[Tensor]] = [None] * C
        shift_full: List[Optional[np.ndarray]] = [None] * C
        score_bytes = np.zeros((C, C))
        if ctx.numerics:
            for r, mb in enumerate(batches):
                if mb is None:
                    continue
                block = mb.blocks[0]
                dst_owner = self.server_of_nodes(block.dst_nodes, r)
                pieces, idx_pieces = [], []
                for o in range(C):
                    owned_idx = np.nonzero(dst_owner == o)[0]
                    if owned_idx.size == 0:
                        continue
                    owned_nodes = block.dst_nodes[owned_idx]
                    rows = local_index_of(plan.load_nodes[o], owned_nodes)
                    pieces.append(
                        layer.dst_scores(z_servers[o].index_rows(rows))
                    )
                    idx_pieces.append(owned_idx)
                s_r = segment_sum(
                    tensor_concat(pieces, axis=0),
                    np.concatenate(idx_pieces),
                    block.num_dst,
                )
                s_r_full[r] = s_r
                shift_full[r] = s_r.data.copy()  # detached (softmax-invariant)
        # Charge the owner -> server score traffic (forward + gradient).
        for task in plan.tasks:
            owned = np.bincount(
                self.server_of_nodes(task.vdst, task.requester), minlength=C
            )
            for o in range(C):
                n = int(owned[o])
                if n and o != task.server:
                    score_bytes[o, task.server] += n * heads * ELEMENT_BYTES
        ctx.comm.alltoall_bytes(score_bytes, phase="shuffle", count_backward=True)

        # --- partial attention at each server ---------------------------- #
        num_grid = [[None] * C for _ in range(C)]
        den_grid = [[None] * C for _ in range(C)]
        task_info: Dict[Tuple[int, int], RouteTask] = {}
        partial_bytes = np.zeros((C, C))
        for task in plan.tasks:
            p, r = task.server, task.requester
            if ctx.numerics:
                src_idx = local_index_of(plan.load_nodes[p], task.edge_src)
                s_r_task = s_r_full[r].index_rows(task.vdst_req_idx)
                shift_task = shift_full[r][task.vdst_req_idx]
                num, den = layer.partial_attention(
                    z_servers[p],
                    sl_servers[p],
                    s_r_task,
                    shift_task,
                    src_idx,
                    task.edge_dst,
                    task.vdst.size,
                )
                num_grid[p][r] = num
                den_grid[p][r] = den
            if p != r:
                partial_bytes[p, r] += task.vdst.size * (d_proj + heads) * ELEMENT_BYTES
            ctx.charger.dense(
                p, task.edge_src.size * heads * (layer.head_dim + 6.0)
            )
            task_info[(p, r)] = task

        if ctx.numerics:
            recv_num, recv_den = ctx.comm.alltoall_many(
                [num_grid, den_grid], phase="shuffle"
            )
        else:
            ctx.comm.alltoall_bytes(
                partial_bytes, phase="shuffle", count_backward=True
            )

        # GroupReduce + exact softmax reconstruction at each requester.
        h1: List[Optional[Tensor]] = [None] * C
        for r, mb in enumerate(batches):
            if mb is None:
                continue
            block = mb.blocks[0]
            ctx.charger.dense(r, 4.0 * block.num_dst * d_proj)
            if not ctx.numerics:
                continue
            nums, dens, idx = [], [], []
            for p in range(C):
                task = task_info.get((p, r))
                if task is None:
                    continue
                nums.append(recv_num[r][p])
                dens.append(recv_den[r][p])
                idx.append(task.vdst_req_idx)
            idx_cat = SegmentIndex(np.concatenate(idx), block.num_dst)
            num_tot = segment_sum(tensor_concat(nums, axis=0), idx_cat)
            den_tot = segment_sum(tensor_concat(dens, axis=0), idx_cat)
            h1[r] = layer.combine_attention_partials(num_tot, den_tot)
        return Rows.from_parts(h1)


def _ordered_aggregate(z, cols, dst: SegmentIndex, edge_task, task_rank):
    """``gather_segment_sum(z, cols, dst)`` over every task's edges, one
    node whose adjoint adds each task's source sums per row in
    ``task_rank()`` order (-1: never reached), as the per-task nodes'
    adjoints accumulated (:func:`~repro.engine.base.ordered_adjoint`)."""
    out = sparse.gather_segment_sum(Tensor(z.data), cols, dst).data

    def backward_fn(g: np.ndarray) -> None:
        z._accumulate_owned(ordered_adjoint(
            g, cols, dst.ids, task_rank()[edge_task], z.data.shape[0]
        ))

    return Tensor._make(out, (z,), backward_fn, "ordered_aggregate")
