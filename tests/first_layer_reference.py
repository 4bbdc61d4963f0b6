"""The per-pair first layer and the per-device model, frozen: what the
engine ran before its layers were stacked (DESIGN.md §5.18).

NFP built one set of tape nodes per (shard, owner) pair, SNP one per
(server, requester) task and DNP one sub-block and one layer forward per
(owner, requester) task.  Above the first layer — and for GDP's whole
model — every device ran its own layer forwards and its own loss node, the
trainer summed the device losses with ``add_n``, and every sampling and
layer charge was one scalar Timeline call per device.  The production
engine runs a few stacked ops per batch instead;
``tests/engine/test_first_layer_pin.py`` requires it to match these forms
exactly: losses, final parameters, Timeline state and every
``VolumeRecorder`` field.

:func:`install_per_pair` swaps the frozen first layers in through a
``pytest.MonkeyPatch`` (GAT's first layer is not stacked, so only the
mean-aggregation paths and DNP's whole execute step are replaced);
:func:`install_per_device` swaps in the per-device upper layers, GDP's
execute step, the per-device loss and the scalar sampling charges.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine import base
from repro.engine.base import (
    LAYOUT_NODE,
    LAYOUT_REPLICATED,
    Rows,
    Strategy,
    local_index_of,
    read_load_sets,
    sample_batches,
)
from repro.engine.dnp import DNPStrategy
from repro.engine.gdp import GDPStrategy
from repro.engine.layerwise import LayerwiseStrategy
from repro.engine.nfp import NFPStrategy, union_columns
from repro.engine.snp import SNPStrategy
from repro.engine.trainer import ParallelTrainer
from repro.models.base import extend_with_self_edges
from repro.sampling.block import Block
from repro.serve import engine as serve_engine
from repro.tensor import concat as tensor_concat
from repro.tensor import functional as F
from repro.tensor import sparse
from repro.tensor.sparse import segment_sum
from repro.tensor.tensor import Tensor, add_n


def nfp_execute_sage(self, ctx, plan, batches, layer):
    """``NFPStrategy._execute_sage``: every shard holder aggregates every
    owner's block on its own, and a SparseAllreduce adds the C partials."""
    C = ctx.num_devices
    union = plan.union_nodes
    d_hidden = layer.out_dim
    # contributions[c][o]: device c's shard contribution for owner o.
    contributions: List[List[Optional[Tensor]]] = [
        [None] * C for _ in range(C)
    ]
    shuffle_bytes = np.zeros((C, C))
    self_in_agg = layer.self_loop_in_aggregation
    # Every shard holder aggregates every owner's block straight from
    # its union projection: one pair of segment indices per owner
    # (union columns of the edges' sources, edge destinations), built
    # here (or cached on the block) and shared by all C holders,
    # forward and backward.
    routes: List[Optional[tuple]] = [None] * C
    if ctx.numerics:
        for o, mb in enumerate(batches):
            if mb is None:
                continue
            block = mb.blocks[0]
            idx = plan.src_idx_in_union[o]
            if self_in_agg:
                # GCN: the self loop is one more aggregation edge.
                es, ed = extend_with_self_edges(block)
                dst = sparse.SegmentIndex(ed, block.num_dst)
            else:
                es, dst = block.edge_src, block.dst_index()
            dst_rows = None if self_in_agg else idx[block.dst_in_src]
            routes[o] = (union_columns(idx, es, union.size), dst, dst_rows)
    x_union: Optional[np.ndarray] = None
    for c in range(C):
        lo, hi = self.shard(c)
        ctx.store.charge_load(c, plan.splits[c], ctx.timeline)
        if ctx.numerics:
            # Every shard holder reads the same union rows: gather the
            # dense block once, charge each device's (cache-dependent)
            # simulated load as before — host wall-clock only.
            if x_union is None:
                x_union = ctx.store.read(union)
            x_shard = Tensor(x_union[:, lo:hi])
            w_param = layer.weight if self_in_agg else layer.w_neigh
            wn = w_param.index_rows(np.arange(lo, hi))
            ws = (
                None
                if self_in_agg
                else layer.w_self.index_rows(np.arange(lo, hi))
            )
            z_union = x_shard @ wn
        ctx.charger.dense(c, 2.0 * union.size * (hi - lo) * d_hidden)
        inter = 0.0
        for o, mb in enumerate(batches):
            if mb is None:
                continue
            block = mb.blocks[0]
            if ctx.numerics:
                cols, dst, dst_rows = routes[o]
                neigh = sparse.gather_segment_mean(z_union, cols, dst)
                if not self_in_agg:
                    neigh = neigh + (x_shard.index_rows(dst_rows) @ ws)
                contributions[c][o] = neigh
            if c != o:
                shuffle_bytes[c, o] += block.num_dst * d_hidden * 8.0
            ctx.charger.dense(
                c,
                2.0 * block.num_edges * d_hidden
                + 2.0 * block.num_dst * (hi - lo) * d_hidden,
            )
            inter += block.num_dst * d_hidden * 8.0
        ctx.recorder.record_intermediate(
            c, inter + union.size * (hi - lo) * 8.0
        )
    if ctx.numerics:
        totals = ctx.comm.scatter_reduce(contributions, phase="shuffle")
        return [
            layer.finalize_sum(t) if t is not None else None for t in totals
        ]
    ctx.comm.alltoall_bytes(shuffle_bytes, phase="shuffle", count_backward=True)
    return [None] * C


def snp_execute_sage(self, ctx, plan, batches, layer):
    """``SNPStrategy._execute_sage``: one projection per server, one partial
    aggregation (and self projection) per task, one GroupReduce per
    requester."""
    C = ctx.num_devices
    xs = read_load_sets(ctx, plan)
    d_hidden = layer.out_dim
    w_neigh = layer.weight if layer.self_loop_in_aggregation else layer.w_neigh
    # Projected neighbors once per server.
    z_servers: List[Optional[Tensor]] = []
    for p in range(C):
        if plan.load_nodes[p] is None:
            z_servers.append(None)
            continue
        z_servers.append(xs[p] @ w_neigh if ctx.numerics else None)
        ctx.charger.dense(
            p, 2.0 * plan.load_nodes[p].size * layer.in_dim * d_hidden
        )
        ctx.recorder.record_intermediate(
            p,
            plan.load_nodes[p].size * (layer.in_dim + d_hidden) * 8.0,
        )

    # Partials per task, shipped through an alltoall grid.
    psum_grid = [[None] * C for _ in range(C)]
    self_grid = [[None] * C for _ in range(C)]
    task_info: Dict[Tuple[int, int], object] = {}
    counts_grid: Dict[Tuple[int, int], np.ndarray] = {}
    counts_bytes = np.zeros((C, C))
    partial_bytes = np.zeros((C, C))
    ships_self = not layer.self_loop_in_aggregation
    for task in plan.tasks:
        p, r = task.server, task.requester
        self_nodes = (
            task.vdst[task.self_mask] if ships_self else np.empty(0, np.int64)
        )
        if ctx.numerics:
            src_idx = local_index_of(plan.load_nodes[p], task.edge_src)
            dst = sparse.SegmentIndex(task.edge_dst, task.vdst.size)
            psum = sparse.gather_segment_sum(z_servers[p], src_idx, dst)
            counts = sparse.segment_count(dst)
            psum_grid[p][r] = psum
            counts_grid[(p, r)] = counts
            if self_nodes.size:
                x_self = xs[p].index_rows(
                    local_index_of(plan.load_nodes[p], self_nodes)
                )
                self_grid[p][r] = x_self @ layer.w_self
        if p != r:
            partial_bytes[p, r] += (
                task.vdst.size + self_nodes.size
            ) * d_hidden * 8.0
            counts_bytes[p, r] += task.vdst.size * 8.0
        ctx.charger.dense(p, 2.0 * task.edge_src.size * d_hidden)
        if self_nodes.size:
            ctx.charger.dense(
                p, 2.0 * self_nodes.size * layer.in_dim * d_hidden
            )
        task_info[(p, r)] = task

    if ctx.numerics:
        recv_psum, recv_self = ctx.comm.alltoall_many(
            [psum_grid, self_grid], phase="shuffle"
        )
    else:
        ctx.comm.alltoall_bytes(
            partial_bytes, phase="shuffle", count_backward=True
        )
    ctx.comm.alltoall_bytes(counts_bytes, phase="shuffle")

    # GroupReduce at each requester.
    h1: List[Optional[Tensor]] = [None] * C
    for r, mb in enumerate(batches):
        if mb is None:
            continue
        block = mb.blocks[0]
        ctx.charger.dense(r, 4.0 * block.num_dst * d_hidden)
        if not ctx.numerics:
            continue
        psums, pidx = [], []
        selfs, sidx = [], []
        counts_tot = np.zeros(block.num_dst)
        for p in range(C):
            task = task_info.get((p, r))
            if task is None:
                continue
            psums.append(recv_psum[r][p])
            pidx.append(task.vdst_req_idx)
            np.add.at(counts_tot, task.vdst_req_idx, counts_grid[(p, r)])
            if recv_self[r][p] is not None:
                selfs.append(recv_self[r][p])
                sidx.append(task.vdst_req_idx[task.self_mask])
        psum_tot = segment_sum(
            tensor_concat(psums, axis=0),
            np.concatenate(pidx),
            block.num_dst,
        )
        self_tot = (
            segment_sum(
                tensor_concat(selfs, axis=0),
                np.concatenate(sidx),
                block.num_dst,
            )
            if selfs
            else None
        )
        h1[r] = layer.combine_partials(psum_tot, counts_tot, self_tot)
    return h1


def dnp_execute_batch(self, ctx, plan, batches):
    """``DNPStrategy.execute_batch``: one sub-block and one full layer
    forward per task, one alltoall of the finished rows."""
    C = ctx.num_devices
    layer = ctx.model.first_layer

    xs: List[Optional[Tensor]] = []
    for o, nodes in enumerate(plan.load_nodes):
        if nodes is None:
            xs.append(None)
            continue
        ctx.store.charge_load(o, plan.splits[o], ctx.timeline)
        x_rows = ctx.store.read(nodes) if ctx.numerics else None
        xs.append(Tensor(x_rows) if ctx.numerics else None)

    # Owners compute complete layer-1 embeddings per task.
    h_grid = [[None] * C for _ in range(C)]
    task_info: Dict[Tuple[int, int], object] = {}
    hidden_bytes = np.zeros((C, C))
    for task in plan.tasks:
        o, r = task.server, task.requester
        sub = Block.from_global_edges(task.edge_src, task.vdst[task.edge_dst])
        if not np.array_equal(sub.dst_nodes, task.vdst):
            raise AssertionError(
                "DNP sub-block destinations diverged from the routed set"
            )
        ctx.charger.dense(o, layer.forward_flops(sub))
        ctx.recorder.record_intermediate(
            o,
            8.0 * (sub.num_src * layer.in_dim + sub.num_dst * layer.out_dim),
        )
        if ctx.numerics:
            rows = local_index_of(plan.load_nodes[o], sub.src_nodes)
            h_grid[o][r] = layer.full_forward(sub, xs[o].index_rows(rows))
        if o != r:
            hidden_bytes[o, r] += task.vdst.size * layer.out_dim * 8.0
        task_info[(o, r)] = task

    if ctx.numerics:
        recv = ctx.comm.alltoall_tensors(h_grid, phase="shuffle")
    else:
        ctx.comm.alltoall_bytes(
            hidden_bytes, phase="shuffle", count_backward=True
        )

    # Assemble each requester's layer-1 output (each row arrives once).
    h1: List[Optional[Tensor]] = [None] * C
    for r, mb in enumerate(batches):
        if mb is None or not ctx.numerics:
            continue
        block = mb.blocks[0]
        pieces, idx = [], []
        for o in range(C):
            task = task_info.get((o, r))
            if task is None:
                continue
            pieces.append(recv[r][o])
            idx.append(task.vdst_req_idx)
        h1[r] = segment_sum(
            tensor_concat(pieces, axis=0),
            np.concatenate(idx),
            block.num_dst,
        )
    return h1


def _as_rows(execute):
    """A frozen first layer's per-device list, as the stacked layers read
    it (one node stacking the devices' rows)."""
    def wrapped(self, ctx, *args):
        h1 = execute(self, ctx, *args)
        return Rows.from_parts(h1) if ctx.numerics else h1
    return wrapped


def install_per_pair(mp) -> None:
    """Route NFP's and SNP's mean-aggregation first layer and DNP's execute
    step to the frozen per-pair forms."""
    mp.setattr(NFPStrategy, "_execute_sage", _as_rows(nfp_execute_sage))
    mp.setattr(SNPStrategy, "_execute_sage", _as_rows(snp_execute_sage))
    mp.setattr(DNPStrategy, "execute_batch", _as_rows(dnp_execute_batch))


# ---------------------------------------------------------------------- #
# the per-device model
# ---------------------------------------------------------------------- #
def charge_sampling(ctx, batches) -> None:
    """``engine.base.charge_sampling``: one scalar charge per device."""
    for d, mb in enumerate(batches):
        if mb is None:
            continue
        if ctx.cpu_sampling:
            ctx.charger.cpu_sampling(d, mb.total_edges())
        else:
            ctx.charger.gpu_sampling(d, mb.total_edges())
        ctx.count("sampled_edges", mb.total_edges(), device=d, phase="sample")


def upper_forward(self, ctx, plan, batches, h1):
    """``Strategy.upper_forward``: every upper layer per device, per-device
    logits (a stacked first layer's rows split per device first)."""
    h1 = h1.parts if isinstance(h1, Rows) else h1
    logits: List[Optional[Tensor]] = []
    for d, mb in enumerate(batches):
        if mb is None:
            logits.append(None)
            continue
        h = h1[d]
        for layer, block in zip(list(ctx.model.layers)[1:], mb.blocks[1:]):
            ctx.charger.dense(d, layer.forward_flops(block))
            h = layer.full_forward(block, h) if ctx.numerics else None
        logits.append(h)
    return logits


def gdp_execute_batch(self, ctx, plan, batches):
    """``GDPStrategy.execute_batch``: one first-layer forward per device."""
    layer = ctx.model.first_layer
    h1: List[Optional[Tensor]] = []
    for d, mb in enumerate(batches):
        if mb is None:
            h1.append(None)
            continue
        block = mb.blocks[0]
        ctx.charger.dense(d, layer.forward_flops(block))
        ctx.recorder.record_intermediate(
            d, 8.0 * (block.num_src * layer.in_dim + block.num_dst * layer.out_dim)
        )
        pos = (
            ctx.store.shared_positions(plan.load_nodes[d])
            if ctx.numerics
            else None
        )
        if pos is not None:
            ctx.store.charge_load(d, plan.splits[d], ctx.timeline)
            h1.append(
                layer.full_forward(
                    block, Tensor(ctx.store.shared_rows()), src_index=pos
                )
            )
            continue
        ctx.store.charge_load(d, plan.splits[d], ctx.timeline)
        x_rows = ctx.store.read(plan.load_nodes[d]) if ctx.numerics else None
        h1.append(
            layer.full_forward(block, Tensor(x_rows)) if ctx.numerics else None
        )
    return h1


def layerwise_upper_forward(self, ctx, plan, batches, h1):
    """``LayerwiseStrategy.upper_forward``: every stage per device."""
    if self.homogeneous:
        return upper_forward(self, ctx, plan, batches, h1)
    state: List[Optional[Tensor]] = list(h1.parts if isinstance(h1, Rows) else h1)
    for stage in plan.stages:
        layer = ctx.model.layers[stage.layer]
        if stage.layout == LAYOUT_REPLICATED:
            inputs = (
                apply_gathers(ctx, stage.gathers, stage.move_bytes, state)
                if any(g is not None for g in stage.gathers)
                else state
            )
            new_state: List[Optional[Tensor]] = []
            for d, mb in enumerate(batches):
                if mb is None:
                    new_state.append(None)
                    continue
                block = mb.blocks[stage.layer]
                ctx.charger.dense(d, layer.forward_flops(block))
                new_state.append(
                    layer.full_forward(block, inputs[d]) if ctx.numerics else None
                )
        else:
            assert stage.layout == LAYOUT_NODE
            inputs = apply_gathers(ctx, stage.gathers, stage.move_bytes, state)
            new_state = []
            for p, blk in enumerate(stage.blocks):
                if blk is None:
                    new_state.append(None)
                    continue
                ctx.charger.dense(p, layer.forward_flops(blk))
                ctx.recorder.record_intermediate(
                    p,
                    8.0 * (blk.num_src * layer.in_dim + blk.num_dst * layer.out_dim),
                )
                new_state.append(
                    layer.full_forward(blk, inputs[p]) if ctx.numerics else None
                )
        state = new_state
    if plan.final_gathers is not None:
        state = apply_gathers(
            ctx, plan.final_gathers, plan.final_move_bytes, state
        )
    return state


def apply_gathers(ctx, gathers, move_bytes, state):
    """``LayerwiseStrategy._apply_gathers`` on per-device tensors."""
    C = len(gathers)
    if not ctx.numerics:
        if move_bytes is not None and move_bytes.any():
            ctx.comm.alltoall_bytes(move_bytes, phase="shuffle", count_backward=True)
        return [None] * C
    grid: List[List[Optional[Tensor]]] = [[None] * C for _ in range(C)]
    for t, spec in enumerate(gathers):
        if spec is None:
            continue
        for h, idx in spec.pieces:
            grid[h][t] = state[h].index_rows(idx)
    received = ctx.comm.alltoall_tensors(grid, phase="shuffle")
    out: List[Optional[Tensor]] = []
    for t, spec in enumerate(gathers):
        if spec is None:
            out.append(None)
            continue
        rows = [received[t][h] for h, _ in spec.pieces]
        stacked = rows[0] if len(rows) == 1 else tensor_concat(rows, axis=0)
        out.append(stacked.index_rows(spec.perm))
    return out


def run_global_batch(self, global_batch, epoch):
    """``ParallelTrainer.run_global_batch``: one loss node per device,
    summed with ``add_n`` in device order."""
    ctx = self.ctx
    seeds = self.strategy.assign_seeds(ctx, global_batch)
    batches = sample_batches(ctx, seeds, epoch)
    plan = self.strategy.plan_batch(ctx, batches, epoch)
    shared = None
    if ctx.numerics:
        requests = self.strategy.load_requests(ctx, plan, batches)
        if requests is not None:
            shared = ctx.store.begin_shared_gather(requests)
    try:
        h1 = self.strategy.execute_batch(ctx, plan, batches)
        logits = self.strategy.upper_forward(ctx, plan, batches, h1)
        losses: List[Tensor] = []
        weight_total = float(len(global_batch))
        for d, mb in enumerate(batches):
            if mb is None or logits[d] is None:
                continue
            labels = ctx.dataset.labels[mb.blocks[-1].dst_nodes]
            losses.append(
                F.cross_entropy(logits[d], labels, weight_total=weight_total)
            )
        loss_value = float("nan")
        if ctx.numerics:
            total_loss = add_n(losses)
            total_loss.backward()
            loss_value = total_loss.item()
        ctx.comm.allreduce_gradient_sync(
            self.strategy.grad_sync_bytes(ctx.model), phase="train"
        )
        if ctx.numerics and self.optimizer is not None:
            self.optimizer.step()
        ctx.model.zero_grad()
    finally:
        if shared is not None:
            ctx.store.end_shared_gather()
    if shared is not None:
        ctx.count("gather.requested_rows", shared[0], phase="load")
        ctx.count("gather.unique_rows", shared[1], phase="load")
    ctx.timeline.end_batch()
    return loss_value


def install_per_device(mp) -> None:
    """Route the upper layers, GDP's execute step, the trainer's loss and
    the sampling charges to their frozen per-device forms."""
    mp.setattr(Strategy, "upper_forward", upper_forward)
    mp.setattr(LayerwiseStrategy, "upper_forward", layerwise_upper_forward)
    mp.setattr(GDPStrategy, "execute_batch", gdp_execute_batch)
    mp.setattr(ParallelTrainer, "run_global_batch", run_global_batch)
    mp.setattr(base, "charge_sampling", charge_sampling)
    mp.setattr(serve_engine, "charge_sampling", charge_sampling)
