"""SNP's and DNP's first-layer routing, frozen: each strategy's own
``plan_batch`` before both became keys of one router
(``repro.engine.base.route_first_layer``, DESIGN.md §5.19).

SNP walked every (requester, server) pair with a per-task presence mask;
DNP walked every (requester, owner) pair and counted each owner's distinct
sources for every model.  Both recorded their volumes and load sets
inline.  The only edits are the unified names — a task's device is
``server`` (DNP's owner), a DNP task's ``self_mask`` is all true, the
load sets are ``RoutePlan.load_nodes`` and their tier split
``RoutePlan.splits`` — and one to the load-set stage: each form's inline
per-device classify / record / count of its load sets became a call to
the shared ``repro.engine.base.record_loads`` once they are built, when
the load-set stage became one classification per batch.  The routing is
frozen.
``tests/engine/test_routing_pin.py`` requires the router to match these
forms exactly: tasks, load sets, every ``VolumeRecorder`` field, Timeline
phases and telemetry counters.

:func:`install_reference_routing` swaps them in through a
``pytest.MonkeyPatch``; hyb and layerwise specs over SNP/DNP follow.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.engine.base import RoutePlan, RouteTask, record_loads
from repro.engine.dnp import DNPStrategy
from repro.engine.snp import SNPStrategy
from repro.utils.ids import sorted_unique


def snp_plan_batch(self, ctx, batches, epoch: int = 0) -> RoutePlan:
    C = ctx.num_devices
    layer = ctx.model.first_layer
    is_attention = layer.is_attention
    plan = RoutePlan(load_nodes=[None] * C, splits=[None] * C)
    need: List[List[np.ndarray]] = [[] for _ in range(C)]
    struct_bytes = np.zeros((C, C))
    d_hidden = (
        layer.heads * layer.head_dim if is_attention else layer.out_dim
    )
    # GAT and GCN fold the destination's own input into the edge
    # aggregation (a self-edge routed to the owner); SAGE ships a
    # separate self term instead.
    self_as_edge = is_attention or layer.self_loop_in_aggregation

    for r, mb in enumerate(batches):
        if mb is None:
            continue
        block = mb.blocks[0]
        ctx.recorder.n_dst += block.num_dst
        src_g = block.src_nodes[block.edge_src]
        edge_owner = self.server_of_nodes(src_g, r)
        dst_owner = self.server_of_nodes(block.dst_nodes, r)
        # Scratch arrays reused across servers: virtual destinations are
        # tracked as *block-local* dst indices, so the per-server unique
        # and id lookups collapse to boolean-mask bookkeeping.
        present = np.empty(block.num_dst, dtype=bool)
        inv = np.empty(block.num_dst, dtype=np.int64)
        for p in range(C):
            e_mask = edge_owner == p
            owned_l = np.flatnonzero(dst_owner == p)
            owned = block.dst_nodes[owned_l]
            e_src = src_g[e_mask]
            ldst = block.edge_dst[e_mask]
            if self_as_edge and owned_l.size:
                # Owners also hold the self edges (v, v) of their nodes.
                e_src = np.concatenate([e_src, owned])
                ldst = np.concatenate([ldst, owned_l])
            if e_src.size == 0 and owned_l.size == 0:
                continue
            present[:] = False
            present[ldst] = True
            present[owned_l] = True
            vdst_l = np.flatnonzero(present)
            inv[vdst_l] = np.arange(vdst_l.size, dtype=np.int64)
            vdst = block.dst_nodes[vdst_l]
            task = RouteTask(
                requester=r,
                server=p,
                vdst=vdst,
                vdst_req_idx=vdst_l,
                edge_src=e_src,
                edge_dst=inv[ldst],
                self_mask=dst_owner[vdst_l] == p,
            )
            plan.tasks.append(task)
            need[p].append(e_src)
            need[p].append(vdst[task.self_mask])
            # Server-side partial work estimate (projection handled
            # below once the server load sets are known).
            edge_flops = (
                e_src.size * layer.heads * (layer.head_dim + 6.0)
                if is_attention
                else 2.0 * e_src.size * d_hidden
            )
            self_flops = (
                0.0
                if self_as_edge
                else 2.0 * int(task.self_mask.sum()) * layer.in_dim * d_hidden
            )
            ctx.recorder.record_layer1_flops(p, edge_flops + self_flops)
            ctx.recorder.record_layer1_flops(r, 4.0 * vdst.size * d_hidden)
            if p != r:
                ctx.recorder.n_virtual += vdst.size
                struct_bytes[r, p] += 8.0 * (2 * e_src.size + vdst.size)
                # Hidden partial payload: GraphSAGE ships (psum, count,
                # self); GAT ships (numerator, denominator) and receives
                # the destination scores beforehand.
                if is_attention:
                    payload = vdst.size * (
                        d_hidden + 2 * layer.heads
                    ) * 8.0
                else:
                    self_rows = (
                        0 if self_as_edge else int(task.self_mask.sum())
                    )
                    payload = (
                        vdst.size * (d_hidden + 1) + self_rows * d_hidden
                    ) * 8.0
                ctx.recorder.record_hidden(p, r, payload)

    ctx.comm.alltoall_bytes(struct_bytes, phase="sample")
    for dev in range(C):
        ctx.recorder.record_structure(dev, float(struct_bytes[dev].sum()))

    # Message patterns of the Reshuffle stage (latency estimation).
    if is_attention:
        # one fused (numerator, denominator) exchange per task pair,
        # plus the owner -> server destination-score distribution.
        ctx.recorder.record_message_pattern(struct_bytes, calls=1)
        score_pattern = np.zeros((C, C))
        for task in plan.tasks:
            owners = self.server_of_nodes(task.vdst, task.requester)
            for o in sorted_unique(owners):
                if o != task.server:
                    score_pattern[o, task.server] = 1.0
        ctx.recorder.record_message_pattern(score_pattern, calls=1)
    else:
        # fused (psum, self) exchange plus the counts exchange.
        ctx.recorder.record_message_pattern(struct_bytes, calls=2)

    # Per-server union of feature reads: a presence mask over the node
    # space replaces unique(concatenate(...)) — same sorted-unique ids.
    node_mask = np.empty(ctx.dataset.num_nodes, dtype=bool)
    for p in range(C):
        if need[p]:
            node_mask[:] = False
            for ids in need[p]:
                node_mask[ids] = True
            nodes = np.flatnonzero(node_mask)
            plan.load_nodes[p] = nodes
            ctx.recorder.record_layer1_flops(
                p, 2.0 * nodes.size * layer.in_dim * d_hidden
            )
    plan.splits = record_loads(ctx, plan.load_nodes)
    return plan


def dnp_plan_batch(self, ctx, batches, epoch: int = 0) -> RoutePlan:
    C = ctx.num_devices
    parts = self._parts
    layer = ctx.model.first_layer
    d_hidden = layer.out_dim
    plan = RoutePlan(load_nodes=[None] * C, splits=[None] * C)
    need: List[List[np.ndarray]] = [[] for _ in range(C)]
    struct_bytes = np.zeros((C, C))

    for r, mb in enumerate(batches):
        if mb is None:
            continue
        block = mb.blocks[0]
        ctx.recorder.n_dst += block.num_dst
        src_g = block.src_nodes[block.edge_src]
        dst_owner = parts[block.dst_nodes]
        dst_owner_per_edge = dst_owner[block.edge_dst]
        # Block-local dst index -> position within its owner's vdst
        # list; valid wherever the owner matches, which is the only
        # place it is read.  Replaces a per-owner sorted-id lookup.
        inv = np.empty(block.num_dst, dtype=np.int64)
        # Distinct sources per owner in one pass over (owner, src)
        # keys — same counts as a per-owner unique ``e_src`` size.
        n_nodes = np.int64(ctx.dataset.num_nodes)
        uniq_keys = sorted_unique(dst_owner_per_edge * n_nodes + src_g)
        src_uniq = np.bincount(uniq_keys // n_nodes, minlength=C)
        for o in range(C):
            sel_idx = np.flatnonzero(dst_owner == o)
            if sel_idx.size == 0:
                continue
            vdst = block.dst_nodes[sel_idx]
            inv[sel_idx] = np.arange(sel_idx.size, dtype=np.int64)
            e_mask = dst_owner_per_edge == o
            e_src = src_g[e_mask]
            task = RouteTask(
                requester=r,
                server=o,
                vdst=vdst,
                vdst_req_idx=sel_idx,
                edge_src=e_src,
                edge_dst=inv[block.edge_dst[e_mask]],
                self_mask=np.ones(vdst.size, dtype=bool),
            )
            plan.tasks.append(task)
            need[o].append(e_src)
            need[o].append(vdst)
            # Owner-side full layer-1 work estimate.
            n_src = int(src_uniq[o]) + vdst.size
            if layer.is_attention:
                flops = (
                    2.0 * n_src * layer.in_dim * layer.heads * layer.head_dim
                    + (e_src.size + vdst.size)
                    * layer.heads
                    * (layer.head_dim + 6.0)
                )
            else:
                flops = (
                    2.0 * e_src.size * layer.in_dim
                    + 4.0 * vdst.size * layer.in_dim * d_hidden
                )
            ctx.recorder.record_layer1_flops(o, flops)
            if o != r:
                ctx.recorder.n_virtual += vdst.size
                struct_bytes[r, o] += 8.0 * (2 * e_src.size + vdst.size)
                ctx.recorder.record_hidden(o, r, vdst.size * d_hidden * 8.0)

    ctx.comm.alltoall_bytes(struct_bytes, phase="sample")
    for dev in range(C):
        ctx.recorder.record_structure(dev, float(struct_bytes[dev].sum()))
    # One hidden-embedding alltoall per batch along the task pattern.
    ctx.recorder.record_message_pattern(struct_bytes, calls=1)

    # Per-owner union of feature reads via a presence mask — same
    # sorted-unique ids as unique(concatenate(...)), fewer sorts.
    node_mask = np.empty(ctx.dataset.num_nodes, dtype=bool)
    for o in range(C):
        if need[o]:
            node_mask[:] = False
            for ids in need[o]:
                node_mask[ids] = True
            nodes = np.flatnonzero(node_mask)
            plan.load_nodes[o] = nodes
    plan.splits = record_loads(ctx, plan.load_nodes)
    return plan


def install_reference_routing(mp) -> None:
    """Route SNP's (hence hyb's) and DNP's ``plan_batch`` to the frozen
    per-strategy forms."""
    mp.setattr(SNPStrategy, "plan_batch", snp_plan_batch)
    mp.setattr(DNPStrategy, "plan_batch", dnp_plan_batch)
