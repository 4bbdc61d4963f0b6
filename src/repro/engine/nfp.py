"""Node feature parallel (NFP) — P3-style (paper §3.1, Fig. 3b).

The input feature matrix is partitioned *by dimension*: device ``c`` holds
``d/C`` feature columns of every node, and the co-partitioned columns of
the first-layer weights.  Per batch:

1. **Shuffle** — every device broadcasts its layer-1 computation graph
   (AllBroadcast), so each device sees all subgraphs;
2. **Execute** — device ``c`` computes, for every owner ``o``, the partial
   first-layer contribution of its dimension shard (GraphSAGE: the
   shard's ``mean(W_n^c x^c) + W_s^c x^c``; GAT: the shard's partial
   projection ``W^c x^c`` for every source);
3. **Reshuffle** — a SparseAllreduce sums partials at each owner
   (GraphSAGE receives finished pre-activations per destination, volume
   ``2 d' C N_d``; GAT must reduce projections for *every source* before
   attention can run, which is why NFP suits attention models poorly,
   §3.3).

The first-layer weights are sharded, so NFP's DDP gradient sync excludes
them.  Cache policy: the globally hottest nodes, but only the local
dimension shard of each — the same byte budget covers ``C`` times more
nodes than GDP (§3.2).

GraphSAGE/GCN run the first layer as one op set over every owner, bit
for bit the per-(shard, owner) ops: one product of every owner's self
rows per shard, one node that projects the union per shard
(``[z_0 | ... | z_{C-1}]``), aggregates every owner's block over all
shards and adds the shards' partials (the SparseAllreduce), and one
bias + activation.  The adjoints replay each owner's partial in the
order the tape reaches the owners (the aggregation's through SNP's
:func:`~repro.engine.base.ordered_adjoint`); every shard of an owner
receives the owner's one gradient, so that adjoint is formed once,
``d'`` wide, and each shard's weight rows take their product with it.
Charges stay per pair (DESIGN.md §5.18).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.cluster.spec import ELEMENT_BYTES
from repro.engine.base import (
    Rows,
    Strategy,
    StrategyReport,
    charge_loads,
    local_index_of,
    ordered_adjoint,
    record_loads,
    split_round_robin,
)
from repro.engine.context import ExecutionContext
from repro.featurestore.cache import cache_capacity_nodes, hot_cache_nodes
from repro.featurestore.store import LoadSplit
from repro.models.base import PartialMeanLayer, extend_with_self_edges
from repro.models.gat import GATLayer
from repro.tensor import fused, sparse
from repro.tensor.tensor import Tensor
from repro.utils.ids import sorted_unique


@dataclass
class NFPPlan:
    """Routing facts for one NFP batch."""

    #: union of all requesters' input nodes (every device reads its shard)
    union_nodes: np.ndarray
    #: per requester: positions of its block-0 sources within the union
    src_idx_in_union: List[Optional[np.ndarray]]
    #: the union split by the tier each device reads each row from
    splits: LoadSplit


def union_columns(
    union_rows: np.ndarray, edge_src: np.ndarray, num_union: int
) -> sparse.SegmentIndex:
    """Union row of every edge's source: ``union_rows[edge_src]``.

    Gathering ``z_union`` through these equals gathering the block's rows
    (``union_rows``) and then the edges' sources, bit for bit, forward and
    backward — but only because ``union_rows`` (the positions of a block's
    distinct sources in the union) is injective: the adjoint of the first
    gather then scatters each block row's gradient into a row of its own.
    """
    hits = np.bincount(union_rows, minlength=num_union)
    if hits.size and hits.max() > 1:
        raise AssertionError(
            "NFP union rows repeat a union position: the block's sources "
            "are not distinct"
        )
    return sparse.SegmentIndex(union_rows[edge_src], num_union)


class NFPStrategy(Strategy):
    name = "nfp"
    requires_partition = False

    def __init__(self):
        self._shard_bounds: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def prepare(self, ctx: ExecutionContext) -> StrategyReport:
        C = ctx.num_devices
        d = ctx.dataset.feature_dim
        if d < C:
            raise ValueError(
                f"NFP requires feature_dim >= num_devices ({d} < {C})"
            )
        self._shard_bounds = np.linspace(0, d, C + 1).round().astype(np.int64)
        freq = self.resolve_access_freq(ctx)
        dim_fraction = 1.0 / C
        cap = cache_capacity_nodes(
            ctx.cluster.gpu_cache_bytes, d, dim_fraction=dim_fraction
        )
        hot = hot_cache_nodes(freq, cap)
        ctx.store.configure_caches([hot] * C, dim_fraction=dim_fraction)
        return StrategyReport(
            name=self.name,
            cached_nodes_per_device=[int(hot.size)] * C,
            dim_fraction=dim_fraction,
        )

    def shard(self, device: int) -> tuple:
        lo, hi = self._shard_bounds[device], self._shard_bounds[device + 1]
        return int(lo), int(hi)

    def assign_seeds(self, ctx, global_batch):
        return split_round_robin(global_batch, ctx.num_devices)

    def grad_sync_bytes(self, model) -> float:
        """First-layer weights are sharded, never synchronized."""
        return model.parameter_bytes() - model.first_layer_parameter_bytes()

    # ------------------------------------------------------------------ #
    def plan_batch(
        self, ctx: ExecutionContext, batches, epoch: int = 0
    ) -> NFPPlan:
        C = ctx.num_devices
        layer = ctx.model.first_layer
        d_hidden = layer.out_dim if not layer.is_attention else (
            layer.heads * layer.head_dim
        )
        # AllBroadcast of the layer-1 computation graphs.
        struct_bytes = [
            (mb.blocks[0].structure_bytes() if mb is not None else 0.0)
            for mb in batches
        ]
        ctx.comm.allgather_bytes(struct_bytes, phase="sample")
        for dev, b in enumerate(struct_bytes):
            ctx.recorder.record_structure(dev, b * (C - 1))

        all_src = [mb.blocks[0].src_nodes for mb in batches if mb is not None]
        union = sorted_unique(np.concatenate(all_src)) if all_src else np.empty(0, np.int64)
        src_idx: List[Optional[np.ndarray]] = []
        for mb in batches:
            src_idx.append(
                local_index_of(union, mb.blocks[0].src_nodes) if mb is not None else None
            )

        # Every device loads its dimension shard of the whole union.
        splits = record_loads(ctx, [union] * C)

        # Hidden-embedding reduce volumes: every non-owner contributor ships
        # one d'-vector per destination (SAGE) or per source (GAT).
        shard = ctx.dataset.feature_dim / C
        # One SparseAllreduce per batch: every contributor messages every
        # seed-holding owner.
        reduce_pattern = np.zeros((C, C))
        for owner, mb in enumerate(batches):
            if mb is not None:
                reduce_pattern[:, owner] = 1.0
        ctx.recorder.record_message_pattern(reduce_pattern, calls=1)
        for dev in range(C):
            ctx.recorder.record_layer1_flops(
                dev, 2.0 * union.size * shard * d_hidden
            )
        for owner, mb in enumerate(batches):
            if mb is None:
                continue
            block = mb.blocks[0]
            ctx.recorder.n_dst += block.num_dst
            rows = block.num_src if layer.is_attention else block.num_dst
            nbytes = rows * d_hidden * ELEMENT_BYTES
            for c in range(C):
                if c != owner:
                    ctx.recorder.record_hidden(c, owner, nbytes)
            if layer.is_attention:
                ctx.recorder.record_layer1_flops(
                    owner,
                    (block.num_edges + block.num_dst)
                    * layer.heads
                    * (layer.head_dim + 6.0),
                )
            else:
                for c in range(C):
                    ctx.recorder.record_layer1_flops(
                        c,
                        2.0 * block.num_edges * d_hidden
                        + 2.0 * block.num_dst * shard * d_hidden,
                    )
        return NFPPlan(union_nodes=union, src_idx_in_union=src_idx, splits=splits)

    # ------------------------------------------------------------------ #
    def execute_batch(
        self, ctx: ExecutionContext, plan: NFPPlan, batches
    ) -> List[Optional[Tensor]]:
        layer = ctx.model.first_layer
        if isinstance(layer, GATLayer):
            return self._execute_gat(ctx, plan, batches, layer)
        if isinstance(layer, PartialMeanLayer):
            # The partial-mean protocol (GraphSAGE, GCN, ...).
            return self._execute_sage(ctx, plan, batches, layer)
        raise TypeError(
            f"NFP does not know how to decompose layer type {type(layer).__name__}"
        )

    def _execute_sage(self, ctx, plan, batches, layer: PartialMeanLayer):
        C = ctx.num_devices
        union = plan.union_nodes
        d_hidden = layer.out_dim
        shuffle_bytes = np.zeros((C, C))
        # Every shard holder reads the same union rows: each device's
        # (cache-dependent) load is charged, the rows are read once.
        charge_loads(ctx, plan.splits)
        devices, flops = [], []
        for c in range(C):
            lo, hi = self.shard(c)
            devices.append(c)
            flops.append(2.0 * union.size * (hi - lo) * d_hidden)
            inter = 0.0
            for o, mb in enumerate(batches):
                if mb is None:
                    continue
                block = mb.blocks[0]
                if c != o:
                    shuffle_bytes[c, o] += block.num_dst * d_hidden * ELEMENT_BYTES
                devices.append(c)
                flops.append(
                    2.0 * block.num_edges * d_hidden
                    + 2.0 * block.num_dst * (hi - lo) * d_hidden
                )
                inter += block.num_dst * d_hidden * ELEMENT_BYTES
            ctx.recorder.record_intermediate(
                c, inter + union.size * (hi - lo) * ELEMENT_BYTES
            )
        # Every charge in loop order: one vectorized call.
        ctx.charger.dense(devices, flops)
        # The SparseAllreduce of every shard's partial pre-activations.
        ctx.comm.alltoall_bytes(shuffle_bytes, phase="shuffle", count_backward=True)
        if not ctx.numerics:
            return [None] * C
        x_union = ctx.store.read(union)
        # Every owner at once (DESIGN.md §5.18): the owners' self rows
        # projected per shard, then one node that projects the union per
        # shard, aggregates every owner's block and adds the partials.
        self_in_agg = layer.self_loop_in_aggregation
        bounds = self._shard_bounds
        out = Rows.first_layer(batches)
        cols, dst, self_rows = [], [], []
        for o in out.devices:
            block = batches[o].blocks[0]
            idx = plan.src_idx_in_union[o]
            # GCN: the self loop is one more aggregation edge.
            es, ed = (extend_with_self_edges(block) if self_in_agg
                      else (block.edge_src, block.edge_dst))
            cols.append(union_columns(idx, es, union.size).ids)
            dst.append(ed + out.ptr[o])
            self_rows.append(idx[block.dst_in_src])
        dst = sparse.SegmentIndex(np.concatenate(dst), out.ptr[-1])
        reached = out.reached
        selfs = None if self_in_agg else _shard_products(
            x_union[np.concatenate(self_rows)], layer.w_self, bounds,
            out.ptr, reached,
        )
        total = _shard_sum(
            x_union, layer.weight if self_in_agg else layer.w_neigh, bounds,
            np.concatenate(cols), dst,
            np.repeat(out.devices, [c.size for c in cols]),
            lambda: reached.ranks(C), selfs,
        )
        # Each owner's bias gradient on its own rows, in reach order.
        out.tensor = fused.add_bias_act(
            [total], layer.bias, layer._act, spans=out.ptr, order=reached
        )
        return out

    def _execute_gat(self, ctx, plan, batches, layer: GATLayer):
        C = ctx.num_devices
        union = plan.union_nodes
        d_proj = layer.heads * layer.head_dim
        contributions: List[List[Optional[Tensor]]] = [
            [None] * C for _ in range(C)
        ]
        shuffle_bytes = np.zeros((C, C))
        charge_loads(ctx, plan.splits)
        x_union = ctx.store.read(union) if ctx.numerics else None
        for c in range(C):
            lo, hi = self.shard(c)
            if ctx.numerics:
                x_shard = Tensor(x_union[:, lo:hi])
                w_shard = layer.weight.index_rows(np.arange(lo, hi))
                z_union = x_shard @ w_shard
            ctx.charger.dense(c, 2.0 * union.size * (hi - lo) * d_proj)
            inter = union.size * ((hi - lo) + d_proj) * ELEMENT_BYTES
            for o, mb in enumerate(batches):
                if mb is None:
                    continue
                idx = plan.src_idx_in_union[o]
                if ctx.numerics:
                    contributions[c][o] = z_union.index_rows(idx)
                if c != o:
                    shuffle_bytes[c, o] += idx.size * d_proj * ELEMENT_BYTES
                inter += idx.size * d_proj * ELEMENT_BYTES
            ctx.recorder.record_intermediate(c, inter)
        # SparseAllreduce the full projections, then attend locally.
        if ctx.numerics:
            z_totals = ctx.comm.scatter_reduce(contributions, phase="shuffle")
        else:
            ctx.comm.alltoall_bytes(
                shuffle_bytes, phase="shuffle", count_backward=True
            )
        h1: List[Optional[Tensor]] = []
        for o, mb in enumerate(batches):
            if mb is None:
                h1.append(None)
                continue
            block = mb.blocks[0]
            ctx.charger.dense(
                o, layer.forward_flops(block) - 2.0 * block.num_src * layer.in_dim * d_proj
            )
            h1.append(layer.attend(block, z_totals[o]) if ctx.numerics else None)
        return Rows.from_parts(h1)


def _project(x: np.ndarray, w: np.ndarray, shards, segments) -> np.ndarray:
    """``[x[:, s] @ w[s] for each dimension shard s]`` column-stacked, one
    BLAS call per shard and row segment, each written straight into its
    column block."""
    d_out = w.shape[1]
    out = np.empty((x.shape[0], len(shards) * d_out))
    for rows in segments:
        for c, (lo, hi) in enumerate(shards):
            np.matmul(x[rows, lo:hi], w[lo:hi],
                      out=out[rows, c * d_out : (c + 1) * d_out])
    return out


def _shard_products(
    x: np.ndarray,
    w: Tensor,
    bounds: np.ndarray,
    spans: np.ndarray,
    order: Callable[[], Sequence[int]],
) -> Tensor:
    """Every owner's shard products (:func:`_project`; ``spans``: row
    offsets of the owners' stacked rows), one node: each block is its
    shard holder's product for one owner.  The adjoint fills each shard's
    (disjoint) rows of ``w`` from its own blocks, owners added in
    ``order()``, as the per-owner products' adjoints accumulated."""
    d_out = w.data.shape[1]
    shards = list(zip(bounds[:-1], bounds[1:]))
    segments = [slice(a, b) for a, b in zip(spans[:-1], spans[1:])]

    def backward_fn(g: np.ndarray) -> None:
        buf = np.zeros_like(w.data)
        for s in order():
            rows = segments[s]
            for c, (lo, hi) in enumerate(shards):
                buf[lo:hi] += x[rows, lo:hi].T @ g[rows, c * d_out : (c + 1) * d_out]
        w._accumulate_owned(buf)

    out = _project(x, w.data, shards, segments)
    return Tensor._make(out, (w,), backward_fn, "shard_products")


def _shard_sum(
    x: np.ndarray,
    w: Tensor,
    bounds: np.ndarray,
    cols: np.ndarray,
    dst: sparse.SegmentIndex,
    edge_owner: np.ndarray,
    owner_rank: Callable[[], np.ndarray],
    selfs: Optional[Tensor],
) -> Tensor:
    """Every owner's projection, aggregation and SparseAllreduce, one node:
    the union rows ``x`` projected per dimension shard (:func:`_project`),
    each owner's block aggregated out of that (edges ``cols`` -> ``dst``),
    and the column blocks of ``mean (+ selfs)`` added in shard order, one
    block at a time, as each shard's mean (and self) partial was.  The
    SparseAllreduce's adjoint hands every shard's partial its owner's one
    gradient, so the aggregation's adjoint is formed once, ``d'`` wide,
    each owner's sums added in ``owner_rank()`` order
    (:func:`~repro.engine.base.ordered_adjoint`), and every shard's rows
    of ``w`` take their product with it."""
    shards = list(zip(bounds[:-1], bounds[1:]))
    # The projections are a forward temporary, not a tape tensor: their
    # gradient would be C copies of the one block formed below.
    agg = sparse.gather_segment_sum(
        Tensor(_project(x, w.data, shards, [slice(None)])), cols, dst
    ).data
    inv = 1.0 / np.maximum(dst.counts, 1).reshape(-1, 1)
    d_out = w.data.shape[1]
    total = None
    for c in range(len(shards)):
        block = slice(c * d_out, (c + 1) * d_out)
        partial = agg[:, block] * inv
        if selfs is not None:
            partial += selfs.data[:, block]
        if total is None:
            total = partial
        else:
            total += partial

    def backward_fn(g: np.ndarray) -> None:
        mean_grad = ordered_adjoint(
            g * inv, cols, dst.ids, owner_rank()[edge_owner], x.shape[0]
        )
        buf = np.zeros_like(w.data)
        for lo, hi in shards:
            buf[lo:hi] += x[:, lo:hi].T @ mean_grad
        w._accumulate_owned(buf)
        if selfs is not None:
            selfs._accumulate_owned(np.tile(g, len(shards)))

    parents = (w,) if selfs is None else (w, selfs)
    return Tensor._make(total, parents, backward_fn, "shard_sum")
