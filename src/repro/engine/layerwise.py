"""Per-layer hybrid strategy composition (DESIGN.md §5.15).

A *layerwise spec* assigns one strategy name per GNN layer —
``layerwise:nfp,gdp`` reads "NFP for the first layer, GDP above it".  The
driver generalizes the engine from "one strategy per run" to "one layout
per layer":

* **layer 0** keeps the full mechanics of its assigned strategy (cache
  policy, routing, partial aggregation) — the existing GDP/NFP/SNP/DNP
  code paths run unchanged;
* **upper layers** are interpreted as *layouts*: ``gdp``/``nfp`` mean
  replicated-data-parallel (every seed device computes its own
  destinations — the behavior all single strategies share), while
  ``snp``/``dnp`` mean node-partitioned (every destination is computed
  exactly once, on the device owning it in the node->device partition);
* between layers of different layouts the driver inserts **re-layout
  stages**: the embedding rows that change owners travel in one
  all-to-all, charged on the Timeline (phase ``shuffle``) and recorded
  into the :class:`~repro.engine.context.VolumeRecorder` so the cost
  model prices them like any other hidden-embedding traffic.

Node-partitioned upper layers rebuild every owner's bipartite block in
one :meth:`NeighborSampler._sample_layers` pass over the owned frontiers —
the sampler's per-node determinism guarantees each destination gets
exactly the edge set it had in the per-device minibatches, so regrouping
is pure re-bucketing, never re-sampling.

Semantics contract: a spec naming the *same* strategy for every layer
delegates wholesale to that strategy and is bit-identical to it (losses,
parameters, Timeline); mixed specs follow the layout algebra above, with
the global seed batch split by the *top* layer's policy so the final
output layout needs no re-layout back to the loss devices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.spec import ELEMENT_BYTES, ID_BYTES
from repro.engine.base import (
    LAYOUT_NODE,
    LAYOUT_REPLICATED,
    Rows,
    Strategy,
    StrategyReport,
    layer_step,
    local_index_of,
    split_by_partition,
    split_round_robin,
)
from repro.engine.context import ExecutionContext
from repro.engine.dnp import DNPStrategy
from repro.engine.gdp import GDPStrategy
from repro.engine.nfp import NFPStrategy
from repro.engine.snp import SNPStrategy
from repro.sampling.block import Block, MiniBatch
from repro.tensor import concat as tensor_concat
from repro.tensor.tensor import Tensor
from repro.utils.ids import sorted_unique

#: spec prefix understood by ``make_strategy`` and the CLI
SPEC_PREFIX = "layerwise:"
#: strategies composable per layer (``hyb`` is itself a composition)
LAYER_STRATEGIES = ("gdp", "nfp", "snp", "dnp")

_BASE = {
    "gdp": GDPStrategy,
    "nfp": NFPStrategy,
    "snp": SNPStrategy,
    "dnp": DNPStrategy,
}


# ---------------------------------------------------------------------- #
# spec grammar
# ---------------------------------------------------------------------- #
def parse_layerwise(spec) -> List[str]:
    """Parse ``"layerwise:nfp,gdp"`` (or ``"nfp,gdp"``, or a sequence)
    into a validated per-layer name list."""
    if isinstance(spec, str):
        s = spec.strip().lower()
        if s.startswith(SPEC_PREFIX):
            s = s[len(SPEC_PREFIX):]
        names = [p.strip() for p in s.split(",") if p.strip()]
    else:
        names = [str(p).strip().lower() for p in spec]
    if not names:
        raise ValueError(f"empty layerwise spec {spec!r}")
    for n in names:
        if n not in LAYER_STRATEGIES:
            raise ValueError(
                f"layerwise specs compose {LAYER_STRATEGIES}, got {n!r}"
            )
    if len(set(names)) > 1 and "nfp" in names[1:]:
        raise ValueError(
            "nfp partitions the *input feature* dimension and is only valid "
            f"at layer 0 of a mixed spec (got {names})"
        )
    return names


def format_spec(names: Sequence[str]) -> str:
    """The canonical spec string for a per-layer name list."""
    return SPEC_PREFIX + ",".join(names)


def is_layerwise_spec(name) -> bool:
    return isinstance(name, str) and name.strip().lower().startswith(SPEC_PREFIX)


def upper_layout(name: str) -> str:
    """The layout an upper-layer assignment denotes."""
    return LAYOUT_NODE if name in ("snp", "dnp") else LAYOUT_REPLICATED


def canonical_spec(names: Sequence[str]) -> Tuple[str, ...]:
    """Collapse behaviorally-equal specs onto one key (for search caching).

    A homogeneous spec *is* its single strategy.  A mixed spec's behavior
    is determined by the layer-0 strategy, the upper-layer layouts, and
    the seed-split policy (which follows the top layer) — so upper
    ``dnp`` folds onto ``snp``, and a mixed spec whose upper layers are
    all replicated with the base strategy's native seed split folds onto
    the single strategy (e.g. ``layerwise:nfp,gdp`` == ``nfp``).
    """
    names = tuple(n.lower() for n in names)
    if all(n == names[0] for n in names):
        return (names[0],)
    base = names[0]
    uppers = tuple("snp" if n in ("snp", "dnp") else "gdp" for n in names[1:])
    seed = "partition" if uppers[-1] == "snp" else "round_robin"
    base_native = "partition" if base in ("snp", "dnp") else "round_robin"
    if all(u == "gdp" for u in uppers) and seed == base_native:
        return (base,)
    return (base,) + uppers


# ---------------------------------------------------------------------- #
# plan structures
# ---------------------------------------------------------------------- #
class GatherSpec:
    """Assemble one target's input rows from the current holders.

    Built from the holder of each needed id; the per-holder row counts
    (:attr:`counts`, all a dry-run or timing-only epoch reads) are taken
    at once, the positions and the permutation on their first read.
    """

    def __init__(
        self,
        target: int,
        ids: np.ndarray,
        holder_of: np.ndarray,
        holder_ids: List[Optional[np.ndarray]],
    ):
        #: the device the rows are gathered to
        self.target = target
        #: global ids the target needs, in consumption order
        self.ids = ids
        #: rows taken from each holder
        self.counts = np.bincount(holder_of, minlength=len(holder_ids))
        self._holder_of = holder_of
        self._holder_ids = holder_ids
        self._pieces: Optional[List[Tuple[int, np.ndarray]]] = None
        self._perm: Optional[np.ndarray] = None

    @property
    def pieces(self) -> List[Tuple[int, np.ndarray]]:
        """``(holder, positions-within-holder)`` in ascending holder order."""
        if self._pieces is None:
            self._materialize()
        return self._pieces

    @property
    def perm(self) -> np.ndarray:
        """``concat(piece rows)[perm]`` aligns with :attr:`ids`."""
        if self._perm is None:
            self._materialize()
        return self._perm

    def add_moves(self, move: np.ndarray, row_bytes: float) -> None:
        """Charge the rows other holders send the target into ``move``."""
        col = self.counts * row_bytes
        col[self.target] = 0.0
        move[:, self.target] += col

    def _materialize(self) -> None:
        order = np.argsort(self._holder_of, kind="stable")
        sorted_ids = self.ids[order]
        bounds = np.concatenate([[0], np.cumsum(self.counts)])
        self._pieces = [
            (h, local_index_of(self._holder_ids[h], sorted_ids[lo:hi]))
            for h, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
            if hi > lo
        ]
        self._perm = np.empty(self.ids.size, dtype=np.int64)
        self._perm[order] = np.arange(self.ids.size)


@dataclass
class UpperStage:
    """One upper layer's execution recipe."""

    layer: int
    layout: str
    #: per-target row gathers (``None`` = target idle, or no re-layout)
    gathers: List[Optional[GatherSpec]]
    #: node layout: the regrouped block each owner executes
    blocks: List[Optional[Block]]
    #: re-layout row bytes ``[holder, new_owner]`` (zero off the stages
    #: that keep their layout)
    move_bytes: np.ndarray


@dataclass
class LayerwisePlan:
    """Base-strategy plan plus the upper-layer stage recipes."""

    base: object
    stages: List[UpperStage] = field(default_factory=list)
    #: partitioned top layer only: per seed-device gathers back to the
    #: loss layout (free when seeds were split by partition)
    final_gathers: Optional[List[Optional[GatherSpec]]] = None
    final_move_bytes: Optional[np.ndarray] = None


# ---------------------------------------------------------------------- #
@dataclass
class HolderIndex:
    """Who holds which rows of a replicated (seed-follower) layout."""

    #: sorted distinct ids held by any device
    ids: np.ndarray
    #: lowest-numbered device holding each of ``ids``
    lowest: np.ndarray
    #: per device, the positions of its own rows within ``ids``
    slots: List[np.ndarray]

    @classmethod
    def build(cls, holder_ids: List[Optional[np.ndarray]]) -> "HolderIndex":
        """One stable sort over every device's ids: equal ids stay in
        device order, so each run's first entry is its lowest holder."""
        held = [
            h if h is not None else np.empty(0, dtype=np.int64)
            for h in holder_ids
        ]
        sizes = [h.size for h in held]
        ids = np.concatenate(held)
        dev = np.repeat(np.arange(len(held), dtype=np.int64), sizes)
        order = np.argsort(ids, kind="stable")
        ids, dev = ids[order], dev[order]
        first = np.ones(ids.size, dtype=bool)
        first[1:] = ids[1:] != ids[:-1]
        slot = np.empty(ids.size, dtype=np.int64)
        slot[order] = np.cumsum(first) - 1
        return cls(
            ids=ids[first],
            lowest=dev[first],
            slots=np.split(slot, np.cumsum(sizes)[:-1]),
        )


def _first_holders(
    need_ids: np.ndarray, index: HolderIndex, target: int
) -> np.ndarray:
    """Resolve a replicated (seed-follower) layout's row holders.

    Rows may exist on several devices; prefer the target itself (free),
    then the lowest-numbered holder — deterministic, so the plan and the
    execution agree without negotiation.
    """
    pos = np.searchsorted(index.ids, need_ids)
    found = pos < index.ids.size
    found[found] = index.ids[pos[found]] == need_ids[found]
    if not found.all():
        missing = need_ids[~found][:5]
        raise RuntimeError(
            f"re-layout cannot source rows for ids {missing} — no holder "
            "covers them (sampler determinism violated?)"
        )
    holder = index.lowest[pos]
    own = np.zeros(index.ids.size, dtype=bool)
    own[index.slots[target]] = True
    holder[own[pos]] = target
    return holder


# ---------------------------------------------------------------------- #
class LayerwiseStrategy(Strategy):
    """Drives a per-layer strategy composition (see module docstring)."""

    def __init__(self, layer_names: Sequence[str]):
        names = parse_layerwise(layer_names)
        self.layer_names: List[str] = names
        self.homogeneous = all(n == names[0] for n in names)
        self.base = _BASE[names[0]]()
        self.name = format_spec(names)
        self.seed_split = (
            "partition" if names[-1] in ("snp", "dnp") else "round_robin"
        )
        self.requires_partition = self.base.requires_partition or any(
            n in ("snp", "dnp") for n in names
        )
        self.gather_prefetch = self.base.gather_prefetch
        #: layout per upper layer (index ``li - 1`` for model layer ``li``)
        self.upper_layouts = [upper_layout(n) for n in names[1:]]
        self._parts: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def prepare(self, ctx: ExecutionContext) -> StrategyReport:
        if len(self.layer_names) != ctx.model.num_layers:
            raise ValueError(
                f"layerwise spec has {len(self.layer_names)} assignments but "
                f"the model has {ctx.model.num_layers} layers"
            )
        if self.requires_partition:
            self._parts = self.check_partition(ctx)
        report = self.base.prepare(ctx)
        return StrategyReport(
            name=self.name,
            cached_nodes_per_device=report.cached_nodes_per_device,
            dim_fraction=report.dim_fraction,
        )

    def assign_seeds(self, ctx, global_batch):
        if self.homogeneous:
            return self.base.assign_seeds(ctx, global_batch)
        if self.seed_split == "partition":
            return split_by_partition(global_batch, self._parts, ctx.num_devices)
        return split_round_robin(global_batch, ctx.num_devices)

    def grad_sync_bytes(self, model) -> float:
        return self.base.grad_sync_bytes(model)

    def load_requests(self, ctx, plan: LayerwisePlan, batches):
        return self.base.load_requests(ctx, plan.base, batches)

    # ------------------------------------------------------------------ #
    def plan_batch(
        self,
        ctx: ExecutionContext,
        batches: List[Optional[MiniBatch]],
        epoch: int = 0,
    ) -> LayerwisePlan:
        base_plan = self.base.plan_batch(ctx, batches, epoch)
        plan = LayerwisePlan(base=base_plan)
        if not self.homogeneous:
            self._plan_upper(ctx, batches, epoch, plan)
        return plan

    def execute_batch(self, ctx, plan: LayerwisePlan, batches):
        return self.base.execute_batch(ctx, plan.base, batches)

    # ------------------------------------------------------------------ #
    # upper-layer routing (Permute/Shuffle of the re-layout stages)
    # ------------------------------------------------------------------ #
    def _plan_upper(
        self,
        ctx: ExecutionContext,
        batches: List[Optional[MiniBatch]],
        epoch: int,
        plan: LayerwisePlan,
    ) -> None:
        C = ctx.num_devices
        parts = self._parts
        num_layers = ctx.model.num_layers
        #: "follower" = rows live per seed device, aligned to the next
        #: layer's ``src_nodes``; "node" = rows live at partition owners
        mode = "follower"
        owned_ids: List[Optional[np.ndarray]] = [None] * C

        for li in range(1, num_layers):
            layer = ctx.model.layers[li]
            layout = self.upper_layouts[li - 1]
            row_bytes = ELEMENT_BYTES * layer.in_dim
            follower_ids = [
                mb.blocks[li].src_nodes if mb is not None else None
                for mb in batches
            ]
            move = np.zeros((C, C))
            gathers: List[Optional[GatherSpec]] = [None] * C
            blocks: List[Optional[Block]] = [None] * C

            if layout == LAYOUT_REPLICATED:
                if mode == "node":
                    # node -> replicated: every seed device pulls its own
                    # src rows back from the partition owners.
                    for d, mb in enumerate(batches):
                        if mb is None:
                            continue
                        need = mb.blocks[li].src_nodes
                        holder_of = parts[need]
                        gathers[d] = GatherSpec(d, need, holder_of, owned_ids)
                        gathers[d].add_moves(move, row_bytes)
                    mode = "follower"
                # follower -> replicated needs no re-layout at all.
            else:  # LAYOUT_NODE
                dsts = [
                    mb.blocks[li].dst_nodes
                    for mb in batches
                    if mb is not None
                ]
                V = (
                    sorted_unique(np.concatenate(dsts))
                    if dsts
                    else np.empty(0, np.int64)
                )
                blocks = self._owner_blocks(ctx, V, li, epoch)
                if mode == "node":
                    holder_ids = owned_ids
                else:
                    holder_ids = follower_ids
                    followers = HolderIndex.build(follower_ids)
                for p, blk in enumerate(blocks):
                    if blk is None:
                        continue
                    need = blk.src_nodes
                    if mode == "node":
                        holder_of = parts[need]
                    else:
                        holder_of = _first_holders(need, followers, p)
                    gathers[p] = GatherSpec(p, need, holder_of, holder_ids)
                    gathers[p].add_moves(move, row_bytes)
                self._charge_structure(ctx, batches, li, parts)
                owned_ids = [
                    blk.dst_nodes if blk is not None else None
                    for blk in blocks
                ]
                mode = "node"

            if move.any():
                ctx.recorder.record_message_pattern(move, calls=2)
                for h in range(C):
                    for t in range(C):
                        if move[h, t]:
                            ctx.recorder.record_relayout(li, h, t, move[h, t])
            plan.stages.append(
                UpperStage(
                    layer=li,
                    layout=layout,
                    gathers=gathers,
                    blocks=blocks,
                    move_bytes=move,
                )
            )

        if mode == "node":
            # Back to the loss layout: each seed device collects its own
            # final destinations.  Free when seeds were partition-split.
            row_bytes = ELEMENT_BYTES * ctx.model.layers[-1].out_dim
            move = np.zeros((C, C))
            finals: List[Optional[GatherSpec]] = [None] * C
            for d, mb in enumerate(batches):
                if mb is None:
                    continue
                need = mb.blocks[-1].dst_nodes
                finals[d] = GatherSpec(d, need, parts[need], owned_ids)
                finals[d].add_moves(move, row_bytes)
            if move.any():
                ctx.recorder.record_message_pattern(move, calls=2)
                for h in range(C):
                    for t in range(C):
                        if move[h, t]:
                            ctx.recorder.record_relayout(
                                num_layers, h, t, move[h, t]
                            )
            plan.final_gathers = finals
            plan.final_move_bytes = move

    def _owner_blocks(
        self, ctx: ExecutionContext, V: np.ndarray, li: int, epoch: int
    ) -> List[Optional[Block]]:
        """The regrouped layer-``li`` block of each partition owner.

        ``V`` — the layer's destinations over the whole global batch — is
        the same under every seed split, and the sampler draws per node, so
        the blocks depend on ``(V, li, epoch)`` and the partition alone:
        every candidate spec of a dry-run sweep shares one set.
        """
        key = (int(epoch), li, V.tobytes())
        memo = ctx.regrouped
        if memo is not None and key in memo:
            return memo[key]
        owner = self._parts[V]
        blocks: List[Optional[Block]] = [None] * ctx.num_devices
        frontiers = [V[owner == p] for p in range(ctx.num_devices)]
        active = [p for p, F in enumerate(frontiers) if F.size]
        if active:
            sampled = ctx.sampler._sample_layers(
                [frontiers[p] for p in active],
                ctx.sampler.fanouts[li],
                [epoch] * len(active),
                li,
            )
            for p, block in zip(active, sampled):
                blocks[p] = block
        if memo is not None:
            memo[key] = blocks
        return blocks

    @staticmethod
    def _charge_structure(ctx, batches, li: int, parts: np.ndarray) -> None:
        """Ship each destination's edge list to its partition owner.

        Every destination's block structure lives with the device that
        sampled it; regrouping a layer by ownership moves each node's
        in-edge list (endpoint pairs + ids, ``ID_BYTES`` per entry) from its
        first holder to its owner — charged like the single strategies'
        structure shuffles (phase ``sample``, i.e. T_build).
        """
        all_dst, all_dev, all_deg = [], [], []
        for d, mb in enumerate(batches):
            if mb is None:
                continue
            block = mb.blocks[li]
            all_dst.append(block.dst_nodes)
            all_dev.append(np.full(block.num_dst, d, dtype=np.int64))
            all_deg.append(block.degree_per_dst())
        if not all_dst:
            return
        dst = np.concatenate(all_dst)
        dev = np.concatenate(all_dev)
        deg = np.concatenate(all_deg)
        order = np.argsort(dst, kind="stable")  # lowest device first per id
        dst, dev, deg = dst[order], dev[order], deg[order]
        first = np.ones(dst.size, dtype=bool)
        first[1:] = dst[1:] != dst[:-1]
        v, holder, degree = dst[first], dev[first], deg[first]
        owner = parts[v]
        nbytes = ID_BYTES * (2.0 * degree + 2.0)
        C = ctx.num_devices
        struct = np.zeros((C, C))
        np.add.at(struct, (holder, owner), nbytes)
        np.fill_diagonal(struct, 0.0)
        if struct.any():
            ctx.comm.alltoall_bytes(struct, phase="sample")
            for h in range(C):
                ctx.recorder.record_structure(h, float(struct[h].sum()))

    # ------------------------------------------------------------------ #
    # upper-layer execution (Execute/Reshuffle of the re-layout stages)
    # ------------------------------------------------------------------ #
    def upper_forward(self, ctx, plan: LayerwisePlan, batches, h1):
        if self.homogeneous:
            return super().upper_forward(ctx, plan, batches, h1)
        state = h1 if ctx.numerics else None
        for stage in plan.stages:
            layer = ctx.model.layers[stage.layer]
            if stage.layout == LAYOUT_NODE or any(
                g is not None for g in stage.gathers
            ):
                state = self._apply_gathers(
                    ctx, stage.gathers, stage.move_bytes, state
                )
            if stage.layout == LAYOUT_REPLICATED:
                blocks = [
                    None if mb is None else mb.blocks[stage.layer]
                    for mb in batches
                ]
                state = layer_step(ctx, layer, blocks, state)
            else:
                state = layer_step(
                    ctx, layer, stage.blocks, state, intermediate=True
                )

        if plan.final_gathers is not None:
            state = self._apply_gathers(
                ctx, plan.final_gathers, plan.final_move_bytes, state
            )
        return state

    @staticmethod
    def _apply_gathers(
        ctx,
        gathers: List[Optional[GatherSpec]],
        move_bytes: np.ndarray,
        rows: Optional[Rows],
    ) -> Optional[Rows]:
        """Execute one re-layout: route rows holder -> target.

        Numerics mode splits the holders' rows into per-device tensors and
        moves autograd-connected row tensors through the communicator's
        all-to-all (gradients flow back to each holder's tape); timing mode
        charges the identical byte matrix.
        """
        C = len(gathers)
        if not ctx.numerics:
            if move_bytes is not None and move_bytes.any():
                ctx.comm.alltoall_bytes(
                    move_bytes, phase="shuffle", count_backward=True
                )
            return None
        state = rows.parts
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
            pieces = [received[t][h] for h, _ in spec.pieces]
            stacked = pieces[0] if len(pieces) == 1 else tensor_concat(pieces, axis=0)
            out.append(stacked.index_rows(spec.perm))
        return Rows.from_parts(out)
