"""Strategy base class and shared engine machinery.

Besides the :class:`Strategy` lifecycle this module holds what several
strategies share: seed splits, sampling charges, the load-set stage
that all four strategies record through (:func:`record_loads` classifies
every device's load set in one pass and returns the
:class:`~repro.featurestore.store.LoadSplit` a plan carries;
:func:`charge_loads` and :func:`read_load_sets` charge and read from it),
and the one first-layer router
(:func:`route_first_layer`) of SNP, DNP and hyb.  Those three differ only
in the key that sends a sampled edge to a server — its source's owner
(SNP, hyb within the requester's machine) or its destination's owner
(DNP) — and each keeps its own flops, payloads, message patterns and
execute path (DESIGN.md §5.19).  The router counts first: its
:class:`RoutePlan` carries per-(requester, server) sizes
(:class:`PairCounts`) and the load sets, and builds the per-pair
:class:`RouteTask` id arrays only when the numerics path reads them, so a
dry-run or a timing-only epoch never builds them.

Last, :func:`layer_step` runs one layer of every device as one set of
ops over stacked :class:`Rows` (GDP's whole model, every upper layer;
DESIGN.md §5.18).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.cluster.spec import ELEMENT_BYTES, ID_BYTES
from repro.engine.context import ExecutionContext
from repro.featurestore.store import TIERS, LoadSplit
from repro.models.base import PartialMeanLayer, extend_with_self_edges
from repro.parallel.backend import resolve_backend
from repro.sampling.block import Block, MiniBatch
from repro.tensor import fused
from repro.tensor.sparse import (
    SegmentIndex,
    gather_segment_mean,
    gather_segment_sum,
    segment_sum,
)
from repro.tensor.tensor import Tensor
from repro.utils.ids import sorted_unique


@dataclass
class StrategyReport:
    """Summary facts a strategy can expose after preparation."""

    name: str
    cached_nodes_per_device: List[int]
    dim_fraction: float


# ---------------------------------------------------------------------- #
# partition layouts (DESIGN.md §5.15)
# ---------------------------------------------------------------------- #
#: every device computes its own seeds' destinations end to end (GDP, and
#: the upper layers of every single strategy)
LAYOUT_REPLICATED = "replicated"
#: each destination node is computed once, at the device owning it in the
#: node->device partition (SNP/DNP first layers; partitioned upper layers)
LAYOUT_NODE = "node"


class Strategy(abc.ABC):
    """A parallelization strategy over the unified execution engine.

    Lifecycle::

        strategy.prepare(ctx)                  # caches, partition checks
        for each global batch:
            seeds = strategy.assign_seeds(ctx, global_batch)
            batches = sample_batches(ctx, seeds, epoch)
            plan = strategy.plan_batch(ctx, batches)      # Permute+Shuffle
            h1 = strategy.execute_batch(ctx, plan, batches)  # Execute+Reshuffle

    ``plan_batch`` performs only routing math: it charges the
    graph-structure shuffling (part of the paper's T_build) and records
    every communication volume into ``ctx.recorder`` — which is exactly
    what the APT dry-run measures, so the planner runs plans without
    executes.  ``execute_batch`` performs feature loads, layer-1 numerics,
    and hidden-embedding shuffles.
    """

    #: paper abbreviation ("gdp", "nfp", "snp", "dnp")
    name: str = "base"
    #: how the strategy splits a global seed batch over devices
    #: ("round_robin" or "partition"); the layerwise driver follows the
    #: *top* layer's policy so its output layout needs no final re-layout
    seed_split: str = "round_robin"
    #: whether the strategy needs a node->device graph partition
    requires_partition: bool = False

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def prepare(self, ctx: ExecutionContext) -> StrategyReport:
        """Configure caches / placement; called once before training."""

    @abc.abstractmethod
    def assign_seeds(
        self, ctx: ExecutionContext, global_batch: np.ndarray
    ) -> List[Optional[np.ndarray]]:
        """Distribute a global seed batch over devices (None = no seeds)."""

    @abc.abstractmethod
    def plan_batch(
        self,
        ctx: ExecutionContext,
        batches: List[Optional[MiniBatch]],
        epoch: int = 0,
    ):
        """Permute+Shuffle: route first-layer blocks, record volumes.

        ``epoch`` identifies the sampling epoch the batches came from —
        strategies whose routing derives additional blocks (the layerwise
        driver's regrouped upper layers) need it to reproduce the
        per-node-deterministic draws; the single strategies ignore it.
        """

    @abc.abstractmethod
    def execute_batch(
        self,
        ctx: ExecutionContext,
        plan,
        batches: List[Optional[MiniBatch]],
    ) -> List[Optional[Tensor]]:
        """Execute+Reshuffle: every device's layer-1 outputs aligned to its
        ``blocks[0].dst_nodes``, as :class:`Rows` (ignored in timing-only
        mode)."""

    # ------------------------------------------------------------------ #
    def upper_forward(
        self,
        ctx: ExecutionContext,
        plan,
        batches: List[Optional[MiniBatch]],
        h1,
    ) -> Optional["Rows"]:
        """Layers >= 2 given the first layer's outputs; every device's logits.

        The default runs every upper layer data-parallel on the seed-owning
        device (the behavior all four single strategies share), all devices
        at once (:func:`layer_step`); the layerwise driver overrides it to
        re-layout embeddings between differently-partitioned layers.
        Device ``d``'s logits align with its ``blocks[-1].dst_nodes``;
        ``None`` in timing-only mode.
        """
        rows = h1 if ctx.numerics else None
        for li in range(1, ctx.model.num_layers):
            blocks = [None if mb is None else mb.blocks[li] for mb in batches]
            rows = layer_step(ctx, ctx.model.layers[li], blocks, rows)
        return rows

    def load_requests(
        self, ctx: ExecutionContext, plan, batches: List[Optional[MiniBatch]]
    ) -> Optional[List[Optional[np.ndarray]]]:
        """Per-device feature-row requests ``execute_batch`` will read.

        Used by the trainer's shared-gather dedup (DESIGN.md §5.12): the
        union of these id arrays is materialized once per global batch and
        GDP's layers read their rows from it through ``shared_positions``.
        Strategies that don't declare their load sets return ``None`` and
        keep per-device gathers; tier accounting is per-device and
        unchanged either way.
        """
        return None

    def grad_sync_bytes(self, model) -> float:
        """DDP gradient-allreduce volume (full model by default)."""
        return model.parameter_bytes()

    def check_partition(self, ctx: ExecutionContext) -> np.ndarray:
        if ctx.parts is None:
            raise ValueError(
                f"strategy {self.name!r} requires a node->device partition; "
                "set ctx.parts (e.g. metis_like_partition(graph, num_devices))"
            )
        parts = np.asarray(ctx.parts, dtype=np.int64)
        if parts.shape != (ctx.dataset.num_nodes,):
            raise ValueError(
                f"partition shape {parts.shape} != ({ctx.dataset.num_nodes},)"
            )
        if parts.size and parts.max() >= ctx.num_devices:
            raise ValueError(
                f"partition references device {parts.max()} but the cluster "
                f"has {ctx.num_devices}"
            )
        return parts

    def resolve_access_freq(self, ctx: ExecutionContext) -> np.ndarray:
        """Access frequencies for cache policies (degree proxy if absent).

        The APT workflow supplies dry-run frequencies; standalone strategy
        runs fall back to in-degree, a standard static approximation
        (PaGraph-style caching).
        """
        if ctx.access_freq is not None:
            return np.asarray(ctx.access_freq, dtype=np.float64)
        return ctx.dataset.graph.in_degrees.astype(np.float64)


# ---------------------------------------------------------------------- #
# shared helpers
# ---------------------------------------------------------------------- #
def split_round_robin(
    global_batch: np.ndarray, num_devices: int
) -> List[Optional[np.ndarray]]:
    """Even contiguous split of a shuffled global batch (GDP/NFP)."""
    chunks = np.array_split(np.asarray(global_batch, dtype=np.int64), num_devices)
    return [c if c.size else None for c in chunks]


def split_by_partition(
    global_batch: np.ndarray, parts: np.ndarray, num_devices: int
) -> List[Optional[np.ndarray]]:
    """Partition-local seed assignment (SNP/DNP, paper §3.2).

    One stable argsort buckets the batch by owning device — O(B log B)
    instead of the D boolean-mask passes (O(B·D)) — and stability keeps
    each device's seeds in their original batch order, so the output is
    identical to the per-device masking it replaces.
    """
    gb = np.asarray(global_batch, dtype=np.int64)
    owner = parts[gb]
    order = np.argsort(owner, kind="stable")
    bounds = np.searchsorted(owner[order], np.arange(num_devices + 1))
    sorted_gb = gb[order]
    out: List[Optional[np.ndarray]] = []
    for d in range(num_devices):
        mine = sorted_gb[bounds[d] : bounds[d + 1]]
        out.append(mine if mine.size else None)
    return out


def sample_batches(
    ctx: ExecutionContext,
    seeds_per_device: List[Optional[np.ndarray]],
    epoch: int,
) -> List[Optional[MiniBatch]]:
    """Sample per-device minibatches, charging simulated sampling time.

    The host-side sampling work dispatches through the context's execution
    backend (inline + :class:`~repro.sampling.cache.SampleCache` under the
    serial backend, shared-memory worker pool under the process backend);
    every backend returns bit-identical batches, and the simulated charges
    below always run on the main process, so timelines are unaffected by
    where (or how far ahead) the sampling actually happened.
    """
    batches = resolve_backend(ctx).sample_device_chunks(
        ctx, seeds_per_device, epoch
    )
    charge_sampling(ctx, batches)
    return batches


def charge_sampling(
    ctx: ExecutionContext, batches: List[Optional[MiniBatch]]
) -> None:
    """Charge each device the simulated seconds of sampling its minibatch
    (from the batch's edge count — how it was sampled does not matter)."""
    devices = [d for d, mb in enumerate(batches) if mb is not None]
    edges = [batches[d].total_edges() for d in devices]
    if ctx.cpu_sampling:
        ctx.charger.cpu_sampling(devices, edges)
    else:
        ctx.charger.gpu_sampling(devices, edges)
    for d, n in zip(devices, edges):
        ctx.count("sampled_edges", n, device=d, phase="sample")


# ---------------------------------------------------------------------- #
# first-layer routing and load sets
# ---------------------------------------------------------------------- #
@dataclass
class RouteTask:
    """One (requester, server) first-layer routing entry of a batch."""

    requester: int
    server: int
    #: destinations hosted at ``server`` (global ids, in block order)
    vdst: np.ndarray
    #: position of each in the requester's block-0 dst list
    vdst_req_idx: np.ndarray
    #: routed edges: global source ids -> local index into ``vdst``
    edge_src: np.ndarray
    edge_dst: np.ndarray
    #: destinations ``server`` owns (all of them under DNP's key)
    self_mask: np.ndarray


@dataclass
class PairCounts:
    """The sizes of a batch's route tasks, ``[requester, server]`` matrices
    (zero where the pair has no task)."""

    #: routed edges, owner-held self edges included
    edges: np.ndarray
    #: hosted destinations (``RouteTask.vdst``)
    vdst: np.ndarray
    #: destinations the server owns (``RouteTask.self_mask`` set)
    owned: np.ndarray

    def pairs(self) -> List[Tuple[int, int]]:
        """``(requester, server)`` of every task, in task order."""
        r, p = np.nonzero(self.vdst)
        return list(zip(r.tolist(), p.tolist()))

    def pattern(self) -> np.ndarray:
        """Ones wherever a task routes a batch's edges (a message pattern
        for :meth:`VolumeRecorder.record_message_pattern`)."""
        return (self.vdst > 0).astype(np.float64)


@dataclass
class _Routed:
    """One requester's routing, kept to materialize its tasks on demand."""

    block: Block
    #: global source of every block-0 edge, and the server it is keyed to
    src_g: np.ndarray
    edge_server: np.ndarray
    #: owner of every destination
    dst_owner: np.ndarray
    #: ``[server, v]``: destination ``v`` has an edge keyed to the server
    #: or is owned by it
    hosted: np.ndarray


class RoutePlan:
    """A batch's first-layer plan: each device's feature-load set (``None``:
    the device reads nothing) and their tier split from the load-set stage
    (:func:`record_loads`; ``splits[d]`` is device ``d``'s row), the routed
    tasks (none under GDP) and their sizes.

    The router records sizes only (:attr:`counts`, :meth:`source_counts`)
    and builds the per-pair ``RouteTask`` arrays on the first read of
    :attr:`tasks`, which the dry-run and timing-only paths of GraphSAGE
    and GCN never do.  A plan given an explicit task list derives its
    sizes from the tasks.
    """

    def __init__(
        self,
        load_nodes: List[Optional[np.ndarray]],
        splits: LoadSplit,
        tasks: Optional[List[RouteTask]] = None,
        *,
        counts: Optional[PairCounts] = None,
        routed: Optional[List[Optional[_Routed]]] = None,
        self_as_edge: bool = False,
    ):
        if tasks is None and routed is None:
            tasks = []
        self.load_nodes = load_nodes
        self.splits = splits
        self._tasks = tasks
        self._counts = counts
        self._routed = routed
        self._self_as_edge = self_as_edge
        self._sources: Optional[np.ndarray] = None

    @property
    def tasks(self) -> List[RouteTask]:
        """One task per (requester, server) pair that hosts anything, in
        (requester, server) order."""
        if self._tasks is None:
            self._tasks = self._materialize()
        return self._tasks

    @property
    def counts(self) -> PairCounts:
        """Every task's edge, destination and owned-destination count."""
        if self._counts is not None:
            return self._counts
        C = len(self.load_nodes)
        edges, vdst, owned = (np.zeros((C, C), dtype=np.int64) for _ in range(3))
        for t in self.tasks:
            edges[t.requester, t.server] = t.edge_src.size
            vdst[t.requester, t.server] = t.vdst.size
            owned[t.requester, t.server] = np.count_nonzero(t.self_mask)
        return PairCounts(edges=edges, vdst=vdst, owned=owned)

    def source_counts(self, num_nodes: int) -> np.ndarray:
        """``[requester, server]``: distinct ids among each task's sources
        and destinations (its sub-block's ``num_src``)."""
        C = len(self.load_nodes)
        if self._routed is None:
            out = np.zeros((C, C), dtype=np.int64)
            for t in self.tasks:
                out[t.requester, t.server] = sorted_unique(
                    np.concatenate([t.edge_src, t.vdst])
                ).size
            return out
        if self._sources is None:
            n = np.int64(num_nodes)
            self._sources = np.zeros((C, C), dtype=np.int64)
            for r, rt in enumerate(self._routed):
                if rt is None:
                    continue
                # One sort per requester over server-keyed ids.
                p, v = np.nonzero(rt.hosted)
                keys = sorted_unique(np.concatenate([
                    rt.edge_server * n + rt.src_g,
                    p * n + rt.block.dst_nodes[v],
                ]))
                self._sources[r] = np.bincount(keys // n, minlength=C)
        return self._sources

    def _materialize(self) -> List[RouteTask]:
        """Build every task's arrays from the retained per-requester
        routing: one stable sort of a requester's edges by server, then
        each server's slice."""
        tasks: List[RouteTask] = []
        C = len(self.load_nodes)
        for r, rt in enumerate(self._routed):
            if rt is None:
                continue
            block = rt.block
            order = np.argsort(rt.edge_server, kind="stable")
            e_ptr = np.concatenate(
                [[0], np.cumsum(np.bincount(rt.edge_server, minlength=C))]
            )
            src_by_server = rt.src_g[order]
            ldst_by_server = block.edge_dst[order]
            inv = np.empty(block.num_dst, dtype=np.int64)
            for p in range(C):
                vdst_l = np.flatnonzero(rt.hosted[p])
                if vdst_l.size == 0:
                    continue
                e_src = src_by_server[e_ptr[p] : e_ptr[p + 1]]
                ldst = ldst_by_server[e_ptr[p] : e_ptr[p + 1]]
                vdst = block.dst_nodes[vdst_l]
                self_mask = rt.dst_owner[vdst_l] == p
                if self._self_as_edge:
                    e_src = np.concatenate([e_src, vdst[self_mask]])
                    ldst = np.concatenate([ldst, vdst_l[self_mask]])
                inv[vdst_l] = np.arange(vdst_l.size, dtype=np.int64)
                tasks.append(RouteTask(
                    requester=r, server=p, vdst=vdst, vdst_req_idx=vdst_l,
                    edge_src=e_src, edge_dst=inv[ldst], self_mask=self_mask,
                ))
        return tasks


def route_first_layer(
    ctx: ExecutionContext,
    batches: List[Optional[MiniBatch]],
    owners: Callable[[int, Block, np.ndarray], Tuple[np.ndarray, np.ndarray]],
    self_as_edge: bool,
) -> RoutePlan:
    """Route every requester's first-layer edges to their servers.

    ``owners(requester, block, src_ids)`` returns the server of every
    block-0 edge (``src_ids`` are its global sources) and the owner of
    every destination.  One task per (requester, server) pair that hosts
    anything: the edges keyed to the server and the destinations it owns,
    plus — if ``self_as_edge`` — an owner-held self edge ``(v, v)`` per
    owned destination.  Records ``N_d``, the virtual nodes, the structure
    shuffle (charged as one alltoall) and each server's load set: the
    sorted union of its tasks' sources and owned destinations.

    The pass counts only — one hosted mask and two ``bincount`` per
    requester, one servers × nodes load mask per batch; the tasks' id
    arrays are built when :attr:`RoutePlan.tasks` is first read.
    """
    C = ctx.num_devices
    counts = PairCounts(*(np.zeros((C, C), dtype=np.int64) for _ in range(3)))
    routed: List[Optional[_Routed]] = []
    load = np.zeros((C, ctx.dataset.num_nodes), dtype=bool)
    for r, mb in enumerate(batches):
        if mb is None:
            routed.append(None)
            continue
        block = mb.blocks[0]
        ctx.recorder.n_dst += block.num_dst
        src_g = block.src_nodes[block.edge_src]
        edge_server, dst_owner = owners(r, block, src_g)
        # hosted[p, v]: block-local destination v has an edge keyed to p or
        # is owned by p — one mask per requester, not one pass per task.
        hosted = np.zeros((C, block.num_dst), dtype=bool)
        hosted[edge_server, block.edge_dst] = True
        hosted[dst_owner, np.arange(block.num_dst)] = True
        per_server = np.bincount(edge_server, minlength=C)
        counts.owned[r] = np.bincount(dst_owner, minlength=C)
        counts.edges[r] = per_server + counts.owned[r] if self_as_edge else per_server
        counts.vdst[r] = np.count_nonzero(hosted, axis=1)
        load[edge_server, src_g] = True
        load[dst_owner, block.dst_nodes] = True
        routed.append(_Routed(block, src_g, edge_server, dst_owner, hosted))

    # A task's structure: its edges (two ids each) and its destinations.
    struct_bytes = ID_BYTES * (2 * counts.edges + counts.vdst)
    np.fill_diagonal(struct_bytes, 0.0)
    ctx.recorder.n_virtual += int(counts.vdst.sum() - np.trace(counts.vdst))
    ctx.comm.alltoall_bytes(struct_bytes, phase="sample")
    for dev in range(C):
        ctx.recorder.record_structure(dev, float(struct_bytes[dev].sum()))
    # Each server's union is its row of the load mask: the same sorted
    # unique ids as unique(concatenate(...)), no sort.
    load_nodes = [
        np.flatnonzero(load[p]) if counts.vdst[:, p].any() else None
        for p in range(C)
    ]
    return RoutePlan(load_nodes, record_loads(ctx, load_nodes), counts=counts,
                     routed=routed, self_as_edge=self_as_edge)


#: telemetry counter of each :data:`TIERS` column
_TIER_COUNTERS = tuple(f"load_rows.{t.value}" for t in TIERS)


def record_loads(
    ctx: ExecutionContext, load_nodes: List[Optional[np.ndarray]]
) -> LoadSplit:
    """The load-set stage of every strategy: split every device's load set
    by the tier it reads each row from, in one pass, and record the row
    matrix (the T_load volumes).  This is the one classification of a
    batch — on a disk-backed store, one observation per device that has a
    load set — so the plan carries the split and :func:`charge_loads`
    charges from it."""
    split = ctx.store.classify(load_nodes)
    ctx.recorder.record_loads(split)
    if ctx.telemetry is not None:
        for d, load in enumerate(split.loads):
            if load is not None:
                ctx.telemetry.count_each(_TIER_COUNTERS, load.rows, device=d, phase="load")
    return split


def charge_loads(ctx: ExecutionContext, split: LoadSplit) -> None:
    """Charge each device the simulated read of its load set, from its
    row of the split its plan's load-set stage made."""
    for d, load in enumerate(split.loads):
        if load is not None:
            ctx.store.charge_load(d, load, ctx.timeline)


def read_load_sets(ctx: ExecutionContext, plan: RoutePlan) -> List[Optional[Tensor]]:
    """Each device's load set, charged (:func:`charge_loads`) and read: the
    rows as a leaf tensor, ``None`` for a device without one and everywhere
    in timing-only mode."""
    charge_loads(ctx, plan.splits)
    return [
        None if nodes is None or not ctx.numerics else Tensor(ctx.store.read(nodes))
        for nodes in plan.load_nodes
    ]


def local_index_of(sorted_ids: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Positions of ``queries`` within a sorted unique id array."""
    idx = np.searchsorted(sorted_ids, queries)
    if idx.size and (
        idx.max() >= sorted_ids.size or not np.array_equal(sorted_ids[idx], queries)
    ):
        raise KeyError("queries contain ids missing from the sorted array")
    return idx


def split_rows(stacked: Tensor, rows: "Rows", device, positions) -> Tensor:
    """Each device's ``segment_sum`` of its tasks' rows of a task-stacked
    first layer, one node laid out as ``rows``: task ``t``'s rows (tasks in
    row order, a device's contiguous) go to ``device[t]`` at
    ``positions[t]`` of its layer-1 destinations, added in task order as
    the per-device sums did.  The first layer's segment-ordered adjoints
    replay ``rows.reached()`` (DESIGN.md §5.18).
    """
    ids = np.concatenate([rows.ptr[d] + pos for d, pos in zip(device, positions)])
    return segment_sum(stacked, SegmentIndex(ids, rows.ptr[-1]))


def ordered_adjoint(
    g: np.ndarray,
    cols: np.ndarray,
    dst_ids: np.ndarray,
    rank: np.ndarray,
    num_rows: int,
) -> np.ndarray:
    """The adjoint of ``gather_segment_sum(z, cols, dst)`` over several
    tasks' edges, as one node per task accumulated it (DESIGN.md §5.18):
    each task's source sums are formed on their own and added per row of
    ``z`` in ascending ``rank`` (each edge's task's; -1: never reached).
    SNP's (server, requester) tasks and NFP's owners both replay it."""
    keep = rank >= 0
    keys = rank[keep] * num_rows + cols[keep]
    pairs = sorted_unique(keys)
    sums = gather_segment_sum(
        Tensor(g), dst_ids[keep],
        SegmentIndex(np.searchsorted(pairs, keys), pairs.size),
    )
    return segment_sum(sums, pairs % num_rows, num_rows).data


# ---------------------------------------------------------------------- #
# stacked layers (DESIGN.md §5.18)
# ---------------------------------------------------------------------- #
def reach_order(devices: List[int]) -> List[int]:
    """The order the backward pass reaches the devices' rows: ascending,
    as the per-device trainer summed the device losses.  The loss and
    every stacked adjoint replay it."""
    return devices


class _Reach:
    """A :class:`Rows`' reach order: its own, the order of the rows its
    stacked tensor feeds (another ``_Reach``), or the arrivals its split
    parts record.  It holds no tensor, so tape closures can keep it
    without a reference cycle."""

    def __init__(self, order: List[int]):
        self.order, self.source = order, None

    def __call__(self) -> List[int]:
        s = self.source
        return self.order if s is None else s if isinstance(s, list) else s()

    def ranks(self, num_devices: int) -> np.ndarray:
        """Each device's position in the reach order (-1: never reached)."""
        arrivals = self()
        rank = np.full(num_devices, -1)
        rank[arrivals] = np.arange(len(arrivals))
        return rank


class Rows:
    """One layer's rows on every device: one stacked tensor (device ``d``'s
    rows at ``ptr[d]:ptr[d + 1]``) or one tensor per device.

    :attr:`tensor` stacks the parts in one node whose parents are listed
    in :attr:`order`, so the tape reaches their producers in that order;
    :attr:`parts` splits a stacked tensor, one node per device (for a
    re-layout gather or a per-device layer).  Stacked adjoints replay
    :attr:`reached`."""

    def __init__(self, counts: List[int], *, parts=None, tensor=None):
        self.ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        #: devices holding rows, ascending
        self.devices = [d for d, n in enumerate(counts) if n]
        #: the same devices in the order the tape will reach them
        self.order = reach_order(self.devices)
        self.reached = _Reach(self.order)
        self._parts = parts
        self._tensor = tensor

    @classmethod
    def from_parts(cls, parts: List[Optional[Tensor]]) -> "Rows":
        return cls([0 if t is None else t.shape[0] for t in parts], parts=parts)

    @classmethod
    def first_layer(cls, batches: List[Optional[MiniBatch]]) -> "Rows":
        return cls([0 if mb is None else mb.blocks[0].num_dst for mb in batches])

    def segments(self) -> List[slice]:
        """Each device's row slice, in :attr:`order`."""
        return [slice(self.ptr[d], self.ptr[d + 1]) for d in self.order]

    @property
    def tensor(self) -> Tensor:
        if self._tensor is None:
            parts, ptr, reached = self._parts, self.ptr, self.reached

            def backward_fn(g: np.ndarray) -> None:
                for d in reached():
                    parts[d]._accumulate(g[ptr[d] : ptr[d + 1]])

            self._tensor = Tensor._make(
                np.concatenate([parts[d].data for d in self.devices]),
                [parts[d] for d in self.order], backward_fn, "stack_rows",
            )
        return self._tensor

    @tensor.setter
    def tensor(self, value: Tensor) -> None:
        self._tensor = value

    @property
    def parts(self) -> List[Optional[Tensor]]:
        if self._parts is None:
            stacked, ptr, arrivals = self._tensor, self.ptr, []
            self.reached.source = arrivals
            self._parts = [None] * (len(ptr) - 1)
            for d in self.devices:
                rows = slice(ptr[d], ptr[d + 1])

                def backward_fn(g, d=d, rows=rows) -> None:
                    if stacked.grad is None:
                        stacked.grad = np.zeros_like(stacked.data)
                    stacked.grad[rows] = g
                    arrivals.append(d)

                self._parts[d] = Tensor._make(
                    stacked.data[rows], (stacked,), backward_fn, "split_rows"
                )
        return self._parts


def layer_step(
    ctx: ExecutionContext,
    layer,
    blocks: List[Optional[Block]],
    x: Optional[Rows],
    intermediate: bool = False,
    src_index: Optional[List[Optional[np.ndarray]]] = None,
) -> Optional[Rows]:
    """One layer over every device's ``(blocks[d], x's rows of d)`` pair,
    charged in one vectorized call (``intermediate``: intermediates
    recorded).  GAT runs per device.  A mean-aggregation layer runs once
    over the block-diagonal batch block (device ``d``'s sources: its rows
    of ``x``, or rows ``src_index[d]`` of ``x.tensor``, GDP's staged
    union): one aggregation, and one ``segment_linear`` with each device's
    own BLAS calls replaying the reach order — one layer forward per
    device, bit for bit (DESIGN.md §5.18).  ``None`` in timing-only mode.
    """
    devices = [d for d, b in enumerate(blocks) if b is not None]
    ctx.charger.dense(devices, [layer.forward_flops(blocks[d]) for d in devices])
    for d in devices if intermediate else ():
        b = blocks[d]
        ctx.recorder.record_intermediate(
            d, ELEMENT_BYTES * (b.num_src * layer.in_dim + b.num_dst * layer.out_dim)
        )
    if not ctx.numerics:
        return None
    if not isinstance(layer, PartialMeanLayer):
        parts = x.parts
        return Rows.from_parts([
            None if b is None else layer.full_forward(b, parts[d])
            for d, b in enumerate(blocks)
        ])
    out = Rows([0 if b is None else b.num_dst for b in blocks])
    self_in_agg = layer.self_loop_in_aggregation
    cols, dst, selfs = [], [], []
    for d in devices:
        b = blocks[d]
        es, ed = extend_with_self_edges(b) if self_in_agg else (b.edge_src, b.edge_dst)
        rows = x.ptr[d] + np.arange(b.num_src) if src_index is None else src_index[d]
        cols.append(rows[es])
        dst.append(ed + out.ptr[d])
        selfs.append(rows[b.dst_in_src])
    h = x.tensor
    agg = gather_segment_mean(h, np.concatenate(cols), SegmentIndex(
        np.concatenate(dst), out.ptr[-1]
    ))
    terms = [(agg, layer.weight)] if self_in_agg else [
        (agg, layer.w_neigh), (h.index_rows(np.concatenate(selfs)), layer.w_self)
    ]
    out.tensor = fused.segment_linear(
        terms, out.ptr, layer.bias, layer._act, out.reached
    )
    # x's stacked tensor feeds out's ops: it is reached in out's order
    x.reached.source = out.reached
    return out
