"""Node-wise neighbor sampling (the paper's default sampling algorithm).

``NeighborSampler`` implements fanout-bounded node-wise sampling (paper
Fig. 2): starting from the seed nodes, each layer samples up to ``fanout``
in-neighbors per frontier node; the next layer's frontier is the union of
the sampled sources.

Sampling uses a vectorized counter-based hash (splitmix64): draw ``j`` for
node ``v`` at layer ``k`` of epoch ``e`` is a pure function of
``(global_seed, e, k, v, j)``.  Nodes with degree at most the fanout take
their full neighbor list; higher-degree nodes draw ``fanout`` neighbors
with replacement and de-duplicate, which matches the sampled-subgraph
semantics the strategies operate on.

One kernel does all of it: :meth:`NeighborSampler.sample_many` samples
several seed sets, each under its own epoch, in one vectorized pass per
layer over every group's frontier rows (the serve engine's sample-ahead,
DESIGN.md §5.13), and :meth:`NeighborSampler.sample` is its one-group
case.  Because every draw is per node, a group's minibatch does not
depend on which call, or which other groups, drew it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.sampling.block import Block, MiniBatch
from repro.utils.ids import sorted_unique

_MASK64 = 0xFFFFFFFFFFFFFFFF
_A = np.uint64(0x9E3779B97F4A7C15)
_B = np.uint64(0xBF58476D1CE4E5B9)
_C = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


def _mix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array (array
    arithmetic wraps modulo 2**64 by itself)."""
    x = x + _A
    x = (x ^ (x >> _S30)) * _B
    x = (x ^ (x >> _S27)) * _C
    return x ^ (x >> _S31)


def _mix64_int(x: int) -> int:
    """:func:`_mix64` of one Python int in ``[0, 2**64)``."""
    x = (x + int(_A)) & _MASK64
    x = ((x ^ (x >> 30)) * int(_B)) & _MASK64
    x = ((x ^ (x >> 27)) * int(_C)) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class SamplerStats:
    """Per-call sampling workload statistics (feed the timeline model)."""

    edges_sampled: int
    frontier_size: int


class NeighborSampler:
    """Fanout-bounded node-wise sampler over a :class:`CSRGraph`.

    Parameters
    ----------
    graph:
        Topology to sample from.
    fanouts:
        One fanout per GNN layer, ordered from the *input* layer to the
        *output* layer (``[10, 10, 10]`` for the paper's default 3-layer
        models; ``fanouts[-1]`` applies to the seeds).
    global_seed:
        Base seed of the counter-based hash.

    Draws for node ``v`` at layer ``k`` of epoch ``e`` depend only on
    ``(global_seed, e, k, v)``, never on the rest of the frontier.  That is
    the sampler's contract: :mod:`repro.sampling.cache` derives a seed
    subset's minibatch by *restricting* a superset batch, and
    :meth:`sample_many` draws many groups at once (DESIGN.md §5.9).
    """

    def __init__(self, graph: CSRGraph, fanouts: Sequence[int], global_seed: int = 0):
        if not fanouts:
            raise ValueError("fanouts must be non-empty")
        for f in fanouts:
            if int(f) != f or (f <= 0 and f != -1):
                raise ValueError(
                    "fanouts must be positive integers (or -1 for "
                    f"full-neighbor layers), got {fanouts}"
                )
        self.graph = graph
        # -1 follows the DGL convention: take the entire neighbor list.
        self.fanouts = [
            graph.num_nodes if f == -1 else int(f) for f in fanouts
        ]
        self.global_seed = int(global_seed)

    # ------------------------------------------------------------------ #
    @property
    def num_layers(self) -> int:
        return len(self.fanouts)

    def _layer_key(self, epoch: int, layer: int) -> np.uint64:
        k = _mix64_int(self.global_seed & _MASK64)
        k = _mix64_int(k ^ int(epoch))
        return np.uint64(_mix64_int(k ^ int(layer)))

    def _layer_keys(self, epochs: Sequence[int], layer: int) -> np.ndarray:
        """:meth:`_layer_key` of each epoch, as one uint64 array."""
        k = np.uint64(_mix64_int(self.global_seed & _MASK64))
        k = _mix64(k ^ np.asarray(epochs, dtype=np.int64).astype(np.uint64))
        return _mix64(k ^ np.uint64(layer))

    def _sample_layers(
        self,
        frontiers: Sequence[np.ndarray],
        fanout: int,
        epochs: Sequence[int],
        layer: int,
    ) -> List[Block]:
        """Sample one layer for several groups in one vectorized pass.

        ``frontiers[i]`` (sorted, unique) are group ``i``'s destination
        nodes, drawn under epoch ``epochs[i]``.  Every draw is a pure
        function of ``(global_seed, epoch, layer, node, draw)``, so each
        group gets exactly the block it would get alone.  Several groups
        are built as one block over group-keyed ids (``i * num_nodes +
        id``) and sliced apart; one group needs no keys.
        """
        g = self.graph
        if len(frontiers) == 1:
            ids = nodes = frontiers[0]
            key = self._layer_key(epochs[0], layer)
            offset = None
        else:
            sizes = [f.size for f in frontiers]
            nodes = np.concatenate(frontiers)
            group = np.repeat(np.arange(len(frontiers), dtype=np.int64), sizes)
            key = self._layer_keys(epochs, layer)[group]
            offset = group * np.int64(g.num_nodes)
            ids = nodes + offset
        starts = g.indptr[nodes]
        degs = g.indptr[nodes + 1] - starts

        full_mask = degs <= fanout
        # --- low-degree nodes keep their entire neighbor list ----------- #
        full_degs = degs[full_mask]
        total_full = int(full_degs.sum())
        if total_full:
            offs = np.cumsum(full_degs) - full_degs
            flat = np.repeat(starts[full_mask] - offs, full_degs)
            flat += np.arange(total_full)
            full_src = g.indices[flat]
            if offset is not None:
                full_src += np.repeat(offset[full_mask], full_degs)
            full_dst = np.repeat(ids[full_mask], full_degs)
        else:
            full_src = full_dst = np.empty(0, dtype=np.int64)

        # --- high-degree nodes draw `fanout` neighbors hash-based ------- #
        samp_mask = ~full_mask
        samp_nodes = nodes[samp_mask]
        if samp_nodes.size:
            row_key = key if offset is None else key[samp_mask]
            node_keys = _mix64(samp_nodes.astype(np.uint64) ^ row_key)
            draw_ids = np.arange(1, fanout + 1, dtype=np.uint64)
            # (n, fanout) grid of independent hashes.
            vals = _mix64(node_keys[:, None] + draw_ids[None, :] * _A)
            samp_degs = degs[samp_mask].astype(np.uint64)
            picks = (vals % samp_degs[:, None]).astype(np.int64)
            edge_pos = starts[samp_mask][:, None] + picks
            samp_src = g.indices[edge_pos.ravel()]
            # Drop duplicate draws of a frontier row (sampling with
            # replacement), keeping first draws in draw order.  Keyed by
            # row, not by id: group-keyed ids times num_nodes could overflow.
            row = np.repeat(np.arange(samp_nodes.size, dtype=np.int64), fanout)
            draw_key = row * np.int64(g.num_nodes) + samp_src
            _, first = np.unique(draw_key, return_index=True)
            first.sort()
            samp_src = samp_src[first]
            if offset is not None:
                samp_src += offset[samp_mask][row[first]]
            samp_dst = ids[samp_mask][row[first]]
        else:
            samp_src = samp_dst = np.empty(0, dtype=np.int64)

        edge_src = np.concatenate([full_src, samp_src])
        edge_dst = np.concatenate([full_dst, samp_dst])
        # Isolated frontier nodes still need to appear as destinations:
        # give them a degenerate self-edge so downstream shapes line up.
        # Every frontier node thus has an edge: the destinations are the
        # frontier itself.
        isolated = ids[degs == 0]
        if isolated.size:
            edge_src = np.concatenate([edge_src, isolated])
            edge_dst = np.concatenate([edge_dst, isolated])
        whole = Block.from_global_edges(edge_src, edge_dst, dst_nodes=ids)
        if offset is None:
            return [whole]
        return _slice_groups(whole, frontiers, sizes, g.num_nodes)

    # ------------------------------------------------------------------ #
    def sample_many(
        self, seed_sets: Sequence[np.ndarray], epochs: Sequence[int]
    ) -> List[MiniBatch]:
        """``[sample(seed_sets[i], epochs[i]) for i ...]``, bit for bit, in
        one vectorized pass per layer over every group's frontier."""
        if len(seed_sets) != len(epochs):
            raise ValueError(
                f"{len(seed_sets)} seed sets but {len(epochs)} epochs"
            )
        seeds = [sorted_unique(np.asarray(s, dtype=np.int64)) for s in seed_sets]
        if any(s.size == 0 for s in seeds):
            raise ValueError("cannot sample an empty seed batch")
        if not seeds:
            return []
        per_group: List[List[Block]] = [[] for _ in seeds]
        frontiers = seeds
        for layer in range(self.num_layers - 1, -1, -1):
            blocks = self._sample_layers(
                frontiers, self.fanouts[layer], epochs, layer
            )
            for out, block in zip(per_group, blocks):
                out.append(block)
            frontiers = [block.src_nodes for block in blocks]
        return [
            MiniBatch(seeds=s, blocks=blocks[::-1])
            for s, blocks in zip(seeds, per_group)
        ]

    def sample(self, seeds: np.ndarray, epoch: int = 0) -> MiniBatch:
        """Sample the full layered computation graph for ``seeds``.

        Returns a :class:`MiniBatch` whose ``blocks[0]`` is the input layer.
        """
        return self.sample_many([seeds], [epoch])[0]

    def stats(self, batch: MiniBatch) -> SamplerStats:
        """Workload statistics for a sampled batch."""
        return SamplerStats(
            edges_sampled=batch.total_edges(),
            frontier_size=batch.input_nodes.shape[0],
        )


def _slice_groups(
    whole: Block, frontiers: Sequence[np.ndarray], sizes: List[int], num_nodes: int
) -> List[Block]:
    """Each group's block out of ``whole``, built over group-keyed ids
    (``i * num_nodes + id``): keyed ids sort group by group, so every
    group's sources, destinations and (dst-sorted) edges are one
    contiguous run.  The arrays are shifted back to global ids and local
    positions in one pass each, then sliced (views) per group."""
    groups = np.arange(len(sizes), dtype=np.int64)
    v_ptr = np.cumsum([0] + sizes)
    bounds = np.append(groups, groups.size) * num_nodes
    s_ptr = np.searchsorted(whole.src_nodes, bounds)
    e_ptr = np.searchsorted(whole.edge_dst, v_ptr)
    n_src, n_edges = np.diff(s_ptr), np.diff(e_ptr)
    src_nodes = whole.src_nodes - np.repeat(groups * num_nodes, n_src)
    dst_in_src = whole.dst_in_src - np.repeat(s_ptr[:-1], sizes)
    edge_src = whole.edge_src - np.repeat(s_ptr[:-1], n_edges)
    edge_dst = whole.edge_dst - np.repeat(v_ptr[:-1], n_edges)
    v, s, e = v_ptr.tolist(), s_ptr.tolist(), e_ptr.tolist()
    return [
        Block(
            src_nodes=src_nodes[s[i] : s[i + 1]],
            dst_nodes=frontier,
            dst_in_src=dst_in_src[v[i] : v[i + 1]],
            edge_src=edge_src[e[i] : e[i + 1]],
            edge_dst=edge_dst[e[i] : e[i + 1]],
        )
        for i, frontier in enumerate(frontiers)
    ]
