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
    """

    #: Draws for node ``v`` at layer ``k`` of epoch ``e`` depend only on
    #: ``(global_seed, e, k, v)`` — never on the rest of the frontier.  This
    #: is what lets :class:`~repro.sampling.cache.SampleCache` derive a seed
    #: subset's minibatch by *restricting* a cached superset batch instead
    #: of re-sampling.
    per_node_deterministic = True

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

    def _sample_layer(
        self, frontier: np.ndarray, fanout: int, epoch: int, layer: int
    ) -> Block:
        """Sample one layer: ``frontier`` are the destination nodes."""
        frontier = sorted_unique(np.asarray(frontier, dtype=np.int64))
        g = self.graph
        starts = g.indptr[frontier]
        degs = g.indptr[frontier + 1] - starts

        full_mask = degs <= fanout
        # --- low-degree nodes keep their entire neighbor list ----------- #
        full_nodes = frontier[full_mask]
        full_starts = starts[full_mask]
        full_degs = degs[full_mask]
        total_full = int(full_degs.sum())
        if total_full:
            offs = np.cumsum(full_degs) - full_degs
            flat = np.repeat(full_starts - offs, full_degs) + np.arange(total_full)
            full_src = g.indices[flat]
            full_dst = np.repeat(full_nodes, full_degs)
        else:
            full_src = np.empty(0, dtype=np.int64)
            full_dst = np.empty(0, dtype=np.int64)

        # --- high-degree nodes draw `fanout` neighbors hash-based ------- #
        samp_nodes = frontier[~full_mask]
        if samp_nodes.size:
            node_keys = _mix64(
                samp_nodes.astype(np.uint64) ^ self._layer_key(epoch, layer)
            )
            draw_ids = np.arange(1, fanout + 1, dtype=np.uint64)
            # (n, fanout) grid of independent hashes.
            vals = _mix64(node_keys[:, None] + draw_ids[None, :] * _A)
            samp_degs = degs[~full_mask].astype(np.uint64)
            picks = (vals % samp_degs[:, None]).astype(np.int64)
            samp_starts = starts[~full_mask]
            edge_pos = samp_starts[:, None] + picks
            samp_src = g.indices[edge_pos.ravel()]
            samp_dst = np.repeat(samp_nodes, fanout)
            # Drop duplicate (dst, src) draws (sampling with replacement).
            key = samp_dst * np.int64(g.num_nodes) + samp_src
            _, first = np.unique(key, return_index=True)
            first.sort()
            samp_src, samp_dst = samp_src[first], samp_dst[first]
        else:
            samp_src = np.empty(0, dtype=np.int64)
            samp_dst = np.empty(0, dtype=np.int64)

        edge_src = np.concatenate([full_src, samp_src])
        edge_dst = np.concatenate([full_dst, samp_dst])
        # Isolated frontier nodes still need to appear as destinations:
        # give them a degenerate self-edge so downstream shapes line up.
        # Every frontier node thus has an edge: the destinations are the
        # frontier itself.
        isolated = frontier[degs == 0]
        if isolated.size:
            edge_src = np.concatenate([edge_src, isolated])
            edge_dst = np.concatenate([edge_dst, isolated])
        return Block.from_global_edges(edge_src, edge_dst, dst_nodes=frontier)

    # ------------------------------------------------------------------ #
    def sample(self, seeds: np.ndarray, epoch: int = 0) -> MiniBatch:
        """Sample the full layered computation graph for ``seeds``.

        Returns a :class:`MiniBatch` whose ``blocks[0]`` is the input layer.
        """
        seeds = sorted_unique(np.asarray(seeds, dtype=np.int64))
        if seeds.size == 0:
            raise ValueError("cannot sample an empty seed batch")
        blocks: List[Block] = []
        frontier = seeds
        for layer in range(self.num_layers - 1, -1, -1):
            block = self._sample_layer(frontier, self.fanouts[layer], epoch, layer)
            blocks.append(block)
            frontier = block.src_nodes
        blocks.reverse()
        return MiniBatch(seeds=seeds, blocks=blocks)

    def stats(self, batch: MiniBatch) -> SamplerStats:
        """Workload statistics for a sampled batch."""
        return SamplerStats(
            edges_sampled=batch.total_edges(),
            frontier_size=batch.input_nodes.shape[0],
        )
