"""Layer-wise (FastGCN/LADIES-style) sampling.

APT treats graph sampling as a black box: any algorithm that produces
bipartite blocks plugs into the unified engine (paper §4.1 "APT is general
for different graph sampling algorithms").  This module provides the other
major sampling family beside node-wise fanout sampling: *layer-wise*
sampling draws a fixed **budget of nodes per layer** (LADIES-style, from
the union of the frontier's neighborhoods, importance-weighted by degree)
instead of a fixed fanout per node — bounding layer width and avoiding the
neighbor explosion.

Determinism note: node-wise sampling is per-node deterministic, which is
what makes the four strategies *exactly* equivalent under any seed
grouping.  Layer-wise sampling is inherently a per-batch decision (one
budget for the whole layer), so its draws are keyed on the *seed set*
instead: the same set of seeds always yields the same blocks (full
reproducibility, and exact strategy equivalence whenever strategies group
seeds identically, e.g. GDP vs NFP).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.sampling.block import Block, MiniBatch
from repro.utils.ids import sorted_unique
from repro.utils.random import rng_from


class LayerWiseSampler:
    """LADIES-style layer-budget sampler over a :class:`CSRGraph`.

    Parameters
    ----------
    graph:
        Topology to sample from.
    layer_budgets:
        Maximum sampled sources per layer, input layer first (mirrors the
        fanout convention of :class:`~repro.sampling.neighbor.NeighborSampler`).
    global_seed:
        Base seed; draws are keyed on ``(global_seed, epoch, layer,
        seed-set hash)``.
    importance:
        ``"degree"`` (LADIES' squared-norm proxy) or ``"uniform"``.
    """

    #: Draws are keyed on the whole seed *set* (one budget per layer), so a
    #: subset's minibatch cannot be derived from a superset's — the sample
    #: cache may memoize exact repeats but must never restrict.
    per_node_deterministic = False

    def __init__(
        self,
        graph: CSRGraph,
        layer_budgets: Sequence[int],
        global_seed: int = 0,
        importance: str = "degree",
    ):
        if not layer_budgets:
            raise ValueError("layer_budgets must be non-empty")
        for b in layer_budgets:
            if int(b) != b or b <= 0:
                raise ValueError(
                    f"layer budgets must be positive integers, got {layer_budgets}"
                )
        if importance not in ("degree", "uniform"):
            raise ValueError(f"unknown importance scheme {importance!r}")
        self.graph = graph
        self.layer_budgets = [int(b) for b in layer_budgets]
        self.global_seed = int(global_seed)
        self.importance = importance

    @property
    def num_layers(self) -> int:
        return len(self.layer_budgets)

    # ------------------------------------------------------------------ #
    def _rng(self, frontier: np.ndarray, epoch: int, layer: int) -> np.random.Generator:
        """Generator keyed on the (sorted, unique) frontier contents."""
        digest = int(
            np.bitwise_xor.reduce(
                (frontier.astype(np.uint64) + np.uint64(0x9E3779B9))
                * np.uint64(0x85EBCA6B)
            )
            & 0xFFFFFFFF
        )
        return rng_from(self.global_seed, epoch, layer, digest)

    def _candidate_pool(self, frontier: np.ndarray) -> np.ndarray:
        """Union of the frontier's in-neighborhoods (vectorized)."""
        g = self.graph
        starts, stops = g.neighbor_slices(frontier)
        lens = stops - starts
        total = int(lens.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        offsets = np.cumsum(lens) - lens
        flat = np.repeat(starts - offsets, lens) + np.arange(total)
        return sorted_unique(g.indices[flat])

    def _sample_layer(self, frontier: np.ndarray, budget: int, epoch: int, layer: int) -> Block:
        frontier = sorted_unique(np.asarray(frontier, dtype=np.int64))
        pool = self._candidate_pool(frontier)
        if pool.size > budget:
            rng = self._rng(frontier, epoch, layer)
            if self.importance == "degree":
                w = self.graph.in_degrees[pool].astype(np.float64) + 1.0
                p = w / w.sum()
            else:
                p = None
            chosen = np.sort(rng.choice(pool, size=budget, replace=False, p=p))
        else:
            chosen = pool

        # Keep the original edges whose source was chosen.
        g = self.graph
        starts, stops = g.neighbor_slices(frontier)
        lens = stops - starts
        total = int(lens.sum())
        if total:
            offsets = np.cumsum(lens) - lens
            flat = np.repeat(starts - offsets, lens) + np.arange(total)
            all_src = g.indices[flat]
            all_dst = np.repeat(frontier, lens)
            keep = np.isin(all_src, chosen, assume_unique=False)
            edge_src, edge_dst = all_src[keep], all_dst[keep]
        else:
            edge_src = np.empty(0, dtype=np.int64)
            edge_dst = np.empty(0, dtype=np.int64)

        # Destinations left without any sampled source still need output
        # rows: give them a degenerate self-edge (they read their own input).
        covered = np.zeros(frontier.size, dtype=bool)
        covered[np.searchsorted(frontier, sorted_unique(edge_dst))] = True
        uncovered = frontier[~covered]
        if uncovered.size:
            edge_src = np.concatenate([edge_src, uncovered])
            edge_dst = np.concatenate([edge_dst, uncovered])
        return Block.from_global_edges(edge_src, edge_dst)

    # ------------------------------------------------------------------ #
    def sample(self, seeds: np.ndarray, epoch: int = 0) -> MiniBatch:
        """Sample the layered computation graph for one seed batch."""
        seeds = np.asarray(seeds, dtype=np.int64)
        if seeds.size == 0:
            raise ValueError("cannot sample an empty seed batch")
        blocks: List[Block] = []
        frontier = seeds
        for layer in range(self.num_layers - 1, -1, -1):
            block = self._sample_layer(
                frontier, self.layer_budgets[layer], epoch, layer
            )
            blocks.append(block)
            frontier = block.src_nodes
        blocks.reverse()
        return MiniBatch(seeds=sorted_unique(seeds), blocks=blocks)
