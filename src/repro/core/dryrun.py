"""The APT dry-run (paper §3.2, "Plan" step of §4.1).

The dry-run executes, per strategy, one epoch of *sampling and routing
only*: seeds are distributed, subgraphs sampled, and the strategy's
``plan_batch`` computes where every edge/node/partial would travel —
charging simulated T_build time and recording every communication volume —
while **feature loading, hidden-embedding shuffling, and model computation
are skipped entirely** (the three reasons the paper gives for the dry-run
being cheap).

This module also holds the node-access-frequency census that drives the
§3.2 cache policies: how often each node appears as a first-layer source
(i.e. how often its feature would be loaded).  ``APT.access_freq`` counts
it once per task, when the first dry-run builds its context.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.engine import make_strategy
from repro.engine.base import sample_batches
from repro.engine.context import VolumeRecorder
from repro.graph.datasets import GraphDataset
from repro.sampling.batching import EpochIterator
from repro.sampling.cache import SampleCache
from repro.sampling.neighbor import NeighborSampler

if TYPE_CHECKING:
    from repro.core.apt import PlanContext


def access_frequency_census(
    dataset: GraphDataset,
    fanouts,
    global_batch_size: int,
    *,
    sampler_seed: int = 0,
    shuffle_seed: int = 0,
    epoch: int = 0,
    sample_cache: Optional[SampleCache] = None,
) -> np.ndarray:
    """Count how often each node's feature would be loaded in one epoch.

    Following the paper ("how many times they appear in the sampled
    subgraphs"), a source node is counted once per first-layer destination
    it was sampled for — i.e. with multiplicity across the per-seed
    subgraphs, not merely once per batch.  This is the signal the §3.2
    cache policies rank by, and what paper Table 3 tabulates.  The paper
    observes that one epoch suffices (94.77% top-1% overlap across epochs
    on PS); :mod:`tests.core.test_dryrun` re-checks that stability.

    With a ``sample_cache``, the whole-batch blocks the census walks are
    memoized, and the per-strategy dry-runs that follow derive their
    per-device batches from them by restriction instead of re-sampling —
    the census itself is then the *only* sampling pass of the Plan step.
    """
    sampler = NeighborSampler(dataset.graph, fanouts, global_seed=sampler_seed)
    freq = np.zeros(dataset.num_nodes, dtype=np.int64)
    n = dataset.num_nodes
    iterator = EpochIterator(dataset.train_seeds, global_batch_size, shuffle_seed)
    for batch in iterator.epoch_batches(epoch):
        if sample_cache is not None:
            mb = sample_cache.sample(sampler, batch, epoch=epoch)
        else:
            mb = sampler.sample(batch, epoch=epoch)
        block = mb.blocks[0]
        freq += np.bincount(block.src_nodes[block.edge_src], minlength=n)
        # Destinations read their own feature too (self term / self edge).
        freq += np.bincount(block.dst_nodes, minlength=n)
    return freq.astype(np.float64)


@dataclass
class DryRunStats:
    """Everything the cost model needs about one strategy's dry-run."""

    strategy: str
    recorder: VolumeRecorder
    #: simulated seconds of sampling + computation-graph shuffling (T_build)
    t_build: float
    #: feature row width each device reads (1.0, or 1/C for NFP)
    dim_fraction: float
    num_batches: int


class DryRun:
    """Per-strategy dry-runs under one :class:`~repro.core.apt.PlanContext`.

    A dry-run owns only its memos: every context it walks comes from the
    plan context's :meth:`~repro.core.apt.PlanContext.execution_context`
    (the task's sample cache, census, partition and ``cpu_sampling``), so
    it samples and charges T_build exactly as the run it prices does.
    """

    def __init__(self, context: "PlanContext"):
        # The plan context holds this dry-run: a strong reference back
        # would make every context a reference cycle.
        self._context = weakref.ref(context)
        #: ``run`` is a pure function of the plan context, so each
        #: ``(strategy, epoch)`` is dry-run once and its stats handed to
        #: every later caller (callers only read them)
        self._stats: Dict[Tuple[str, int], DryRunStats] = {}
        #: node-layout blocks of the layerwise candidates, shared by every
        #: spec this dry-run sweeps (see ``LayerwiseStrategy._owner_blocks``)
        self._regrouped: Dict[tuple, list] = {}

    # ------------------------------------------------------------------ #
    def run(self, strategy_name: str, epoch: int = 0) -> DryRunStats:
        """Plan-only epoch for one strategy (executed once, then shared)."""
        key = (strategy_name, int(epoch))
        stats = self._stats.get(key)
        if stats is None:
            stats = self._stats[key] = self._execute(*key)
        return stats

    def _execute(self, strategy_name: str, epoch: int) -> DryRunStats:
        context = self._context()
        if context is None:
            raise RuntimeError(
                "the PlanContext that owns this DryRun was dropped: keep the "
                "APT alive (in a variable) and reach the dry-run through "
                "apt.context.dryrun"
            )
        strategy = make_strategy(strategy_name)
        ctx = context.execution_context()
        ctx.regrouped = self._regrouped
        report = strategy.prepare(ctx)
        iterator = EpochIterator(
            ctx.dataset.train_seeds, ctx.global_batch_size, ctx.shuffle_seed
        )
        batches_list = iterator.epoch_batches(epoch)
        for global_batch in batches_list:
            seeds = strategy.assign_seeds(ctx, global_batch)
            batches = sample_batches(ctx, seeds, epoch)
            strategy.plan_batch(ctx, batches, epoch)  # records volumes, charges T_build
            # Upper layers run data-parallel on the seed owner under every
            # strategy, so the per-device share follows the seed assignment
            # — the input the mixed-fleet skew estimate needs.
            for d, mb in enumerate(batches):
                if mb is None:
                    continue
                for layer, block in zip(
                    list(ctx.model.layers)[1:], mb.blocks[1:]
                ):
                    ctx.recorder.record_upper_flops(
                        d, layer.forward_flops(block)
                    )
            ctx.timeline.end_batch()
        ctx.recorder.access_frequency = ctx.access_freq
        return DryRunStats(
            strategy=strategy_name,
            recorder=ctx.recorder,
            t_build=ctx.timeline.phase_seconds("sample"),
            dim_fraction=report.dim_fraction,
            num_batches=len(batches_list),
        )

    def run_all(self, strategies=("gdp", "nfp", "snp", "dnp")) -> Dict[str, DryRunStats]:
        """Dry-run every candidate strategy (the paper's Plan step)."""
        return {name: self.run(name) for name in strategies}
