"""The DDP-style parallel trainer driving any strategy.

Per global batch:

1. the strategy distributes the seeds over the simulated devices;
2. every seed-holding device samples its blocks (sampling time charged);
3. the strategy plans (Permute/Shuffle) and executes (Execute/Reshuffle)
   the first layer;
4. layers >= 2 run data-parallel on the seed-owning devices, all devices'
   rows as one stacked op set per layer (DESIGN.md §5.18), and one loss
   node weights each device's loss by its share of the *global* batch, so
   the summed loss equals the global-mean cross entropy no matter how the
   strategy grouped the seeds — all strategies apply the same sequence of
   updates (the paper's semantic-equivalence property, Fig. 6), equal to
   the last bits;
5. one backward pass accumulates the global gradient (replicated-parameter
   emulation of DDP), the gradient-allreduce cost is charged, and the
   optimizer steps.

Epoch time is the sum of per-batch maxima over devices (bulk-synchronous
barrier), as in :class:`~repro.cluster.timeline.Timeline`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.timeline import busy_imbalance
from repro.engine.base import Strategy, sample_batches
from repro.engine.context import ExecutionContext
from repro.parallel.backend import resolve_backend
from repro.sampling.batching import EpochIterator
from repro.tensor import functional as F
from repro.tensor.optim import Optimizer
from repro.tensor.tensor import Tensor, no_grad


@dataclass
class EpochResult:
    """Outcome of one simulated training epoch."""

    epoch: int
    mean_loss: float
    wall_seconds: float
    #: the paper's stacked breakdown: sampling / loading / training seconds
    breakdown: Dict[str, float] = field(default_factory=dict)
    num_batches: int = 0
    #: raw four-phase split (sample / load / train / shuffle seconds) — the
    #: drift detector compares these against the cost model's estimates
    phases: Dict[str, float] = field(default_factory=dict)
    #: strategy that executed this epoch (mid-run switches make this vary)
    strategy: str = ""


class ParallelTrainer:
    """Runs epochs of one strategy over an execution context."""

    def __init__(
        self,
        strategy: Strategy,
        ctx: ExecutionContext,
        optimizer: Optional[Optimizer] = None,
    ):
        self.strategy = strategy
        self.ctx = ctx
        self.optimizer = optimizer
        self.report = strategy.prepare(ctx)
        self._iterator = EpochIterator(
            ctx.dataset.train_seeds,
            ctx.global_batch_size,
            shuffle_seed=ctx.shuffle_seed,
        )

    # ------------------------------------------------------------------ #
    def run_global_batch(self, global_batch: np.ndarray, epoch: int) -> float:
        """One synchronized training step; returns the global-mean loss."""
        ctx = self.ctx
        seeds = self.strategy.assign_seeds(ctx, global_batch)
        batches = sample_batches(ctx, seeds, epoch)
        plan = self.strategy.plan_batch(ctx, batches, epoch)

        # Cross-device gather dedup: stage the union of the strategy's
        # per-device row requests once; GDP reads its rows through it.
        # Skipped when a pipelined backend already serves gathers from
        # worker shared memory.
        shared = None
        if ctx.numerics:
            backend = resolve_backend(ctx)
            if not (
                self.strategy.gather_prefetch
                and getattr(backend, "gather_prefetch", False)
            ):
                requests = self.strategy.load_requests(ctx, plan, batches)
                if requests is not None:
                    shared = ctx.store.begin_shared_gather(requests)
        try:
            h1 = self.strategy.execute_batch(ctx, plan, batches)
            logits = self.strategy.upper_forward(ctx, plan, batches, h1)

            loss_value = float("nan")
            if logits is not None:
                # One loss node: each device's loss added in reach order.
                seeds = [batches[d].blocks[-1].dst_nodes for d in logits.devices]
                total_loss = F.cross_entropy(
                    logits.tensor,
                    ctx.dataset.labels[np.concatenate(seeds)],
                    weight_total=float(len(global_batch)),
                    segments=logits.segments(),
                )
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

    def train_epoch(self, epoch: int) -> EpochResult:
        """Run one full epoch; returns loss and timing summary."""
        ctx = self.ctx
        wall_before = ctx.timeline.wall_seconds
        phases_before = ctx.timeline.paper_breakdown()
        raw_before = ctx.timeline.breakdown()
        busy_before = (
            ctx.timeline.device_busy_seconds()
            if ctx.telemetry is not None
            else None
        )
        batch_losses = []
        backend = resolve_backend(ctx)
        # Announcing the epoch's batch schedule lets a pipelined backend
        # sample batch k+1 in workers while batch k trains here.
        batch_list = list(self._iterator.epoch_batches(epoch))
        backend.begin_epoch(self.strategy, ctx, epoch, batch_list)
        try:
            for global_batch in batch_list:
                batch_losses.append(self.run_global_batch(global_batch, epoch))
        finally:
            backend.finish_epoch(ctx)
        if not batch_losses:
            # np.mean([]) would yield NaN plus a RuntimeWarning and poison
            # downstream loss curves silently; fail loudly instead.
            raise ValueError(
                f"epoch {epoch} produced no global batches — the training "
                f"seed set ({self._iterator.seeds.size} seeds) is empty or "
                "the epoch iterator yielded nothing; check train_seeds and "
                "global_batch_size"
            )
        phases_after = ctx.timeline.paper_breakdown()
        raw_after = ctx.timeline.breakdown()
        result = EpochResult(
            epoch=epoch,
            mean_loss=float(np.mean(batch_losses)),
            wall_seconds=ctx.timeline.wall_seconds - wall_before,
            breakdown={
                k: phases_after[k] - phases_before[k] for k in phases_after
            },
            num_batches=len(batch_losses),
            phases={k: raw_after[k] - raw_before[k] for k in raw_after},
            strategy=self.strategy.name,
        )
        if ctx.telemetry is not None:
            ctx.telemetry.emit(
                "epoch",
                sim_time=ctx.timeline.wall_seconds,
                epoch=epoch,
                strategy=self.strategy.name,
                mean_loss=result.mean_loss,
                wall_seconds=result.wall_seconds,
                phases=dict(result.phases),
                num_batches=result.num_batches,
            )
            # Per-device utilization: how evenly did the epoch's work land?
            # Telemetry-only — never touches sim time.
            busy = [
                after - before
                for after, before in zip(
                    ctx.timeline.device_busy_seconds(), busy_before
                )
            ]
            ctx.telemetry.emit(
                "device_imbalance",
                sim_time=ctx.timeline.wall_seconds,
                epoch=epoch,
                busy_seconds=busy,
                **busy_imbalance(busy),
            )
        return result

    def train(self, num_epochs: int) -> List[EpochResult]:
        return [self.train_epoch(e) for e in range(num_epochs)]


def evaluate_accuracy(
    ctx: ExecutionContext,
    seeds: Optional[np.ndarray] = None,
    epoch: int = 10_000,
    batch_size: int = 2048,
) -> float:
    """Sampled-inference test accuracy of the current model (no charging).

    Runs a plain single-device forward over evaluation batches — this is
    how Fig. 6/7's test-accuracy curves are produced.
    """
    ds = ctx.dataset
    if seeds is None:
        seeds = np.arange(ds.num_nodes, dtype=np.int64)
    sampler = ctx.sampler
    correct = 0
    total = 0
    with no_grad():
        for i in range(0, len(seeds), batch_size):
            chunk = np.asarray(seeds[i : i + batch_size], dtype=np.int64)
            if ctx.sample_cache is not None:
                # Repeated evaluations over the same seeds (accuracy curves)
                # reuse the sampled structures; contents are bit-identical.
                # kind="eval" charges a separate budget pool so sweeping the
                # full node set cannot evict the training-epoch entries.
                mb = ctx.sample_cache.sample(sampler, chunk, epoch=epoch, kind="eval")
            else:
                mb = sampler.sample(chunk, epoch=epoch)
            x = Tensor(ds.features[mb.input_nodes])
            logits = ctx.model.forward(mb, x)
            pred = logits.data.argmax(axis=1)
            labels = ds.labels[mb.blocks[-1].dst_nodes]
            correct += int((pred == labels).sum())
            total += labels.size
    return correct / max(total, 1)
