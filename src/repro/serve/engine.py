"""Latency-oriented online inference over a trained APT checkpoint.

:class:`ServeEngine` reuses the training engine end to end — the same
:class:`~repro.sampling.neighbor.NeighborSampler`, the same
:class:`~repro.featurestore.store.UnifiedFeatureStore` tiers and charging,
and the same strategy ``assign_seeds → plan_batch → execute_batch`` path —
but drives it per *request batch* instead of per training epoch, forward
only, under :func:`~repro.tensor.tensor.no_grad`.

Serving is a discrete-event simulation over a seeded request stream:

1. the :class:`~repro.serve.queue.RequestQueue` partitions the stream into
   dynamic batches (each with a deterministic ``ready_time``);
2. each batch's *service time* is the simulated seconds the inference
   charges on the :class:`~repro.cluster.timeline.Timeline` (sampling +
   feature loads + forward compute + hidden shuffles, bulk-synchronous
   across devices);
3. batches execute in order on the single serving replica: ``start =
   max(ready_time, previous finish)``, and a request's end-to-end latency
   is ``finish - arrival`` (queue wait + service).

Request batches are sampled ahead, outside the sample cache: the seeds of
every batch are assigned up front (batches are a pure function of the
stream, and serving never switches strategy), then every (batch, device)
seed set of a chunk of consecutive batches — at most
``SAMPLE_AHEAD_SEEDS`` seeds — is drawn in one
:meth:`~repro.sampling.neighbor.NeighborSampler.sample_many` pass.  The
batch index is each batch's sampling epoch, so no two batches share a
scope and a cache lookup could never hit; the sampler's per-node
determinism (its contract, DESIGN.md §5.9) makes every minibatch
bit-identical to sampling its batch alone.
Under the ``"adaptive"`` cache policy a
:class:`~repro.serve.cache.HotnessCache` watches the served feature reads
and — when the serve-side :class:`~repro.obs.drift.DriftDetector` flags a
window whose load/sample/shuffle seconds drifted from the calibrated
baseline — re-keys the GPU feature tier to the traffic's current hot set.
Re-keying moves rows between tiers but never changes their values, so
predictions are bit-identical across cache policies; only latency moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.config import ServeConfig
from repro.core.checkpoint import Checkpoint, CheckpointManager
from repro.engine import make_strategy
from repro.engine.base import charge_sampling
from repro.obs.drift import DriftDetector
from repro.obs.telemetry import TelemetryCollector
from repro.sampling.block import MiniBatch
from repro.serve.cache import HotnessCache
from repro.serve.loadgen import Request
from repro.serve.queue import BatchingPolicy, RequestBatch, RequestQueue
from repro.serve.report import (
    Response,
    ServeReport,
    latency_percentiles,
)
from repro.tensor.tensor import no_grad


#: Seeds drawn per ``sample_many`` call when sampling request batches
#: ahead (DESIGN.md §5.13 has the measurement behind the size).
SAMPLE_AHEAD_SEEDS = 512


def _sample_ahead(
    sampler, assigned: Sequence[List[Optional[np.ndarray]]]
) -> Iterator[List[Optional[MiniBatch]]]:
    """Each request batch's per-device minibatches, in batch order.

    ``assigned[i]`` holds batch ``i``'s per-device seed chunks (``None`` or
    empty: no minibatch); batch ``i`` is sampled as epoch ``i``.  Chunks
    of consecutive batches holding at most ``SAMPLE_AHEAD_SEEDS`` seeds
    (always at least one batch) are drawn in one ``sample_many`` call,
    each (batch, device) seed set its own group.
    """
    stop = 0
    while stop < len(assigned):
        start, seeds = stop, 0
        groups: List[np.ndarray] = []
        slots = []
        while stop < len(assigned):
            active = [
                (d, c) for d, c in enumerate(assigned[stop])
                if c is not None and len(c)
            ]
            size = sum(len(c) for _, c in active)
            if stop > start and seeds + size > SAMPLE_AHEAD_SEEDS:
                break
            seeds += size
            groups.extend(c for _, c in active)
            slots.extend((stop, d) for d, _ in active)
            stop += 1
        out = [[None] * len(assigned[i]) for i in range(start, stop)]
        epochs = [index for index, _ in slots]
        for (index, d), mb in zip(slots, sampler.sample_many(groups, epochs)):
            out[index - start][d] = mb
        yield from out


@dataclass
class _WindowBaseline:
    """Calibrated per-window phase seconds the drift detector trusts."""

    t_build: float
    t_load: float
    t_shuffle: float


class ServeEngine:
    """Serves inference requests from a trained APT task.

    Parameters
    ----------
    apt:
        The :class:`~repro.core.apt.APT` task (prepared or preparable).
        Its *current* model weights are served unless ``checkpoint_dir``
        supplies trained ones.
    config:
        A :class:`~repro.config.ServeConfig` (batching + cache policy +
        drift knobs); defaults to ``ServeConfig()``.
    strategy:
        Strategy to serve with.  ``None`` resolves, in order, to the
        checkpoint's running strategy, else to the latency-objective
        planner's choice (``APT.plan(objective="latency")``).
    checkpoint_dir:
        Directory of a checkpointed training run; its latest checkpoint's
        model weights (and strategy, unless overridden) are loaded.
    """

    def __init__(
        self,
        apt,
        *,
        config: Optional[ServeConfig] = None,
        strategy: Optional[str] = None,
        checkpoint_dir: Optional[str] = None,
    ):
        self.apt = apt
        self.config = (config if config is not None else ServeConfig()).validate()
        apt.config.validate()

        self.checkpoint: Optional[Checkpoint] = None
        if checkpoint_dir is not None:
            self.checkpoint = CheckpointManager(checkpoint_dir).load()
            apt.model.load_state_dict(self.checkpoint.state["model"])
            if strategy is None:
                strategy = str(self.checkpoint.state["current_strategy"])

        self.predicted: Optional[Dict[str, object]] = None
        if strategy is None:
            plan = apt.plan(
                objective="latency",
                batch_size=self.config.max_batch_size,
                max_wait_s=self.config.max_wait_s,
            ).plan
            strategy = plan.chosen
            self.predicted = {
                "objective": plan.objective,
                "chosen": plan.chosen,
                "ranking": list(plan.ranking),
                "estimates": {
                    name: est.as_dict() for name, est in plan.estimates.items()
                },
            }

        self.collector: Optional[TelemetryCollector] = (
            TelemetryCollector() if apt.config.telemetry else None
        )
        self.ctx = apt.context.execution_context(telemetry=self.collector)
        self.strategy = make_strategy(strategy)
        # Census-keyed caches first (the training policy) — the adaptive
        # hotness cache re-keys the same tier once traffic is observed.
        self.strategy_report = self.strategy.prepare(self.ctx)
        self.hot_cache: Optional[HotnessCache] = None
        if self.config.cache_policy == "adaptive":
            self.hot_cache = HotnessCache(
                self.ctx.store,
                apt.dataset.num_nodes,
                apt.dataset.feature_dim,
                self.ctx.num_devices,
                dim_fraction=self.strategy_report.dim_fraction,
            )
        self.queue = RequestQueue(
            BatchingPolicy(
                max_batch_size=self.config.max_batch_size,
                max_wait_s=self.config.max_wait_s,
            )
        )
        self.detector = DriftDetector(threshold=self.config.drift_threshold)

    # ------------------------------------------------------------------ #
    # inference
    # ------------------------------------------------------------------ #
    def _infer(
        self, batches: List[Optional[MiniBatch]], batch_index: int
    ) -> Dict[int, int]:
        """One forward-only strategy step over a request batch's sampled
        per-device minibatches; returns ``{node: prediction}``.

        The simulated time is charged on the context timeline but the
        batch barrier is left open — the caller closes it to obtain the
        service time.  ``batch_index`` is the batch's sampling epoch, which
        a layerwise strategy's regrouped upper blocks need to reproduce
        the per-node-deterministic draws exactly.
        """
        ctx = self.ctx
        charge_sampling(ctx, batches)
        plan = self.strategy.plan_batch(ctx, batches, batch_index)
        predictions: Dict[int, int] = {}
        with no_grad():
            h1 = self.strategy.execute_batch(ctx, plan, batches)
            if self.hot_cache is not None:
                for mb in batches:
                    if mb is not None:
                        self.hot_cache.observe(mb.input_nodes)
            logits = self.strategy.upper_forward(ctx, plan, batches, h1)
            if logits is not None:
                nodes = [batches[d].blocks[-1].dst_nodes for d in logits.devices]
                predictions = dict(zip(
                    np.concatenate(nodes).tolist(),
                    logits.tensor.data.argmax(axis=1).tolist(),
                ))
        return predictions

    # ------------------------------------------------------------------ #
    # the serving loop
    # ------------------------------------------------------------------ #
    def _load_rows_snapshot(self) -> np.ndarray:
        return self.ctx.recorder.load_rows.copy()

    def serve(self, requests: Sequence[Request]) -> ServeReport:
        """Answer a request stream; returns the session's ServeReport.

        Raises ``ValueError`` naming the first request whose node id lies
        outside ``[0, num_nodes)``; nothing is served then.
        """
        num_nodes = self.apt.dataset.num_nodes
        for req in requests:
            if not 0 <= req.node < num_nodes:
                raise ValueError(
                    f"request {req.request_id}: node {req.node} is not in "
                    f"[0, {num_nodes})"
                )
        ctx = self.ctx
        batches = self.queue.form_batches(requests)
        cfg = self.config

        responses: List[Response] = []
        service_times: List[float] = []
        latencies: List[float] = []
        replans: List[Dict[str, object]] = []
        window_hits: List[float] = []
        prev_finish = 0.0

        baseline: Optional[_WindowBaseline] = None
        window_index = 0
        phases_before = ctx.timeline.breakdown()
        rows_before = self._load_rows_snapshot()

        # Duplicate requests for the same node within a batch share one
        # seed (inference is read-only, so the answer is identical).  Plain
        # np.unique kept on purpose (DESIGN.md §5.9): a request batch holds
        # 1-8 ids (mean 4), where it takes 4.9 us per batch against 9.0 us
        # for utils.ids.sorted_unique (serve workload stream, 499 batches,
        # best of 7, 2-vCPU Xeon host).
        assigned = [
            self.strategy.assign_seeds(
                ctx, np.unique(np.asarray(batch.nodes, dtype=np.int64))
            )
            for batch in batches
        ]
        sampled = _sample_ahead(ctx.sampler, assigned)
        for index, (batch, minibatches) in enumerate(zip(batches, sampled)):
            predictions = self._infer(minibatches, index)
            service = ctx.timeline.end_batch()
            start = max(batch.ready_time, prev_finish)
            finish = start + service
            prev_finish = finish
            service_times.append(service)
            for req in batch.requests:
                latency = finish - req.arrival
                latencies.append(latency)
                responses.append(
                    Response(
                        request_id=req.request_id,
                        node=req.node,
                        prediction=predictions[req.node],
                        latency_s=latency,
                    )
                )
            ctx.count("serve.requests", batch.size, phase="serve")
            ctx.count("serve.batches", 1.0, phase="serve")
            if self.collector is not None:
                self.collector.emit(
                    "serve_batch",
                    sim_time=finish,
                    epoch=index,
                    size=batch.size,
                    service_s=service,
                    queue_wait_s=start - batch.ready_time,
                )

            if (index + 1) % cfg.drift_window == 0:
                baseline, window_index = self._end_window(
                    batch_index=index,
                    window_index=window_index,
                    baseline=baseline,
                    phases_before=phases_before,
                    rows_before=rows_before,
                    sim_time=finish,
                    replans=replans,
                    window_hits=window_hits,
                )
                phases_before = ctx.timeline.breakdown()
                rows_before = self._load_rows_snapshot()

        return self._build_report(
            batches=batches,
            responses=responses,
            latencies=latencies,
            service_times=service_times,
            replans=replans,
            window_hits=window_hits,
            sim_seconds=prev_finish,
        )

    # ------------------------------------------------------------------ #
    def _end_window(
        self,
        *,
        batch_index: int,
        window_index: int,
        baseline: Optional[_WindowBaseline],
        phases_before: Dict[str, float],
        rows_before,
        sim_time: float,
        replans: List[Dict[str, object]],
        window_hits: List[float],
    ):
        """Close one drift window: hit accounting, detection, re-keying.

        The first full window *calibrates* the baseline instead of
        comparing against one (serving has no dry-run of the request
        stream to estimate from); after an adaptive refresh the baseline
        is dropped so the next window re-calibrates against the re-keyed
        cache.  The ``"static"`` policy does the same accounting but never
        refreshes — it is the fixed baseline the benchmark compares
        against.
        """
        ctx = self.ctx
        phases_now = ctx.timeline.breakdown()
        observed = {
            name: phases_now[name] - phases_before.get(name, 0.0)
            for name in phases_now
        }
        window_hits.append(
            HotnessCache.hit_fraction(ctx.recorder.load_rows - rows_before)
        )

        refreshed = False
        if baseline is None:
            baseline = _WindowBaseline(
                t_build=observed.get("sample", 0.0),
                t_load=observed.get("load", 0.0),
                t_shuffle=observed.get("shuffle", 0.0),
            )
            if self.hot_cache is not None and self.hot_cache.refreshes == 0:
                # Warm-up re-key: adapt the census-keyed training cache to
                # the serving traffic as soon as one window was observed,
                # then drop the (census-era) baseline so the next window
                # calibrates against the re-keyed tiers.
                refreshed = True
        else:
            reading = self.detector.reading(window_index, baseline, observed)
            if reading.exceeded:
                record: Dict[str, object] = {
                    "batch": batch_index,
                    "window": window_index,
                    "drift": reading.max_over,
                    "worst_term": reading.worst_term,
                }
                if self.hot_cache is not None:
                    refreshed = True
                    record["action"] = "cache_refresh"
                else:
                    record["action"] = "observed_only"
                replans.append(record)
                if self.collector is not None:
                    self.collector.emit(
                        "serve_replan",
                        sim_time=sim_time,
                        epoch=batch_index,
                        drift=reading.max_over,
                        worst_term=reading.worst_term,
                        action=record["action"],
                    )

        if refreshed:
            hot_size = self.hot_cache.refresh()
            baseline = None
            if replans and replans[-1].get("action") == "cache_refresh":
                replans[-1]["hot_size"] = hot_size
            if self.collector is not None:
                self.collector.emit(
                    "serve_cache",
                    sim_time=sim_time,
                    epoch=batch_index,
                    hot_size=hot_size,
                    refreshes=self.hot_cache.refreshes,
                )
        return baseline, window_index + 1

    # ------------------------------------------------------------------ #
    def _build_report(
        self,
        *,
        batches: List[RequestBatch],
        responses: List[Response],
        latencies: List[float],
        service_times: List[float],
        replans: List[Dict[str, object]],
        window_hits: List[float],
        sim_seconds: float,
    ) -> ServeReport:
        cache: Dict[str, object] = {
            "policy": self.config.cache_policy,
            "hit_fraction": HotnessCache.hit_fraction(
                self.ctx.recorder.load_rows
            ),
            "window_hit_fractions": window_hits,
        }
        if self.hot_cache is not None:
            cache.update(self.hot_cache.to_dict())
        return ServeReport(
            strategy=self.strategy.name,
            queue=self.queue.to_dict(),
            num_requests=len(responses),
            num_batches=len(batches),
            sim_seconds=float(sim_seconds),
            throughput_rps=(
                len(responses) / sim_seconds if sim_seconds > 0 else 0.0
            ),
            latency=latency_percentiles(np.asarray(latencies)),
            service=latency_percentiles(np.asarray(service_times)),
            cache=cache,
            replans=replans,
            predicted=self.predicted,
            telemetry=(
                self.collector.summary() if self.collector is not None else None
            ),
            config=self.config.to_dict(),
            responses_digest=ServeReport.digest_responses(responses),
            responses=responses,
        )
