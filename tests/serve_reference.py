"""The serve loop before sampling ahead, frozen: one request batch at a time.

Each batch deduplicated its nodes, assigned its seeds and sampled its
per-device minibatches (one union sample, each device restricted out of
it, through ``sample_device_batches``) inside ``_infer``, right before its
forward pass, and took one argmax per device.  ``ServeEngine.serve`` now
assigns every batch's seeds up front, samples chunks of batches in one
``sample_many`` call (DESIGN.md §5.13) and runs every device's layers and
argmax at once (§5.18); ``tests/serve/test_sample_ahead_pin.py`` requires
it to match this form exactly: responses, latencies, Timeline state,
telemetry counters and cache refreshes.

:func:`reference_serve` runs the frozen loop on a built engine, with the
per-device model of ``tests/first_layer_reference.py`` installed; the
window and report helpers it calls are the engine's own.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest

from repro.engine import base
from repro.sampling.cache import sample_device_batches
from repro.serve.report import Response
from repro.tensor.tensor import no_grad
from tests.first_layer_reference import install_per_device


def reference_infer(engine, nodes: np.ndarray, batch_index: int) -> Dict[int, int]:
    ctx = engine.ctx
    unique_nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    seeds = engine.strategy.assign_seeds(ctx, unique_nodes)
    batches = sample_device_batches(ctx.sampler, seeds, batch_index)
    base.charge_sampling(ctx, batches)
    plan = engine.strategy.plan_batch(ctx, batches, batch_index)
    predictions: Dict[int, int] = {}
    with no_grad():
        h1 = engine.strategy.execute_batch(ctx, plan, batches)
        if engine.hot_cache is not None:
            for mb in batches:
                if mb is not None:
                    engine.hot_cache.observe(mb.input_nodes)
        logits = engine.strategy.upper_forward(ctx, plan, batches, h1)
        for d, mb in enumerate(batches):
            if mb is None or logits[d] is None:
                continue
            preds = logits[d].data.argmax(axis=1)
            for node, pred in zip(mb.blocks[-1].dst_nodes, preds):
                predictions[int(node)] = int(pred)
    return predictions


def reference_serve(engine, requests):
    """``ServeEngine.serve`` with per-batch sampling and the per-device
    model (no up-front checks: the pin serves valid streams only)."""
    with pytest.MonkeyPatch.context() as mp:
        install_per_device(mp)
        return _reference_serve(engine, requests)


def _reference_serve(engine, requests):
    ctx = engine.ctx
    batches = engine.queue.form_batches(requests)
    cfg = engine.config

    responses: List[Response] = []
    service_times: List[float] = []
    latencies: List[float] = []
    replans: List[Dict[str, object]] = []
    window_hits: List[float] = []
    prev_finish = 0.0

    baseline = None
    window_index = 0
    phases_before = ctx.timeline.breakdown()
    rows_before = engine._load_rows_snapshot()

    for index, batch in enumerate(batches):
        predictions = reference_infer(engine, batch.nodes, index)
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
        if engine.collector is not None:
            engine.collector.emit(
                "serve_batch",
                sim_time=finish,
                epoch=index,
                size=batch.size,
                service_s=service,
                queue_wait_s=start - batch.ready_time,
            )

        if (index + 1) % cfg.drift_window == 0:
            baseline, window_index = engine._end_window(
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
            rows_before = engine._load_rows_snapshot()

    return engine._build_report(
        batches=batches,
        responses=responses,
        latencies=latencies,
        service_times=service_times,
        replans=replans,
        window_hits=window_hits,
        sim_seconds=prev_finish,
    )
