"""Sampling request batches ahead changes no bit of a serving session.

``ServeEngine.serve`` assigns every batch's seeds up front and draws the
(batch, device) seed sets of each chunk of batches in one
``NeighborSampler.sample_many`` call (DESIGN.md §5.13).  Pinned against
the frozen per-batch loop (``tests/serve_reference.py``): responses and
their latencies, the whole report (latency / service percentiles, cache
accounting and refreshes, drift re-plans, telemetry summary), the
Timeline state and every telemetry counter, for gdp / snp / dnp / hyb /
``layerwise:gdp,snp`` under both cache policies, on a stream that crosses
chunk boundaries.
"""

import numpy as np
import pytest

from repro.cluster import multi_machine_cluster
from repro.config import APTConfig, ServeConfig
from repro.core import APT
from repro.models import GraphSAGE
from repro.sampling import NeighborSampler
from repro.serve import LoadGenerator, ServeEngine
from repro.serve import engine as engine_module

from tests.serve_reference import reference_serve

STRATEGIES = ("gdp", "snp", "dnp", "hyb", "layerwise:gdp,snp")


def build_engine(dataset, strategy, policy):
    model = GraphSAGE(dataset.feature_dim, 8, dataset.num_classes, 2, seed=1)
    cluster = multi_machine_cluster(
        2, 2, gpu_cache_bytes=dataset.feature_bytes * 0.06
    )
    apt = APT(
        dataset, model, cluster,
        APTConfig(fanouts=(4, 4), global_batch_size=256, seed=0),
    )
    return ServeEngine(
        apt,
        config=ServeConfig(
            max_batch_size=8,
            max_wait_s=0.002,
            cache_policy=policy,
            drift_window=3,
            drift_threshold=0.05,
        ),
        strategy=strategy,
    )


def drifting_stream(dataset, n):
    return LoadGenerator(
        dataset.num_nodes, seed=3, rate=2000.0, zipf_a=1.3,
        drift_every=0.03, drift_shift=400,
    ).generate(n)


def assert_sessions_identical(got, want, engine, ref_engine):
    assert got.responses == want.responses  # ids, nodes, predictions, latencies
    assert got.to_dict() == want.to_dict()
    state = engine.ctx.timeline.state_dict()
    ref_state = ref_engine.ctx.timeline.state_dict()
    assert state.keys() == ref_state.keys()
    for key in state:
        if key == "trace_batches":
            assert len(state[key]) == len(ref_state[key])
            for (s0, d0), (s1, d1) in zip(state[key], ref_state[key]):
                assert s0 == s1 and np.array_equal(d0, d1)
        else:
            assert np.array_equal(state[key], ref_state[key]), key
    assert engine.collector.counters == ref_engine.collector.counters


def count_sample_many(monkeypatch):
    calls = []
    real = NeighborSampler.sample_many

    def counting(self, seed_sets, epochs):
        sizes = [len(s) for s in seed_sets]
        calls.append((sum(sizes), list(zip(epochs, sizes))))
        return real(self, seed_sets, epochs)

    monkeypatch.setattr(NeighborSampler, "sample_many", counting)
    return calls


@pytest.mark.parametrize("policy", ["static", "adaptive"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sample_ahead_matches_per_batch_serving(
    tiny_dataset, strategy, policy, monkeypatch
):
    # A small chunk so a short stream crosses many chunk boundaries.
    monkeypatch.setattr(engine_module, "SAMPLE_AHEAD_SEEDS", 24)
    requests = drifting_stream(tiny_dataset, 120)
    ref_engine = build_engine(tiny_dataset, strategy, policy)
    want = reference_serve(ref_engine, list(requests))
    engine = build_engine(tiny_dataset, strategy, policy)
    calls = count_sample_many(monkeypatch)
    got = engine.serve(list(requests))
    assert len(calls) >= 3
    assert_sessions_identical(got, want, engine, ref_engine)
    if policy == "adaptive":
        assert got.cache["refreshes"] >= 1  # the re-keying was exercised


def test_default_chunk_crosses_a_boundary_bit_for_bit(tiny_dataset, monkeypatch):
    """The shipped chunk size, on a stream holding more seeds than one
    chunk: at least two ``sample_many`` calls, the session unchanged."""
    requests = drifting_stream(tiny_dataset, 900)
    ref_engine = build_engine(tiny_dataset, "snp", "adaptive")
    want = reference_serve(ref_engine, list(requests))
    engine = build_engine(tiny_dataset, "snp", "adaptive")
    calls = count_sample_many(monkeypatch)
    got = engine.serve(list(requests))
    assert len(calls) >= 2
    assert all(seeds <= engine_module.SAMPLE_AHEAD_SEEDS for seeds, _ in calls)
    assert_sessions_identical(got, want, engine, ref_engine)


def test_chunks_are_consecutive_batches_under_the_seed_bound(
    tiny_dataset, monkeypatch
):
    """Every batch is sampled in exactly one call, as its own epoch; calls
    take consecutive batches, hold at most the bound (or a single batch),
    and each ends only where the next batch would overflow it."""
    bound = 10
    monkeypatch.setattr(engine_module, "SAMPLE_AHEAD_SEEDS", bound)
    engine = build_engine(tiny_dataset, "dnp", "static")
    calls = count_sample_many(monkeypatch)
    report = engine.serve(list(drifting_stream(tiny_dataset, 96)))
    batch_seeds = {}
    for _, groups in calls:
        for epoch, size in groups:
            batch_seeds[epoch] = batch_seeds.get(epoch, 0) + size
    ranges = [sorted({e for e, _ in groups}) for _, groups in calls]
    assert [e for r in ranges for e in r] == list(range(report.num_batches))
    for (seeds, _), r in zip(calls, ranges):
        assert r == list(range(r[0], r[-1] + 1))
        assert seeds <= bound or len(r) == 1
    for (seeds, _), r_next in zip(calls, ranges[1:]):
        assert seeds + batch_seeds[r_next[0]] > bound
    assert len(calls) > 2
