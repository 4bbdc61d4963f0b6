"""ServeEngine acceptance pins (ISSUE 6 tentpole + satellites 4/5).

* checkpoint -> serve round-trip for all four strategies;
* serving is deterministic: same checkpoint + same seeded stream =>
  identical response digests, across fresh engine builds;
* cache policy moves latency, never answers: adaptive and static serve
  bit-identical predictions;
* the latency-objective planner ranks strategies exactly by the cost
  model's predicted p99, and seeds the engine when nothing pins one;
* each request batch is sampled once, ahead of its forward pass and
  outside the sample cache;
* request node ids outside the graph are refused up front.
"""

import numpy as np
import pytest

from repro.cluster import single_machine_cluster
from repro.config import APTConfig, ServeConfig
from repro.core import APT
from repro.graph import ps_like
from repro.models import GraphSAGE
from repro.sampling import NeighborSampler
from repro.serve import LoadGenerator, ServeEngine
from repro.serve import engine as engine_module
from repro.serve.loadgen import Request

STRATEGIES = ("gdp", "nfp", "snp", "dnp")


def build_apt(dataset, checkpoint_dir=None, devices=2):
    model = GraphSAGE(dataset.feature_dim, 8, dataset.num_classes, 2, seed=1)
    cluster = single_machine_cluster(
        devices, gpu_cache_bytes=dataset.feature_bytes * 0.06
    )
    cfg = APTConfig(
        fanouts=(4, 4),
        global_batch_size=256,
        seed=0,
        checkpoint_dir=str(checkpoint_dir) if checkpoint_dir else None,
    )
    return APT(dataset, model, cluster, cfg)


def stream(dataset, n=48, seed=5, **kw):
    return LoadGenerator(
        dataset.num_nodes, seed=seed, rate=2000.0, zipf_a=1.5, **kw
    ).generate(n)


@pytest.fixture(scope="module")
def gdp_checkpoint(tmp_path_factory, tiny_dataset):
    ckdir = tmp_path_factory.mktemp("ck") / "gdp"
    apt = build_apt(tiny_dataset, checkpoint_dir=ckdir)
    apt.run_strategy("gdp", 1)
    return str(ckdir)


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_all_strategies_serve_from_checkpoint(
        self, tiny_dataset, tmp_path, strategy
    ):
        ckdir = tmp_path / strategy
        build_apt(tiny_dataset, checkpoint_dir=ckdir).run_strategy(strategy, 1)

        engine = ServeEngine(
            build_apt(tiny_dataset),
            config=ServeConfig(max_batch_size=16, max_wait_s=0.002),
            checkpoint_dir=str(ckdir),
        )
        report = engine.serve(stream(tiny_dataset))
        # The checkpointed strategy answers, no planning involved.
        assert report.strategy == strategy
        assert engine.predicted is None
        assert report.num_requests == 48
        assert report.sim_seconds > 0.0
        assert report.throughput_rps > 0.0
        for r in report.responses:
            assert 0 <= r.prediction < tiny_dataset.num_classes
            assert r.latency_s > 0.0

    def test_checkpoint_weights_are_loaded(self, tiny_dataset, gdp_checkpoint):
        apt = build_apt(tiny_dataset)
        before = {k: v.copy() for k, v in apt.model.state_dict().items()}
        ServeEngine(apt, checkpoint_dir=gdp_checkpoint)
        changed = any(
            not np.allclose(before[k], v)
            for k, v in apt.model.state_dict().items()
        )
        assert changed  # one trained epoch must have moved the weights


class TestDeterminism:
    def test_fresh_engines_same_digest(self, tiny_dataset, gdp_checkpoint):
        cfg = ServeConfig(max_batch_size=16, max_wait_s=0.002)
        reqs = stream(tiny_dataset, n=64, seed=9)
        digests = []
        for _ in range(2):
            engine = ServeEngine(
                build_apt(tiny_dataset),
                config=cfg,
                checkpoint_dir=gdp_checkpoint,
            )
            report = engine.serve(list(reqs))
            digests.append(report.responses_digest)
            assert report.responses_digest == report.digest_responses(
                report.responses
            )
        assert digests[0] == digests[1]

    def test_different_stream_different_digest(
        self, tiny_dataset, gdp_checkpoint
    ):
        def digest(seed):
            engine = ServeEngine(
                build_apt(tiny_dataset), checkpoint_dir=gdp_checkpoint
            )
            return engine.serve(stream(tiny_dataset, seed=seed)).responses_digest

        assert digest(1) != digest(2)


class TestCachePolicy:
    def serve_with(self, tiny_dataset, gdp_checkpoint, policy):
        engine = ServeEngine(
            build_apt(tiny_dataset),
            config=ServeConfig(
                max_batch_size=8,
                max_wait_s=0.002,
                cache_policy=policy,
                drift_window=2,
                drift_threshold=0.05,
            ),
            checkpoint_dir=gdp_checkpoint,
        )
        return engine.serve(
            stream(tiny_dataset, n=96, seed=4, drift_every=0.02, drift_shift=500)
        )

    def test_adaptive_and_static_answers_identical(
        self, tiny_dataset, gdp_checkpoint
    ):
        adaptive = self.serve_with(tiny_dataset, gdp_checkpoint, "adaptive")
        static = self.serve_with(tiny_dataset, gdp_checkpoint, "static")
        # Re-keying moves rows between tiers; it must never change answers.
        assert adaptive.responses_digest == static.responses_digest
        assert adaptive.cache["policy"] == "adaptive"
        assert static.cache["policy"] == "static"

    def test_adaptive_refreshes_under_drift(self, tiny_dataset, gdp_checkpoint):
        report = self.serve_with(tiny_dataset, gdp_checkpoint, "adaptive")
        assert report.cache["refreshes"] >= 1
        assert 0.0 <= report.cache["hit_fraction"] <= 1.0
        assert len(report.cache["window_hit_fractions"]) >= 1

    def test_static_never_refreshes(self, tiny_dataset, gdp_checkpoint):
        report = self.serve_with(tiny_dataset, gdp_checkpoint, "static")
        assert "refreshes" not in report.cache
        assert report.replans == []


class TestLatencyPlanner:
    def test_ranking_matches_cost_model_prediction(self, tiny_dataset):
        apt = build_apt(tiny_dataset)
        report = apt.plan(objective="latency", batch_size=16, max_wait_s=0.002)
        plan = report.plan
        assert plan.objective == "latency"
        est = plan.estimates
        assert set(est) == set(STRATEGIES)
        assert plan.ranking == sorted(est, key=lambda s: est[s].total)
        assert plan.chosen == plan.ranking[0]
        for e in est.values():
            assert e.p50 <= e.p99
            assert e.total == pytest.approx(e.p99)
        assert "p99" in plan.summary()

    def test_unpinned_engine_adopts_the_latency_plan(self, tiny_dataset):
        engine = ServeEngine(
            build_apt(tiny_dataset),
            config=ServeConfig(max_batch_size=16, max_wait_s=0.002),
        )
        assert engine.predicted is not None
        assert engine.predicted["objective"] == "latency"
        report = engine.serve(stream(tiny_dataset, n=16))
        assert report.strategy == engine.predicted["chosen"]
        assert report.predicted == engine.predicted


class TestServeSampling:
    def test_each_request_batch_sampled_once_ahead_outside_the_cache(
        self, tiny_dataset, gdp_checkpoint, monkeypatch
    ):
        apt = build_apt(tiny_dataset)
        engine = ServeEngine(
            apt,
            config=ServeConfig(max_batch_size=16, max_wait_s=0.002),
            checkpoint_dir=gdp_checkpoint,
        )
        cache = apt.sample_cache
        stats, entries = cache.stats.to_dict(), len(cache)
        calls = []
        real = NeighborSampler.sample_many

        def counting(self, seed_sets, epochs):
            calls.append((sum(len(s) for s in seed_sets), sorted(set(epochs))))
            return real(self, seed_sets, epochs)

        # sample() is the one-group case of sample_many: this sees every draw
        monkeypatch.setattr(NeighborSampler, "sample_many", counting)
        report = engine.serve(stream(tiny_dataset, n=64))
        # every batch sampled exactly once, the batch index as its epoch
        sampled = [e for _, epochs in calls for e in epochs]
        assert sampled == list(range(report.num_batches))
        seeds = sum(n for n, _ in calls)
        assert len(calls) <= -(-seeds // engine_module.SAMPLE_AHEAD_SEEDS)
        assert cache.stats.to_dict() == stats and len(cache) == entries


@pytest.fixture(scope="module")
def small_graph():
    return ps_like(500, seed=0)


class TestRequestValidation:
    """Every request node must lie in ``[0, num_nodes)``: before the check,
    gdp answered node -3 from node 497's wrapped neighbourhood, node -1
    failed inside numpy and node 500 inside the sampler, and snp raised a
    KeyError from its routing."""

    @pytest.mark.parametrize(
        "strategy,node",
        [("gdp", -3), ("gdp", -1), ("gdp", 500), ("snp", -3)],
    )
    def test_out_of_range_node_is_refused(self, small_graph, strategy, node):
        engine = ServeEngine(
            build_apt(small_graph, devices=4),
            config=ServeConfig(max_batch_size=8, max_wait_s=0.002),
            strategy=strategy,
        )
        requests = [
            Request(request_id=i, node=n, arrival=0.001 * i)
            for i, n in enumerate([4, 17, node, 250])
        ]
        with pytest.raises(ValueError) as err:
            engine.serve(requests)
        message = str(err.value)
        assert "request 2" in message
        assert f"node {node}" in message
        assert "[0, 500)" in message

    def test_in_range_edges_are_served(self, small_graph):
        engine = ServeEngine(
            build_apt(small_graph, devices=4),
            config=ServeConfig(max_batch_size=8, max_wait_s=0.002),
            strategy="gdp",
        )
        report = engine.serve(
            [Request(request_id=0, node=0, arrival=0.0),
             Request(request_id=1, node=499, arrival=0.0005)]
        )
        assert [r.node for r in report.responses] == [0, 499]
