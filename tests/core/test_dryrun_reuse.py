"""Determinism and sample-once guarantees of dry-run epoch reuse.

With the task's :class:`~repro.sampling.cache.SampleCache`, the Plan
step must (a) run the real sampler exactly once per whole epoch batch —
during the census — and serve every per-strategy, per-device seed chunk by
cache hit or restriction, and (b) produce *bit-identical* plans and
simulated timelines to a cache-less run: the cache is a wall-clock
optimization only.
"""

import numpy as np
import pytest

from repro.cluster import single_machine_cluster
from repro.config import APTConfig
from repro.core import APT, DryRun
from repro.graph.datasets import small_dataset
from repro.graph.partition import metis_like_partition
from repro.models import GraphSAGE
from repro.sampling.batching import EpochIterator
from repro.sampling.neighbor import NeighborSampler

BATCH = 256
FANOUTS = [4, 4]


@pytest.fixture(scope="module")
def ds():
    return small_dataset(n=1200, feature_dim=12, num_classes=3, seed=3)


@pytest.fixture(scope="module")
def task(ds):
    cluster = single_machine_cluster(4, gpu_cache_bytes=ds.feature_bytes * 0.05)
    model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, 2, seed=1)
    parts = metis_like_partition(ds.graph, 4, seed=0)
    return ds, cluster, model, parts


def make_apt(task, *, cache=True):
    """An APT over ``task``; ``cache=False`` builds its contexts without a
    sample cache (the cache-off reference)."""
    ds, cluster, model, parts = task
    config = APTConfig(
        fanouts=tuple(FANOUTS), global_batch_size=BATCH, seed=0,
        partition=parts,
    )
    apt = APT(ds, model, cluster, config)
    if not cache:
        apt.sample_cache = None
    return apt


def test_each_epoch_batch_sampled_exactly_once(task, monkeypatch):
    """Census + all four strategy dry-runs trigger one real sampling pass
    per whole epoch batch; every per-device chunk is derived from it."""
    ds = task[0]
    calls = []
    real_sample = NeighborSampler.sample

    def counting_sample(self, seeds, epoch=0):
        calls.append(np.sort(np.asarray(seeds, dtype=np.int64)))
        return real_sample(self, seeds, epoch=epoch)

    monkeypatch.setattr(NeighborSampler, "sample", counting_sample)

    apt = make_apt(task)
    apt.context.dryrun.run_all()

    whole_batches = EpochIterator(ds.train_seeds, BATCH, 0).epoch_batches(0)
    assert len(calls) == len(whole_batches)
    for got, want in zip(calls, whole_batches):
        assert np.array_equal(got, np.sort(want))

    stats = apt.sample_cache.stats
    assert stats.misses == len(whole_batches)
    # 4 strategies x batches x (up to 4 device chunks), all served from cache
    assert stats.hits + stats.restrictions > 0
    assert stats.requests == stats.misses + stats.hits + stats.restrictions


def test_reuse_off_resamples_every_chunk(task, monkeypatch):
    count = {"n": 0}
    real_sample = NeighborSampler.sample

    def counting_sample(self, seeds, epoch=0):
        count["n"] += 1
        return real_sample(self, seeds, epoch=epoch)

    monkeypatch.setattr(NeighborSampler, "sample", counting_sample)

    apt = make_apt(task, cache=False)
    apt.context.dryrun.run_all()
    ds = task[0]
    num_batches = len(EpochIterator(ds.train_seeds, BATCH, 0).epoch_batches(0))
    # census resamples, and so does every strategy's every device chunk
    assert count["n"] > num_batches


def test_layerwise_sweep_samples_exactly_once(task, monkeypatch):
    """The whole beam-search candidate sweep — singles plus every distinct
    per-layer composition — shares the task's SampleCache, so
    the real sampler still runs exactly once per whole epoch batch (the
    census); regrouped layerwise blocks are derived per-node-
    deterministically and never re-sample either."""
    from repro.core.costmodel import CostModel
    from repro.core.planner import Planner

    ds, cluster, model, parts = task
    calls = []
    real_sample = NeighborSampler.sample

    def counting_sample(self, seeds, epoch=0):
        calls.append(np.sort(np.asarray(seeds, dtype=np.int64)))
        return real_sample(self, seeds, epoch=epoch)

    monkeypatch.setattr(NeighborSampler, "sample", counting_sample)

    apt = make_apt(task)
    report = Planner(CostModel(cluster, ds.feature_dim)).search_layerwise(
        apt.context.dryrun.run, model.num_layers
    )

    whole_batches = EpochIterator(ds.train_seeds, BATCH, 0).epoch_batches(0)
    assert len(calls) == len(whole_batches)
    for got, want in zip(calls, whole_batches):
        assert np.array_equal(got, np.sort(want))
    # the sweep actually evaluated compositions, not just the singles
    assert any(name.startswith("layerwise:") for name in report.ranking)
    assert set(report.ranking) >= {"gdp", "nfp", "snp", "dnp"}


def test_timeline_and_plan_identical_with_and_without_cache(task):
    """The cache must not move a single simulated second or byte."""
    cached, plain = make_apt(task), make_apt(task, cache=False)
    with_cache = cached.context.dryrun.run_all()
    without = plain.context.dryrun.run_all()
    for name in ("gdp", "nfp", "snp", "dnp"):
        a, b = with_cache[name], without[name]
        assert a.t_build == b.t_build  # exact float equality, not approx
        assert a.num_batches == b.num_batches
        assert a.dim_fraction == b.dim_fraction
        ra, rb = a.recorder, b.recorder
        assert np.array_equal(ra.hidden_bytes, rb.hidden_bytes)
        assert np.array_equal(ra.structure_send_bytes, rb.structure_send_bytes)
        assert np.array_equal(ra.shuffle_messages, rb.shuffle_messages)
        assert np.array_equal(ra.peak_intermediate_bytes, rb.peak_intermediate_bytes)
        assert np.array_equal(ra.layer1_flops, rb.layer1_flops)
        assert (ra.n_dst, ra.n_virtual) == (rb.n_dst, rb.n_virtual)
        assert np.array_equal(ra.load_rows, rb.load_rows)


def test_census_identical_with_and_without_cache(task):
    freq_cached = make_apt(task).access_freq
    freq_plain = make_apt(task, cache=False).access_freq
    assert np.array_equal(freq_cached, freq_plain)


# ---------------------------------------------------------------------- #
# planned once: dry-run stats, regrouped blocks and the coarsening
# hierarchy are shared across the planner's calls (DESIGN.md §5.9)
# ---------------------------------------------------------------------- #
def _plan_facts(plan):
    return {
        "chosen": plan.chosen,
        "ranking": plan.ranking,
        "estimates": {n: e.as_dict() for n, e in plan.estimates.items()},
        "relayout_bytes": plan.relayout_bytes,
        "layer_assignments": plan.layer_assignments,
        "pareto": plan.pareto,
        "subsets": plan.subsets,
    }


def _make_apt(ds, layers=3, cluster=None):
    from repro.cluster import multi_machine_cluster
    from repro.config import APTConfig
    from repro.core import APT

    if cluster is None:
        cluster = multi_machine_cluster(
            2, 2, gpu_cache_bytes=ds.feature_bytes * 0.05
        )
    model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, layers, seed=1)
    config = APTConfig(
        fanouts=(4,) * layers, global_batch_size=BATCH, seed=0
    )
    return APT(ds, model, cluster, config)


PLANNER_CALLS = {
    "plan": lambda apt: apt.plan(),
    "plan_layerwise": lambda apt: apt.plan_layerwise(),
    "plan_cost": lambda apt: apt.plan(objective="cost"),
}


def test_planner_calls_in_sequence_equal_each_on_a_fresh_apt(ds):
    """Sharing stats, blocks and the hierarchy between the planner's calls
    moves no estimate, ranking, re-layout byte or subset: each call on a
    warm APT returns exactly what it returns on its own fresh APT."""
    warm = _make_apt(ds)
    in_sequence = {
        name: _plan_facts(call(warm).plan)
        for name, call in PLANNER_CALLS.items()
    }
    assert in_sequence["plan_cost"]["subsets"]  # the subset sweep ran
    assert any(
        n.startswith("layerwise:")
        for n in in_sequence["plan_layerwise"]["ranking"]
    )
    for name, call in PLANNER_CALLS.items():
        assert _plan_facts(call(_make_apt(ds)).plan) == in_sequence[name], name


def test_each_spec_is_dry_run_once_per_dryrun(ds, monkeypatch):
    """``DryRun.run`` is a pure function of its plan context: across
    plan / plan_layerwise / plan(cost) / plan(latency) and the run-start
    estimate, no ``(DryRun, spec, epoch)`` body executes twice."""
    executed = []
    real_execute = DryRun._execute

    def counting_execute(self, spec, epoch):
        executed.append((id(self), spec, epoch))
        return real_execute(self, spec, epoch)

    monkeypatch.setattr(DryRun, "_execute", counting_execute)

    apt = _make_apt(ds)
    for call in PLANNER_CALLS.values():
        call(apt)
    apt.plan(objective="latency")
    apt.plan_report = None  # force the run-start estimate to ask the dry-run
    apt.run_strategy("gdp", 1, numerics=False, replan=True)
    assert len(executed) == len(set(executed))
    on_full_cluster = [e for e in executed if e[0] == id(apt.context.dryrun)]
    assert {spec for _, spec, _ in on_full_cluster} >= {"gdp", "nfp", "snp", "dnp"}
    assert len(on_full_cluster) < len(executed)  # the subset sweep ran too


def test_layerwise_sweep_regroups_each_batch_layer_once(ds, monkeypatch):
    """Node-layout blocks depend on (batch, layer, epoch, partition), not on
    the candidate spec: over a whole beam-search sweep, the regrouped
    groups (frontiers handed to ``_sample_layers`` outside ``sample``)
    number at most batches x node-layout layers x owners — however many
    specs were swept."""
    from repro.core.costmodel import CostModel
    from repro.core.planner import Planner

    layers = 3
    cluster = single_machine_cluster(4, gpu_cache_bytes=ds.feature_bytes * 0.05)
    model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, layers, seed=1)
    parts = metis_like_partition(ds.graph, 4, seed=0)

    depth = {"sample": 0}
    regroups = []
    real_sample = NeighborSampler.sample
    real_layers = NeighborSampler._sample_layers

    def tracking_sample(self, seeds, epoch=0):
        depth["sample"] += 1
        try:
            return real_sample(self, seeds, epoch=epoch)
        finally:
            depth["sample"] -= 1

    def counting_layers(self, frontiers, fanout, epochs, layer):
        if not depth["sample"]:
            regroups.extend([layer] * len(frontiers))
        return real_layers(self, frontiers, fanout, epochs, layer)

    monkeypatch.setattr(NeighborSampler, "sample", tracking_sample)
    monkeypatch.setattr(NeighborSampler, "_sample_layers", counting_layers)

    apt = APT(ds, model, cluster, APTConfig(
        fanouts=(4,) * layers, global_batch_size=BATCH, seed=0,
        partition=parts,
    ))
    report = Planner(CostModel(cluster, ds.feature_dim)).search_layerwise(
        apt.context.dryrun.run, layers
    )
    node_layout_specs = [
        n for n in report.ranking
        if n.startswith("layerwise:") and "snp" in n.split(",")[1:]
    ]
    assert len(node_layout_specs) >= 2  # several specs shared the blocks
    batches = len(EpochIterator(ds.train_seeds, BATCH, 0).epoch_batches(0))
    assert 0 < len(regroups) <= batches * (layers - 1) * cluster.num_devices


def test_coarsening_runs_once_per_graph_and_seed(monkeypatch):
    """prepare() coarsens; the cost planner's device-subset partitions and
    an elastic re-partition reuse that hierarchy instead of matching again."""
    from repro.graph import partition as partition_module
    from repro.graph import ps_like

    big = ps_like(8000, train_fraction=0.02, seed=1)  # coarsens (> 4000 nodes)
    matchings = []
    real_matching = partition_module._heavy_edge_matching

    def counting_matching(level, rng, rounds=5):
        matchings.append(level.num_nodes)
        return real_matching(level, rng, rounds)

    monkeypatch.setattr(
        partition_module, "_heavy_edge_matching", counting_matching
    )
    apt = _make_apt(big, layers=2)
    apt.prepare()
    per_hierarchy = list(matchings)
    assert len(per_hierarchy) >= 2  # one matching per coarsened level
    report = apt.plan(objective="cost")
    assert report.plan.subsets  # device subsets were partitioned and priced
    apt.prepare(apt.cluster.without_machine(1))  # elastic re-partition
    assert matchings == per_hierarchy
    # ... and the reused hierarchy gives the from-scratch partition
    assert np.array_equal(
        apt.context.parts,
        metis_like_partition(big.graph, 2, seed=apt.config.seed),
    )


def test_plan_reports_the_metis_coarsening():
    """Every planner call of a "metis"-mode APT carries the hierarchy's
    level sizes, in its JSON and its text; other modes carry none."""
    from repro.graph import ps_like

    big = ps_like(6000, feature_dim=8, train_fraction=0.02, seed=1)
    apt = _make_apt(big, layers=2)
    for call in PLANNER_CALLS.values():
        report = call(apt)
        summary = apt.hierarchy.summary()
        assert len(summary["levels"]) >= 2  # the graph was coarsened
        assert report.plan.coarsening == summary
        assert report.to_dict()["plan"]["coarsening"] == summary
        line = "coarsening: " + " -> ".join(map(str, summary["levels"]))
        assert line in report.summary()
    apt = _make_apt(big, layers=2)
    apt.config.partition = "random"
    report = apt.plan()
    assert report.plan.coarsening is None
    assert "coarsening" not in report.to_dict()["plan"]
    assert "coarsening:" not in report.summary()


def test_serial_epoch_samples_each_global_batch_once(ds, monkeypatch):
    """On the serial backend a training epoch makes one sampler call per
    global batch — the union of its device chunks — not one per chunk;
    epoch 0's batches are the census's, so it makes none."""
    from repro.config import APTConfig
    from repro.core import APT

    cluster = single_machine_cluster(4, gpu_cache_bytes=ds.feature_bytes * 0.05)
    model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, 2, seed=1)
    apt = APT(ds, model, cluster, APTConfig(
        fanouts=tuple(FANOUTS), global_batch_size=BATCH, seed=0,
        execution_backend="serial",
    ))
    apt.access_freq  # the census: every epoch-0 batch sampled and cached
    calls = []
    real_sample = NeighborSampler.sample

    def counting_sample(self, seeds, epoch=0):
        calls.append(epoch)
        return real_sample(self, seeds, epoch=epoch)

    monkeypatch.setattr(NeighborSampler, "sample", counting_sample)
    apt.run_strategy("dnp", 3)
    num_batches = len(EpochIterator(ds.train_seeds, BATCH, 0).epoch_batches(0))
    assert calls == [1] * num_batches + [2] * num_batches


def test_dropped_owner_raises_one_clear_error(task):
    """A context or dry-run reached through a temporary APT outlives its
    weakly held owner: using it names the mistake, not a ``NoneType``."""
    with pytest.raises(RuntimeError, match="keep the APT alive"):
        make_apt(task).context.dryrun.run_all()
    with pytest.raises(RuntimeError, match="keep the APT alive"):
        make_apt(task).context.execution_context()
