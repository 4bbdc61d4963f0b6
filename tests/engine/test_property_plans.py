"""Property-based tests on strategy routing invariants.

For random graphs, partitions, and seed sets, every strategy's Permute
stage must conserve the sampled computation graph: each first-layer edge
routed exactly once, each destination produced exactly once, everything
within ownership constraints.  SNP, hyb and DNP share one router with
two keys, so the same checks run over GraphSAGE and GCN (whose self
edges SNP routes to each destination's owner), hyb on two machines, and
every server's load set.  The router counts first: its count matrices
must equal the sizes of the tasks it materializes on read, and the dry-run
and timing-only paths of GraphSAGE and GCN must never read the tasks (nor
a layerwise re-layout's gather positions).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import multi_machine_cluster, single_machine_cluster
from repro.config import APTConfig
from repro.core import APT
from repro.engine import DNPStrategy, HybridGDPSNPStrategy, SNPStrategy
from repro.engine import dnp as dnp_module
from repro.engine import snp as snp_module
from repro.engine.base import RoutePlan, sample_batches
from repro.engine.context import ExecutionContext
from repro.engine.layerwise import GatherSpec
from repro.graph import CSRGraph
from repro.graph.datasets import small_dataset
from repro.graph.partition import random_partition
from repro.models import GCN, GraphSAGE

MODELS = {"sage": GraphSAGE, "gcn": GCN}


def build_case(n, avg_deg, num_devices, seed, model="sage", machines=1):
    rng = np.random.default_rng(seed)
    m = max(int(n * avg_deg / 2), 1)
    graph = CSRGraph.from_edges(
        rng.integers(0, n, m), rng.integers(0, n, m), n
    )
    from repro.graph.datasets import GraphDataset

    feats = rng.normal(size=(n, 8))
    ds = GraphDataset(
        name="prop",
        graph=graph,
        features=feats,
        labels=rng.integers(0, 3, n).astype(np.int64),
        train_seeds=np.sort(rng.choice(n, size=max(n // 5, 4), replace=False)),
        num_classes=3,
    )
    if machines == 1:
        cluster = single_machine_cluster(num_devices, gpu_cache_bytes=0.0)
    else:
        cluster = multi_machine_cluster(machines, num_devices, gpu_cache_bytes=0.0)
    model = MODELS[model](8, 4, 3, 2, seed=0)
    parts = random_partition(n, cluster.num_devices, seed=seed)
    ctx = ExecutionContext.build(
        ds, cluster, model, [3, 3], parts=parts, global_batch_size=64
    )
    return ctx, parts


def assert_load_sets_are_task_unions(plan, num_devices):
    """Each server loads exactly the sorted union of its tasks' sources
    and the destinations it owns (and nothing without a task)."""
    for p in range(num_devices):
        mine = [t for t in plan.tasks if t.server == p]
        if not mine:
            assert plan.load_nodes[p] is None
            continue
        want = np.unique(np.concatenate(
            [t.edge_src for t in mine] + [t.vdst[t.self_mask] for t in mine]
        ))
        np.testing.assert_array_equal(plan.load_nodes[p], want)


def assert_counts_are_task_sizes(plan, num_nodes):
    """The router's counts (read before any task exists) equal the sizes
    of the tasks it materializes, and a plan rebuilt from those tasks
    derives the same counts."""
    routed = (plan.counts, plan.source_counts(num_nodes))
    C = len(plan.load_nodes)
    want = np.zeros((4, C, C), dtype=np.int64)
    for t in plan.tasks:
        want[:, t.requester, t.server] = (
            t.edge_src.size,
            t.vdst.size,
            np.count_nonzero(t.self_mask),
            np.unique(np.concatenate([t.edge_src, t.vdst])).size,
        )
    rebuilt = RoutePlan(plan.load_nodes, plan.splits, plan.tasks)
    for counts, sources in (routed, (rebuilt.counts, rebuilt.source_counts(num_nodes))):
        got = np.stack([counts.edges, counts.vdst, counts.owned, sources])
        np.testing.assert_array_equal(got, want)
        assert counts.pairs() == [(t.requester, t.server) for t in plan.tasks]


def routed_edges(plan, r):
    """Requester ``r``'s routed (server, source, destination) triples."""
    triples = [
        np.stack([np.full(t.edge_src.size, t.server), t.edge_src,
                  t.vdst[t.edge_dst]])
        for t in plan.tasks if t.requester == r
    ]
    return np.unique(np.concatenate(triples, axis=1), axis=1, return_counts=True)


case_params = (
    st.integers(min_value=40, max_value=200),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=2**31 - 1),
)


@given(*case_params, st.sampled_from(sorted(MODELS)), st.sampled_from(["snp", "hyb"]))
@settings(max_examples=40, deadline=None)
def test_snp_plan_invariants(n, num_devices, seed, model, name):
    hyb = name == "hyb"
    ctx, parts = build_case(
        n, 5, num_devices, seed, model=model, machines=2 if hyb else 1
    )
    strategy = HybridGDPSNPStrategy() if hyb else SNPStrategy()
    strategy.prepare(ctx)
    gb = ctx.dataset.train_seeds[:64]
    batches = sample_batches(ctx, strategy.assign_seeds(ctx, gb), 0)
    plan = strategy.plan_batch(ctx, batches)
    assert_counts_are_task_sizes(plan, n)

    sampled_edges = sum(
        mb.blocks[0].num_edges for mb in batches if mb is not None
    )
    if model == "gcn":  # plus one self edge per destination
        sampled_edges += sum(
            mb.blocks[0].num_dst for mb in batches if mb is not None
        )
    routed = sum(t.edge_src.size for t in plan.tasks)
    assert routed == sampled_edges  # every edge exactly once
    for task in plan.tasks:
        # sources owned by the server; vdst indices valid and aligned.
        servers = strategy.server_of_nodes(task.edge_src, task.requester)
        assert np.all(servers == task.server)
        assert task.edge_dst.max(initial=-1) < task.vdst.size
        block = batches[task.requester].blocks[0]
        np.testing.assert_array_equal(
            block.dst_nodes[task.vdst_req_idx], task.vdst
        )
        if hyb:  # hyb never routes across machines
            assert ctx.cluster.machine_of(task.requester) == ctx.cluster.machine_of(task.server)
    # Each sampled edge goes to its source's server; under GCN each
    # destination's self edge goes to its owner, exactly once.
    for r, mb in enumerate(batches):
        if mb is None:
            continue
        block = mb.blocks[0]
        src = block.src_nodes[block.edge_src]
        dst = block.dst_nodes[block.edge_dst]
        if model == "gcn":
            src = np.concatenate([src, block.dst_nodes])
            dst = np.concatenate([dst, block.dst_nodes])
        want = np.stack([strategy.server_of_nodes(src, r), src, dst])
        got_edges, got_counts = routed_edges(plan, r)
        want_edges, want_counts = np.unique(want, axis=1, return_counts=True)
        np.testing.assert_array_equal(got_edges, want_edges)
        np.testing.assert_array_equal(got_counts, want_counts)
    assert_load_sets_are_task_unions(plan, ctx.num_devices)


@given(*case_params, st.sampled_from(sorted(MODELS)))
@settings(max_examples=20, deadline=None)
def test_dnp_plan_invariants(n, num_devices, seed, model):
    ctx, parts = build_case(n, 5, num_devices, seed, model=model)
    strategy = DNPStrategy()
    strategy.prepare(ctx)
    gb = ctx.dataset.train_seeds[:64]
    batches = sample_batches(ctx, strategy.assign_seeds(ctx, gb), 0)
    plan = strategy.plan_batch(ctx, batches)
    assert_counts_are_task_sizes(plan, n)

    # Per requester, every destination appears in exactly one task.
    for r, mb in enumerate(batches):
        if mb is None:
            continue
        seen = np.zeros(mb.blocks[0].num_dst)
        for t in plan.tasks:
            if t.requester == r:
                np.add.at(seen, t.vdst_req_idx, 1)
                assert np.all(parts[t.vdst] == t.server)
        np.testing.assert_array_equal(seen, 1.0)
    # Edge conservation holds too.
    sampled_edges = sum(
        mb.blocks[0].num_edges for mb in batches if mb is not None
    )
    assert sum(t.edge_src.size for t in plan.tasks) == sampled_edges
    assert_load_sets_are_task_unions(plan, ctx.num_devices)


@pytest.mark.parametrize("model", sorted(MODELS))
def test_dry_run_and_timing_only_never_materialize_tasks(model, monkeypatch):
    """What the planner runs reads counts only: a dry-run and a timing-only
    epoch over snp, dnp and hyb route every batch but build no task."""
    routes, materialized = [], []
    for module in (snp_module, dnp_module):
        def counting_router(*args, _route=module.route_first_layer, **kwargs):
            routes.append(1)
            return _route(*args, **kwargs)

        monkeypatch.setattr(module, "route_first_layer", counting_router)
    materialize = RoutePlan._materialize

    def counting_materialize(self):
        materialized.append(1)
        return materialize(self)

    monkeypatch.setattr(RoutePlan, "_materialize", counting_materialize)
    ds = small_dataset(n=800, feature_dim=8, num_classes=3, seed=2)
    cluster = multi_machine_cluster(2, 2, gpu_cache_bytes=ds.feature_bytes * 0.05)
    apt = APT(ds, MODELS[model](8, 4, 3, 2, seed=0), cluster,
              APTConfig(fanouts=(3, 3), global_batch_size=64, seed=0))
    dryrun = apt.prepare().dryrun
    for name in ("snp", "dnp", "hyb"):
        dryrun.run(name)
        apt.run_strategy(name, 1, numerics=False)
    assert routes and not materialized
    apt.run_strategy("dnp", 1)  # the numerics path does read the tasks
    assert materialized


def test_layerwise_dry_run_and_timing_only_never_materialize_gathers(monkeypatch):
    """A re-layout stage charges its byte matrix from per-holder row
    counts: a dry-run and a timing-only epoch over specs with node -> node,
    follower -> node, node -> replicated and final gathers build every
    gather spec but materialize none of their positions."""
    built, materialized = [], []
    init, materialize = GatherSpec.__init__, GatherSpec._materialize

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counting_materialize(self):
        materialized.append(1)
        return materialize(self)

    monkeypatch.setattr(GatherSpec, "__init__", counting_init)
    monkeypatch.setattr(GatherSpec, "_materialize", counting_materialize)
    ds = small_dataset(n=800, feature_dim=8, num_classes=3, seed=2)
    cluster = single_machine_cluster(4, gpu_cache_bytes=ds.feature_bytes * 0.05)
    apt = APT(ds, GraphSAGE(8, 4, 3, 3, seed=0), cluster,
              APTConfig(fanouts=(3, 3, 3), global_batch_size=64, seed=0))
    dryrun = apt.prepare().dryrun
    specs = ("layerwise:gdp,snp,snp", "layerwise:snp,snp,gdp",
             "layerwise:gdp,gdp,snp")
    for name in specs:
        dryrun.run(name)
        apt.run_strategy(name, 1, numerics=False)
    assert built and not materialized
    apt.run_strategy(specs[1], 1)  # the numerics path does read them
    assert materialized


# ---------------------------------------------------------------------- #
# layerwise re-layout: row-holder resolution (DESIGN.md §5.15)
# ---------------------------------------------------------------------- #
def _first_holders_reference(need_ids, holder_ids, target):
    """The per-device ``isin`` loop the sorted :class:`HolderIndex`
    replaced: the target first, then devices in ascending order."""
    holder = np.full(need_ids.size, -1, dtype=np.int64)
    C = len(holder_ids)
    for d in [target] + [d for d in range(C) if d != target]:
        ids = holder_ids[d]
        if ids is None or ids.size == 0:
            continue
        undecided = np.flatnonzero(holder < 0)
        if undecided.size == 0:
            break
        present = np.isin(need_ids[undecided], ids)
        holder[undecided[present]] = d
    if (holder < 0).any():
        raise RuntimeError("no holder covers " + str(need_ids[holder < 0][:5]))
    return holder


_id_sets = st.one_of(
    st.none(),
    st.lists(st.integers(min_value=0, max_value=40), max_size=25, unique=True),
)


@given(st.lists(_id_sets, min_size=1, max_size=6), st.data())
@settings(max_examples=200, deadline=None)
def test_holder_resolution_matches_reference(held, data):
    from repro.engine.layerwise import HolderIndex, _first_holders

    holder_ids = [
        None if h is None else np.sort(np.asarray(h, dtype=np.int64))
        for h in held
    ]
    # Mostly ids somebody holds (several devices may), sometimes a stray
    # one nobody does — the unsourced-row error.
    covered = sorted({i for h in held if h for i in h})
    need = (
        data.draw(st.lists(st.sampled_from(covered), max_size=30))
        if covered
        else []
    )
    need += data.draw(st.lists(st.integers(0, 45), max_size=1))
    need_ids = np.asarray(data.draw(st.permutations(need)), dtype=np.int64)
    target = data.draw(st.integers(min_value=0, max_value=len(held) - 1))
    index = HolderIndex.build(holder_ids)
    try:
        want = _first_holders_reference(need_ids, holder_ids, target)
    except RuntimeError:
        with pytest.raises(RuntimeError, match="no holder covers"):
            _first_holders(need_ids, index, target)
        return
    got = _first_holders(need_ids, index, target)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
