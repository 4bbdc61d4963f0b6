"""Ablation — what the dry-run access census buys the caches.

The §3.2 cache policies rank nodes by dry-run access frequency.  Related
systems use cheaper static proxies: PaGraph/Quiver cache by in-degree,
and a random cache is the floor.  This ablation runs GDP (the strategy
most sensitive to cache quality) under the three rankings and compares
simulated feature-loading time.
"""

import numpy as np
import pytest

import common
from repro.core import access_frequency_census
from repro.utils.random import rng_from


def run_with_ranking(name, ranking):
    ds = common.dataset(name)
    cluster = common.cluster_for(ds)
    model = common.make_model("sage", ds, hidden=32)
    apt = common.build_apt(
        ds, model, cluster, parts=common.partition(name, cluster.num_devices)
    )
    # Override the hotness signal the cache policies consume.
    apt.access_freq = ranking
    result = apt.run_strategy("gdp", 1, numerics=False)
    return result.breakdown["loading"], result.epoch_seconds


def run_ablation():
    records, lines = [], []
    for name in common.DATASETS:
        ds = common.dataset(name)
        census = access_frequency_census(
            ds, [10, 10, 10], 8 * common.BATCH_PER_GPU, sampler_seed=0
        )
        rankings = {
            "dryrun_census": census,
            "in_degree": ds.graph.in_degrees.astype(np.float64),
            "random": rng_from(0xCACE, 1).random(ds.num_nodes),
        }
        row = {"dataset": name, "loading": {}, "epoch": {}}
        for policy, ranking in rankings.items():
            load, epoch = run_with_ranking(name, ranking)
            row["loading"][policy] = load
            row["epoch"][policy] = epoch
        records.append(row)
        lines.append(
            f"{name:<4} load-time " + " ".join(
                f"{p}={row['loading'][p] * 1e3:7.3f}ms" for p in rankings
            )
        )
    return records, lines


def test_ablation_cache_policy(benchmark):
    records, lines = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    common.emit("ablation_cache_policy", {"records": records}, lines)

    for row in records:
        load = row["loading"]
        # The dry-run census is at least as good as the degree proxy, and
        # both clearly beat a random cache.
        assert load["dryrun_census"] <= load["in_degree"] * 1.02, row["dataset"]
        assert load["dryrun_census"] < load["random"], row["dataset"]
    # On the skewed graph the census cache must be dramatically better
    # than random (its hot set absorbs ~70% of accesses).
    ps = next(r for r in records if r["dataset"] == "ps")
    assert ps["loading"]["dryrun_census"] < 0.8 * ps["loading"]["random"]
