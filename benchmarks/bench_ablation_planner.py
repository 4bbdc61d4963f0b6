"""Ablation — what the planner's cost-model terms contribute.

DESIGN.md calls out two modelling choices beyond the paper's Eq. 2 terms:

1. the **per-message latency** term in T_shuffle (dominant at small hidden
   dimensions, where volumes are tiny but SNP still exchanges many small
   messages);
2. the **compute-skew** term (this reproduction's extension): SNP/DNP
   inherit first-layer compute imbalance from source/destination
   popularity, which the paper's "T_train is identical" argument ignores.

This benchmark scores planner variants on a selection grid and shows each
term's effect on selection quality.
"""

import numpy as np
import pytest

import common
from repro.core import CostModel, Planner


def build_grid():
    """(dry-run stats, oracle times) for a small selection grid."""
    cases = []
    for name in common.DATASETS:
        ds = common.dataset(name)
        cluster = common.cluster_for(ds)
        parts = common.partition(name, cluster.num_devices)
        for hidden in (8, 128):
            model = common.make_model("sage", ds, hidden=hidden)
            apt = common.build_apt(ds, model, cluster, parts=parts)
            stats = {s: apt.context.dryrun.run(s) for s in common.STRATEGIES}
            actual = apt.compare_all(num_epochs=1, numerics=False)
            cases.append(
                {
                    "label": f"{name} h={hidden}",
                    "cluster": cluster,
                    "feature_dim": ds.feature_dim,
                    "stats": stats,
                    "times": {s: r.epoch_seconds for s, r in actual.items()},
                }
            )
    return cases


def score(cases, *, skew: bool, latency: bool):
    """Selection quality of a planner variant over the grid."""
    hits, ratios = 0, []
    for case in cases:
        cm = CostModel(
            case["cluster"], case["feature_dim"], include_compute_skew=skew
        )
        if not latency:
            cm.profile["msg_latency"] = 0.0
        choice = Planner(cm).select(case["stats"]).chosen
        best = min(case["times"], key=case["times"].get)
        hits += choice == best
        ratios.append(case["times"][choice] / case["times"][best])
    return {
        "optimal_picks": hits,
        "cases": len(cases),
        "mean_ratio": float(np.mean(ratios)),
        "worst_ratio": float(np.max(ratios)),
    }


def run_ablation():
    cases = build_grid()
    variants = {
        "paper_eq2_only": score(cases, skew=False, latency=False),
        "+latency": score(cases, skew=False, latency=True),
        "+latency+skew (full)": score(cases, skew=True, latency=True),
    }
    return variants


def test_ablation_planner(benchmark):
    variants = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    lines = [
        f"{'variant':<24}{'optimal':>9}{'mean ratio':>12}{'worst ratio':>13}"
    ]
    for name, v in variants.items():
        lines.append(
            f"{name:<24}{v['optimal_picks']:>6}/{v['cases']:<2}"
            f"{v['mean_ratio']:>12.3f}{v['worst_ratio']:>13.3f}"
        )
    common.emit("ablation_planner", variants, lines)

    full = variants["+latency+skew (full)"]
    base = variants["paper_eq2_only"]
    # The full model never selects worse than the volume-only model.
    assert full["optimal_picks"] >= base["optimal_picks"]
    assert full["mean_ratio"] <= base["mean_ratio"] + 1e-9
    # And it is near-oracle on this grid.
    assert full["worst_ratio"] < 1.25
