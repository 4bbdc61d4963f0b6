"""Heterogeneity-aware execution — speed-proportional partitioning + $-planning.

The scenario (DESIGN.md §5.17): a 2-tier cluster — one machine of fast,
expensive A100-class GPUs and one of slow, cheap T4s.  Three claims:

1. **Speed-proportional partitioning wins.**  With equal-sized partitions
   the bulk-synchronous barrier waits for the slow tier every batch; with
   partitions proportional to device throughput every device finishes
   together.  Measured epoch time (partition-consuming strategy) must
   improve by at least 1.25x.
2. **The cost model sees heterogeneity.**  The dry-run ranking over the
   four strategies must match the measured epoch-time ranking on the
   heterogeneous cluster.
3. **The (time, $) Pareto planner finds cheaper points.**  Under a time
   budget of 1.5x the time-optimal plan, ``objective="cost"`` (which
   sweeps strategies x device subsets) must pick a plan strictly cheaper
   per epoch than the time-optimal one.

Writes ``BENCH_hetero.json`` at the repository root.

Usage::

    python benchmarks/bench_hetero.py           # full run, update JSON
    python benchmarks/bench_hetero.py --quick   # fewer epochs (CI mode)
    python benchmarks/bench_hetero.py --quick --check  # CI gate
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if "repro" not in sys.modules:
    sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import common

from repro.cluster import parse_cluster_spec
from repro.cluster.spec import LinkSpec
from repro.config import APTConfig, PAPER_CACHE_GB, scaled_gpu_cache_bytes
from repro.core import APT
from repro.graph import metis_like_partition

BASELINE_PATH = REPO_ROOT / "BENCH_hetero.json"

DATASET = "ps"
CLUSTER_SPEC = "1x4:a100,1x4:t4"
#: modern low-latency interconnect (IB/EFA class).  With the default
#: 12.5 GB/s / 30 us NIC the epoch is network-bound and partition shape is
#: irrelevant; the heterogeneity claim is about the *compute* barrier, so
#: the scenario uses a fabric fast enough that compute dominates.
NETWORK = LinkSpec(bandwidth=100e9, latency=2e-6)
HIDDEN = 1024
FANOUTS = (20, 20, 20)
BATCH_PER_GPU = 1024
#: the partition-consuming strategy the headline comparison measures
#: (snp's hidden-embedding shuffle grows with a device's seed share, which
#: cancels the compute win; dnp keeps the shuffle partition-local)
HEADLINE_STRATEGY = "dnp"
SPEEDUP_GATE = 1.25
BUDGET_FACTOR = 1.5


def _cluster():
    ds = common.dataset(DATASET)
    cache = scaled_gpu_cache_bytes(ds, PAPER_CACHE_GB)
    cluster = parse_cluster_spec(CLUSTER_SPEC, gpu_cache_bytes=cache)
    return cluster.with_network(NETWORK)


def _apt(parts=None):
    """APT on the 2-tier cluster.

    ``parts=None`` uses the built-in metis partitioner, which cuts
    speed-proportional parts on a heterogeneous cluster; passing an
    explicit (equal-sized) partition array bypasses the weighting.
    """
    ds = common.dataset(DATASET)
    cluster = _cluster()
    model = common.make_model("sage", ds, hidden=HIDDEN)
    cfg = APTConfig(
        fanouts=FANOUTS,
        global_batch_size=cluster.num_devices * BATCH_PER_GPU,
        partition=parts if parts is not None else "metis",
        seed=0,
    )
    apt = APT(ds, model, cluster, cfg)
    apt.sample_cache = common.shared_sample_cache()
    apt.prepare()
    return apt


def run_all(quick: bool) -> dict:
    epochs = 1 if quick else 3
    ds = common.dataset(DATASET)
    results: dict = {
        "quick": quick,
        "epochs": epochs,
        "scenario": f"{CLUSTER_SPEC} on {DATASET} ({ds.num_nodes} nodes)",
    }

    # -- 1. equal-sized vs speed-proportional partitions ---------------- #
    equal_parts = metis_like_partition(ds.graph, _cluster().num_devices, seed=0)
    print(f"  partition comparison ({HEADLINE_STRATEGY}, timing-only):")
    headline: dict = {"strategy": HEADLINE_STRATEGY}
    for label, parts in (("equal", equal_parts), ("proportional", None)):
        apt = _apt(parts=parts)
        rep = apt.run_strategy(HEADLINE_STRATEGY, epochs, numerics=False)
        headline[f"{label}_seconds"] = rep.wall_seconds
        print(f"    {label:<13}{rep.wall_seconds * 1e3:9.3f}ms")
    headline["speedup"] = headline["equal_seconds"] / headline["proportional_seconds"]
    results["headline"] = headline
    print(f"    proportional beats equal by {headline['speedup']:.2f}x")

    # -- 2. dry-run ranking vs measured ranking ------------------------- #
    apt = _apt()
    measured = {
        name: apt.compare_all(num_epochs=1, numerics=False, strategies=(name,))[
            name
        ].epoch_seconds
        for name in common.STRATEGIES
    }
    plan = apt.plan(strategies=common.STRATEGIES).plan
    dry_ranking = [n for n in plan.ranking if n in common.STRATEGIES]
    measured_ranking = sorted(measured, key=measured.get)
    results["ranking"] = {
        "dryrun": dry_ranking,
        "measured": measured_ranking,
        "measured_seconds": measured,
        "estimated_seconds": {
            n: plan.estimates[n].total for n in common.STRATEGIES
        },
        "match": dry_ranking == measured_ranking,
    }
    print(f"  dry-run ranking:  {' > '.join(dry_ranking)}")
    print(f"  measured ranking: {' > '.join(measured_ranking)}")

    # -- 3. Pareto planning under a time budget ------------------------- #
    time_plan = apt.plan(strategies=common.STRATEGIES, objective="epoch").plan
    t_opt = time_plan.estimates[time_plan.chosen]
    budget = BUDGET_FACTOR * t_opt.total
    cost_plan = apt.plan(
        strategies=common.STRATEGIES,
        objective="cost",
        budget_seconds=budget,
    ).plan
    c_opt = cost_plan.estimates[cost_plan.chosen]
    results["pareto"] = {
        "time_optimal": {
            "candidate": time_plan.chosen,
            "total": t_opt.total,
            "dollars": t_opt.dollars,
        },
        "budget_seconds": budget,
        "cost_choice": {
            "candidate": cost_plan.chosen,
            "total": c_opt.total,
            "dollars": c_opt.dollars,
            "subset": cost_plan.subsets.get(cost_plan.chosen),
        },
        "frontier": [
            {
                "candidate": n,
                "total": cost_plan.estimates[n].total,
                "dollars": cost_plan.estimates[n].dollars,
            }
            for n in cost_plan.pareto
        ],
        "cheaper": c_opt.dollars < t_opt.dollars,
        "within_budget": c_opt.total <= budget,
    }
    print(
        f"  time-optimal: {time_plan.chosen} "
        f"({t_opt.total * 1e3:.3f}ms, ${t_opt.dollars:.3e}/epoch)"
    )
    print(
        f"  cost plan within {BUDGET_FACTOR}x budget: {cost_plan.chosen} "
        f"({c_opt.total * 1e3:.3f}ms, ${c_opt.dollars:.3e}/epoch)"
    )
    return results


def check(results: dict) -> int:
    failures = []
    speedup = results["headline"]["speedup"]
    if speedup < SPEEDUP_GATE:
        failures.append(
            f"speed-proportional partitions beat equal-sized by only "
            f"{speedup:.2f}x (< {SPEEDUP_GATE}x gate)"
        )
    if not results["ranking"]["match"]:
        failures.append(
            f"dry-run ranking {results['ranking']['dryrun']} != measured "
            f"ranking {results['ranking']['measured']}"
        )
    pareto = results["pareto"]
    if not pareto["cheaper"]:
        failures.append(
            f"cost plan (${pareto['cost_choice']['dollars']:.3e}) is not "
            f"strictly cheaper than time-optimal "
            f"(${pareto['time_optimal']['dollars']:.3e})"
        )
    if not pareto["within_budget"]:
        failures.append(
            f"cost plan ({pareto['cost_choice']['total'] * 1e3:.3f}ms) "
            f"exceeds the time budget "
            f"({pareto['budget_seconds'] * 1e3:.3f}ms)"
        )
    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer epochs (CI mode)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless all three gates hold")
    parser.add_argument("--output", type=pathlib.Path, default=BASELINE_PATH,
                        help="where to write the results JSON")
    args = parser.parse_args(argv)

    results = run_all(args.quick)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.output}")
    if args.check:
        return check(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
