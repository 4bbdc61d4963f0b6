"""Out-of-core scale: disk-tier planning and bounded-RSS training.

Builds the *same* training task twice — once with the feature matrix in
RAM and once opened from an on-disk streaming dataset directory
(memory-mapped features, disk tier active; DESIGN.md §5.14) — and
compares:

* **planner rankings** — the dry-run cost estimates include the disk
  tier's bandwidth and per-ranged-read latency terms, so strategies that
  re-read many feature rows (GDP, DNP) are penalized once features fall
  out of RAM and the ranking shifts toward feature-traffic-avoiding
  strategies (the headline table);
* **losses** — out-of-core training must be numerically invisible:
  the memmap serves bit-identical bytes, so per-epoch losses match the
  in-RAM run exactly;
* **disk accounting** — dry-runs and training record disk rows, bytes,
  and coalesced ranged-read counts.

``--full`` additionally generates a 1M-node, 128-dim dataset (~1 GB of
features, never fully resident), trains one epoch end-to-end on it, and
reports peak RSS against the feature file size.

Writes ``BENCH_outofcore.json`` at the repository root.

Usage::

    python benchmarks/bench_outofcore.py            # default, update JSON
    python benchmarks/bench_outofcore.py --quick    # smaller graph (CI)
    python benchmarks/bench_outofcore.py --quick --check  # CI gate
    python benchmarks/bench_outofcore.py --full     # + 1M-node RSS run

``--check`` fails if losses diverge between the in-RAM and out-of-core
runs, if no disk traffic was recorded, if any strategy's estimated
t_load got *cheaper* out of core, or if the disk-tier terms failed to
move the planner (no ranking change and no meaningful t_load penalty).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import shutil
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if "repro" not in sys.modules:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.cluster import multi_machine_cluster
from repro.config import APTConfig
from repro.core import APT
from repro.featurestore import Tier
from repro.graph import open_streaming_dataset, write_streaming_dataset
from repro.graph.datasets import GraphDataset
from repro.models import GraphSAGE

BASELINE_PATH = REPO_ROOT / "BENCH_outofcore.json"
STRATEGIES = ("gdp", "nfp", "snp", "dnp")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _in_ram_copy(ds: GraphDataset) -> GraphDataset:
    """The identical dataset with the feature matrix fully resident."""
    return GraphDataset(
        name=ds.name,
        graph=ds.graph,
        features=np.array(ds.features),
        labels=ds.labels,
        train_seeds=ds.train_seeds,
        num_classes=ds.num_classes,
        communities=ds.communities,
    )


def _build_apt(ds: GraphDataset, cache_frac: float = 0.05) -> APT:
    cluster = multi_machine_cluster(
        2, 2, gpu_cache_bytes=ds.feature_bytes * cache_frac
    )
    model = GraphSAGE(ds.feature_dim, 16, ds.num_classes, 2, seed=1)
    apt = APT(ds, model, cluster, APTConfig(
        fanouts=(8, 8), global_batch_size=256, seed=0, disk_promote_mb=1,
    ))
    apt.prepare()
    return apt


def _plan_table(apt: APT) -> dict:
    report = apt.plan()
    plan = report.plan
    return {
        "chosen": plan.chosen,
        "ranking": list(plan.ranking),
        "estimates_ms": {
            name: {
                "t_build": est.t_build * 1e3,
                "t_load": est.t_load * 1e3,
                "t_shuffle": est.t_shuffle * 1e3,
                "total": est.total * 1e3,
            }
            for name, est in plan.estimates.items()
        },
    }


def _disk_dryrun_summary(apt: APT) -> dict:
    rows = 0.0
    ranged = 0.0
    for name in STRATEGIES:
        stats = apt.context.dryrun.run(name)  # memoized by plan()
        rows += stats.recorder.total_load_rows(Tier.DISK)
        ranged += float(np.sum(stats.recorder.disk_ranged_reads))
    return {"rows": rows, "ranged_reads": ranged}


def run_comparison(num_nodes: int, feature_dim: int, workdir: pathlib.Path) -> dict:
    out = write_streaming_dataset(
        workdir / "ds", num_nodes=num_nodes, feature_dim=feature_dim,
        num_classes=8, seed=0,
    )
    ds_disk = open_streaming_dataset(out)
    ds_ram = _in_ram_copy(ds_disk)

    apt_ram = _build_apt(ds_ram)
    apt_disk = _build_apt(ds_disk)

    print(f"planner comparison ({num_nodes} nodes, d={feature_dim}):")
    plan_ram = _plan_table(apt_ram)
    plan_disk = _plan_table(apt_disk)
    print(f"  in-RAM ranking:      {' > '.join(plan_ram['ranking'])}")
    print(f"  out-of-core ranking: {' > '.join(plan_disk['ranking'])}")
    for name in STRATEGIES:
        ram_ms = plan_ram["estimates_ms"][name]
        disk_ms = plan_disk["estimates_ms"][name]
        print(
            f"  {name}  t_load {ram_ms['t_load']:8.3f} -> "
            f"{disk_ms['t_load']:8.3f} ms   total {ram_ms['total']:8.3f} -> "
            f"{disk_ms['total']:8.3f} ms"
        )
    dryrun_disk = _disk_dryrun_summary(apt_disk)

    losses_ram = [
        e.mean_loss for e in apt_ram.run_strategy("gdp", 2).result.epochs
    ]
    losses_disk = [
        e.mean_loss for e in apt_disk.run_strategy("gdp", 2).result.epochs
    ]
    identical = losses_ram == losses_disk
    print(f"  gdp losses in-RAM {losses_ram} vs out-of-core {losses_disk} "
          f"({'bit-identical' if identical else 'DIVERGED'})")

    return {
        "num_nodes": num_nodes,
        "feature_dim": feature_dim,
        "plan_in_ram": plan_ram,
        "plan_out_of_core": plan_disk,
        "dryrun_disk": dryrun_disk,
        "losses_in_ram": losses_ram,
        "losses_out_of_core": losses_disk,
        "losses_identical": identical,
    }


def run_full_scale(workdir: pathlib.Path) -> dict:
    """1M-node end-to-end epoch with the feature matrix never resident."""
    num_nodes, feature_dim = 1_000_000, 128
    print(f"generating {num_nodes}-node, {feature_dim}-dim streaming dataset "
          "(chunked, bounded peak memory)...")
    rss_before_gen = _peak_rss_mb()
    out = write_streaming_dataset(
        workdir / "big", num_nodes=num_nodes, feature_dim=feature_dim,
        num_classes=16, seed=0,
    )
    ds = open_streaming_dataset(out)
    feature_file_mb = (out / "features.dat").stat().st_size / 2**20
    print(f"  features.dat {feature_file_mb:.0f} MiB on disk")

    apt = _build_apt(ds)
    report = apt.run_strategy("gdp", 1)
    rss_after = _peak_rss_mb()
    result = {
        "num_nodes": num_nodes,
        "feature_dim": feature_dim,
        "feature_file_mb": feature_file_mb,
        "peak_rss_mb": rss_after,
        "rss_before_generation_mb": rss_before_gen,
        "losses": [e.mean_loss for e in report.result.epochs],
        "epoch_seconds_simulated": report.result.epochs[-1].wall_seconds,
    }
    print(f"  trained 1 epoch (loss {result['losses'][-1]:.4f}); "
          f"peak RSS {rss_after:.0f} MiB vs {feature_file_mb:.0f} MiB of "
          "features on disk")
    return result


def run_all(quick: bool, full: bool) -> dict:
    num_nodes = 12_000 if quick else 40_000
    feature_dim = 32 if quick else 64
    results: dict = {"quick": quick}
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="bench-outofcore-"))
    try:
        results["comparison"] = run_comparison(num_nodes, feature_dim, workdir)
        if full:
            results["full_scale"] = run_full_scale(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return results


def check(results: dict) -> int:
    failures = []
    comp = results["comparison"]
    if not comp["losses_identical"]:
        failures.append(
            f"out-of-core losses diverged: {comp['losses_in_ram']} vs "
            f"{comp['losses_out_of_core']}"
        )
    if comp["dryrun_disk"]["rows"] <= 0:
        failures.append("dry-runs recorded no disk-tier rows")
    if comp["dryrun_disk"]["ranged_reads"] <= 0:
        failures.append("dry-runs recorded no coalesced ranged reads")

    ram = comp["plan_in_ram"]["estimates_ms"]
    disk = comp["plan_out_of_core"]["estimates_ms"]
    eps = 1e-9
    for name in STRATEGIES:
        if disk[name]["t_load"] + eps < ram[name]["t_load"]:
            failures.append(
                f"{name} t_load got cheaper out of core "
                f"({ram[name]['t_load']:.4f} -> {disk[name]['t_load']:.4f} ms)"
            )
    # The headline: disk-tier terms must actually move the planner — either
    # the ranking reorders, or at least one strategy pays a >=2x load
    # penalty (so a ranking held only because it was already load-dominant).
    reordered = (
        comp["plan_in_ram"]["ranking"] != comp["plan_out_of_core"]["ranking"]
    )
    max_penalty = max(
        disk[n]["t_load"] / max(ram[n]["t_load"], 1e-9) for n in STRATEGIES
    )
    if not reordered and max_penalty < 2.0:
        failures.append(
            "disk-tier terms did not move the planner (ranking unchanged, "
            f"max t_load penalty {max_penalty:.2f}x)"
        )
    elif reordered:
        print(
            f"planner ranking shifted out of core: "
            f"{' > '.join(comp['plan_in_ram']['ranking'])} -> "
            f"{' > '.join(comp['plan_out_of_core']['ranking'])}"
        )
    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller graph (CI mode)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on divergence or an unmoved plan")
    parser.add_argument("--full", action="store_true",
                        help="also run the 1M-node bounded-RSS epoch")
    parser.add_argument("--output", type=pathlib.Path, default=BASELINE_PATH,
                        help="where to write the results JSON")
    args = parser.parse_args(argv)

    results = run_all(args.quick, args.full)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.output}")
    if args.check:
        return check(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
