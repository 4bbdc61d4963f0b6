"""Serving latency/throughput frontier: adaptive plan vs fixed strategies.

Replays one seeded, drifting Zipf request stream (hot set shifts twice
over the session) against a trained checkpoint under every serving
configuration (DESIGN.md §5.13):

* **fixed** — each of the four strategies pinned, training-census cache
  keying for the whole session (``cache_policy="static"``);
* **adaptive** — strategy chosen by the latency-objective planner
  (``plan(objective="latency")``), request-hotness cache re-keyed when the serve-side
  drift detector fires (``cache_policy="adaptive"``);
* **frontier** — the adaptive configuration swept across dynamic-batching
  policies (``8:1`` ... ``64:8``), tracing the latency/throughput
  trade-off of the batch-size/wait knobs.

Batch composition is part of the sampling key, so predictions are pinned
*per batching policy*: every configuration serving the same policy —
all four strategies, static or adaptive cache — must produce
bit-identical answers (strategy and cache placement move simulated time,
never values).  The response digests are compared per policy group.

Writes ``BENCH_serving.json`` at the repository root.

Usage::

    python benchmarks/bench_serving.py          # full run, update JSON
    python benchmarks/bench_serving.py --quick  # shorter stream (CI mode)
    python benchmarks/bench_serving.py --quick --check  # CI gate

``--check`` fails if any configuration's answers diverged, if the drift
detector never re-keyed the adaptive cache, or if the adaptive
configuration does not beat at least one fixed strategy on p99 latency.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if "repro" not in sys.modules:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cluster.spec import single_machine_cluster
from repro.config import APTConfig, ServeConfig
from repro.core.apt import APT
from repro.graph.datasets import ps_like
from repro.models.sage import GraphSAGE
from repro.serve import BatchingPolicy, LoadGenerator, ServeEngine

BASELINE_PATH = REPO_ROOT / "BENCH_serving.json"
STRATEGIES = ("gdp", "nfp", "snp", "dnp")
FRONTIER_POLICIES = ("8:1", "16:2", "32:4", "64:8")


def _build_apt(ds, *, checkpoint_dir=None):
    cluster = single_machine_cluster(
        num_gpus=4, gpu_cache_bytes=ds.feature_bytes * 0.04
    )
    model = GraphSAGE(ds.feature_dim, 32, ds.num_classes, 2, seed=1)
    config = APTConfig(
        fanouts=(8, 8),
        global_batch_size=256,
        seed=0,
        checkpoint_dir=checkpoint_dir,
    )
    return APT(ds, model, cluster, config)


def _make_stream(ds, num_requests, rate):
    span = num_requests / rate
    return LoadGenerator(
        ds.num_nodes,
        seed=3,
        rate=rate,
        zipf_a=1.4,
        drift_every=span / 3.0,  # the hot set moves twice over the session
        drift_shift=max(ds.num_nodes // 5, 1),
    ).generate(num_requests)


def _serve(ds, ckdir, requests, *, strategy, cache_policy, policy="32:4"):
    parsed = BatchingPolicy.parse(policy)
    engine = ServeEngine(
        _build_apt(ds),
        config=ServeConfig(
            max_batch_size=parsed.max_batch_size,
            max_wait_s=parsed.max_wait_s,
            cache_policy=cache_policy,
            drift_window=4,
            drift_threshold=0.10,
        ),
        strategy=strategy,
        checkpoint_dir=ckdir,
    )
    return engine.serve(list(requests))


def _entry(report, policy):
    return {
        "strategy": report.strategy,
        "policy": policy,
        "p50_ms": report.latency["p50"] * 1e3,
        "p99_ms": report.latency["p99"] * 1e3,
        "mean_ms": report.latency["mean"] * 1e3,
        "throughput_rps": report.throughput_rps,
        "cache_hit_fraction": report.cache["hit_fraction"],
        "num_batches": report.num_batches,
        "digest": report.responses_digest,
    }


def run_all(quick: bool) -> dict:
    num_requests = 384 if quick else 2048
    rate = 3000.0
    ds = ps_like(4_000 if quick else 12_000, feature_dim=64)
    requests = _make_stream(ds, num_requests, rate)
    results: dict = {
        "quick": quick,
        "num_requests": num_requests,
        "rate_rps": rate,
        "num_nodes": ds.num_nodes,
    }

    ckdir = tempfile.mkdtemp(prefix="bench-serve-ck-")
    try:
        _build_apt(ds, checkpoint_dir=ckdir).run_strategy("gdp", 1)

        print("fixed strategies (static census cache):")
        results["fixed"] = {}
        for name in STRATEGIES:
            report = _serve(
                ds, ckdir, requests, strategy=name, cache_policy="static"
            )
            results["fixed"][name] = _entry(report, "32:4")
            print(
                f"  {name}  p50 {report.latency['p50'] * 1e3:7.2f} ms   "
                f"p99 {report.latency['p99'] * 1e3:7.2f} ms   "
                f"{report.throughput_rps:7.1f} req/s"
            )

        print("adaptive (latency-objective plan + hotness cache):")
        report = _serve(
            ds, ckdir, requests, strategy=None, cache_policy="adaptive"
        )
        results["adaptive"] = _entry(report, "32:4")
        results["adaptive"]["predicted"] = report.predicted
        results["adaptive"]["replans"] = len(report.replans)
        results["adaptive"]["cache_refreshes"] = report.cache["refreshes"]
        print(
            f"  {report.strategy}  p50 {report.latency['p50'] * 1e3:7.2f} ms   "
            f"p99 {report.latency['p99'] * 1e3:7.2f} ms   "
            f"{report.throughput_rps:7.1f} req/s   "
            f"({len(report.replans)} replan(s), "
            f"{report.cache['refreshes']} cache refresh(es))"
        )

        chosen = report.strategy
        print("batching-policy frontier (adaptive configuration):")
        results["frontier"] = []
        for policy in FRONTIER_POLICIES:
            rep = _serve(
                ds,
                ckdir,
                requests,
                strategy=chosen,
                cache_policy="adaptive",
                policy=policy,
            )
            results["frontier"].append(_entry(rep, policy))
            print(
                f"  {policy:>5s}  p50 {rep.latency['p50'] * 1e3:7.2f} ms   "
                f"p99 {rep.latency['p99'] * 1e3:7.2f} ms   "
                f"{rep.throughput_rps:7.1f} req/s"
            )
    finally:
        shutil.rmtree(ckdir, ignore_errors=True)
    return results


def check(results: dict) -> int:
    failures = []
    # Batch composition is part of the sampling key, so answers are pinned
    # *per batching policy*: every configuration serving the same policy —
    # all four strategies plus the adaptive cache — must agree exactly.
    entries = list(results["fixed"].values()) + [results["adaptive"]]
    entries += results["frontier"]
    by_policy: dict = {}
    for e in entries:
        by_policy.setdefault(e["policy"], set()).add(e["digest"])
    for policy, digests in sorted(by_policy.items()):
        if len(digests) != 1:
            failures.append(
                f"answers diverged across {policy} configurations "
                f"({len(digests)} digests)"
            )
    adaptive_p99 = results["adaptive"]["p99_ms"]
    fixed_p99 = {n: e["p99_ms"] for n, e in results["fixed"].items()}
    beaten = [n for n, p99 in fixed_p99.items() if adaptive_p99 < p99]
    if not beaten:
        failures.append(
            f"adaptive p99 {adaptive_p99:.2f} ms beats no fixed strategy "
            f"({fixed_p99})"
        )
    else:
        print(
            f"adaptive p99 {adaptive_p99:.2f} ms beats "
            f"{', '.join(beaten)} under drift"
        )
    if results["adaptive"]["cache_refreshes"] < 1:
        failures.append("drift never re-keyed the adaptive cache")
    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="shorter stream / smaller graph (CI mode)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on divergence or a lost frontier")
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
