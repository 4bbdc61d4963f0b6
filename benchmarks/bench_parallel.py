"""Host wall-clock benchmark of the execution backends.

Runs the same simulated training workloads through the serial backend and
the shared-memory process-pool backend and records honest host seconds
for both, plus a pipeline on/off ablation, into ``BENCH_parallel.json``
at the repository root.  The two backends are bit-identical in simulation
(losses, parameters, Timeline — pinned by ``tests/parallel``); this file
only measures the host time the backend is allowed to change.

Both backends do the same sampling work — one union sample per global
batch, restricted per device (``repro.sampling.cache.
sample_device_batches``) — so the process backend's only lever is
**overlap**: with ``prefetch_depth > 0``, batch ``k+1`` is sampled in
workers while batch ``k`` runs numerics on the main process, which pays
only when the host has cores to spare.  (The showcase's former 1.7x on a
2-vCPU host was the serial backend sampling every overlapping per-device
frontier separately; with that gone it measures about 0.5x there.)

Usage::

    python benchmarks/bench_parallel.py                 # full run, update JSON
    python benchmarks/bench_parallel.py --quick         # fewer epochs
    python benchmarks/bench_parallel.py --quick --check # CI regression gate

``--check`` compares each workload's process-backend seconds against the
committed baseline (fails past ``--threshold``, default 2.0x) and requires
the showcase to keep a serial/process speedup of at least
``_MIN_SHOWCASE_SPEEDUP`` on the current machine: a floor under the
process backend's overhead, not a promise that it wins.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Dict, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if "repro" not in sys.modules:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cluster.spec import single_machine_cluster
from repro.config import APTConfig
from repro.core.apt import APT
from repro.graph.datasets import ps_like
from repro.models.sage import GraphSAGE

BASELINE_PATH = REPO_ROOT / "BENCH_parallel.json"

#: identical workload shapes in --quick mode; only epoch counts and
#: timing repetitions shrink, and per-epoch seconds are what gets
#: recorded, so CI numbers stay comparable with the committed baseline
STRATEGY_GPUS, STRATEGY_BATCH, STRATEGY_FANOUTS = 8, 1024, (10, 10)
SHOWCASE_GPUS, SHOWCASE_BATCH, SHOWCASE_FANOUTS = 16, 2048, (10, 10, 10)


def _build_apt(ds, num_gpus, batch, fanouts, backend, prefetch_depth=2):
    cluster = single_machine_cluster(
        num_gpus=num_gpus, gpu_cache_bytes=ds.feature_bytes * 0.02
    )
    model = GraphSAGE(ds.feature_dim, 32, ds.num_classes, len(fanouts), seed=1)
    config = APTConfig(
        fanouts=fanouts,
        global_batch_size=batch,
        seed=0,
        execution_backend=backend,
        num_workers=2,
        prefetch_depth=prefetch_depth,
    )
    apt = APT(ds, model, cluster, config)
    apt.prepare()
    return apt


def _timed_run(build, strategy, epochs, numerics, reps=1):
    """Best-of-``reps`` host seconds per epoch (pool startup amortized
    inside each run; a fresh APT per rep so the sample cache is cold)."""
    best = float("inf")
    losses = None
    for _ in range(reps):
        apt = build()
        t0 = time.perf_counter()
        report = apt.run_strategy(strategy, epochs, numerics=numerics)
        best = min(best, (time.perf_counter() - t0) / epochs)
        losses = [e.mean_loss for e in report.result.epochs]
    return best, losses


def _op(
    results: Dict[str, dict],
    name: str,
    process_seconds: float,
    serial_seconds: Optional[float] = None,
    **meta,
) -> None:
    entry: dict = {"seconds": process_seconds}
    if serial_seconds is not None:
        entry["serial_seconds"] = serial_seconds
        entry["speedup"] = (
            serial_seconds / process_seconds if process_seconds > 0 else float("inf")
        )
    if meta:
        entry["meta"] = meta
    results[name] = entry
    delta = (
        f"  serial {serial_seconds:7.3f}s  {entry['speedup']:5.2f}x"
        if serial_seconds is not None
        else ""
    )
    print(f"  {name:<26} {process_seconds:7.3f}s/epoch{delta}")


# ---------------------------------------------------------------------- #
def bench_strategies(results, ds, epochs):
    """Serial vs process across the paper's four strategies (full numerics)."""
    for strategy in ("gdp", "nfp", "snp", "dnp"):
        t_serial, l_serial = _timed_run(
            lambda: _build_apt(
                ds, STRATEGY_GPUS, STRATEGY_BATCH, STRATEGY_FANOUTS, "serial"
            ),
            strategy, epochs, numerics=True,
        )
        t_proc, l_proc = _timed_run(
            lambda: _build_apt(
                ds, STRATEGY_GPUS, STRATEGY_BATCH, STRATEGY_FANOUTS, "process"
            ),
            strategy, epochs, numerics=True,
        )
        if l_serial != l_proc:  # bit-identity is part of the contract
            raise AssertionError(
                f"{strategy}: process losses diverged from serial"
            )
        _op(
            results, strategy, t_proc, t_serial,
            gpus=STRATEGY_GPUS, batch=STRATEGY_BATCH,
            fanouts=list(STRATEGY_FANOUTS), numerics=True, epochs=epochs,
        )


def bench_showcase(results, ds, epochs, reps):
    """Sampling-dominated workload (timing-only, 16 devices) + ablation.

    The pipelined arm uses ``prefetch_depth=1`` — the sweet spot on
    few-core hosts, where deeper prefetch queues only add time-slicing
    contention between the workers and the main process.  Timing-only
    runs gather no feature rows, so worker-side gather never applies here.
    """
    t_serial, _ = _timed_run(
        lambda: _build_apt(
            ds, SHOWCASE_GPUS, SHOWCASE_BATCH, SHOWCASE_FANOUTS, "serial"
        ),
        "gdp", epochs, numerics=False, reps=reps,
    )
    t_piped, _ = _timed_run(
        lambda: _build_apt(
            ds, SHOWCASE_GPUS, SHOWCASE_BATCH, SHOWCASE_FANOUTS, "process",
            prefetch_depth=1,
        ),
        "gdp", epochs, numerics=False, reps=reps,
    )
    _op(
        results, "gdp_timing_pipelined", t_piped, t_serial,
        gpus=SHOWCASE_GPUS, batch=SHOWCASE_BATCH,
        fanouts=list(SHOWCASE_FANOUTS), numerics=False, epochs=epochs,
        prefetch_depth=1,
    )

    t_off, _ = _timed_run(
        lambda: _build_apt(
            ds, SHOWCASE_GPUS, SHOWCASE_BATCH, SHOWCASE_FANOUTS, "process",
            prefetch_depth=0,
        ),
        "gdp", epochs, numerics=False, reps=reps,
    )
    _op(
        results, "gdp_timing_pipeline_off", t_off, t_serial,
        gpus=SHOWCASE_GPUS, batch=SHOWCASE_BATCH,
        fanouts=list(SHOWCASE_FANOUTS), numerics=False, epochs=epochs,
        prefetch_depth=0,
    )


def run_all(quick: bool) -> dict:
    #: a half-train-fraction ps_like graph: 11 global batches of 2048 per
    #: epoch, hub-heavy frontiers — enough sampling work per epoch that
    #: pool startup and the census-primed epoch 0 stop dominating
    ds = ps_like(train_fraction=0.5)
    strategy_epochs = 2 if quick else 3
    showcase_epochs = 4 if quick else 10
    showcase_reps = 1 if quick else 3
    print(
        f"dataset: {ds.name} ({ds.num_nodes} nodes, {ds.graph.num_edges} "
        f"edges, d={ds.feature_dim}); per-epoch host seconds"
    )
    results: Dict[str, dict] = {}
    # Showcase first: the numerics strategy runs churn a lot of transient
    # allocations, and running them first visibly slows the later
    # shared-memory arms on small hosts.
    bench_showcase(results, ds, showcase_epochs, showcase_reps)
    bench_strategies(results, ds, strategy_epochs)
    return {
        "schema": 1,
        "strategy_epochs": strategy_epochs,
        "showcase_epochs": showcase_epochs,
        "ops": results,
    }


# ---------------------------------------------------------------------- #
#: ops faster than this are timing noise; ratios compare against the floor
_CHECK_FLOOR_SECONDS = 1e-2

#: workload whose serial-vs-process speedup the check gate enforces
_SHOWCASE_OP = "gdp_timing_pipelined"

#: serial/process speedup floor of the showcase.  With both backends
#: sampling each global batch once, six ``--quick`` runs on a 2-vCPU host
#: measured 0.45-0.59x (the process backend pays shipping 16 device
#: minibatches per batch through shared memory, and has no spare core to
#: overlap on); a process backend a quarter slower than the slowest of
#: those fails.
_MIN_SHOWCASE_SPEEDUP = 0.35


def check_regressions(measured: dict, baseline: dict, threshold: float) -> int:
    """Count workloads slower than ``threshold`` x the committed baseline,
    plus the showcase-speedup floor on the current machine."""
    failures = 0
    for name, base in baseline.get("ops", {}).items():
        cur = measured["ops"].get(name)
        if cur is None:
            print(f"  {name:<26} MISSING from this run")
            failures += 1
            continue
        floor = max(base["seconds"], _CHECK_FLOOR_SECONDS)
        ratio = max(cur["seconds"], _CHECK_FLOOR_SECONDS) / floor
        flag = "REGRESSED" if ratio > threshold else "ok"
        print(
            f"  {name:<26} {cur['seconds']:7.3f}s vs baseline "
            f"{base['seconds']:7.3f}s  ({ratio:4.2f}x) {flag}"
        )
        failures += ratio > threshold
    showcase = measured["ops"].get(_SHOWCASE_OP, {})
    speedup = showcase.get("speedup", 0.0)
    if speedup < _MIN_SHOWCASE_SPEEDUP:
        print(
            f"  {_SHOWCASE_OP}: speedup {speedup:.2f}x "
            f"below the {_MIN_SHOWCASE_SPEEDUP:.2f}x floor REGRESSED"
        )
        failures += 1
    else:
        print(f"  {_SHOWCASE_OP}: speedup {speedup:.2f}x ok")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer epochs (same workload shapes, comparable per-epoch numbers)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed baseline; exit 1 on regression",
    )
    parser.add_argument(
        "--threshold", type=float, default=2.0,
        help="regression factor that fails --check (default 2.0)",
    )
    parser.add_argument(
        "--baseline", type=pathlib.Path, default=BASELINE_PATH,
        help="baseline JSON for --check (default: repo BENCH_parallel.json)",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=None,
        help="where to write measured JSON (default: the baseline path; "
        "in --check mode nothing is written unless --output is given)",
    )
    args = parser.parse_args(argv)

    print(
        f"execution-backend benchmark ({'quick' if args.quick else 'full'})"
    )
    measured = run_all(args.quick)

    out_path = args.output
    if out_path is None and not args.check:
        out_path = BASELINE_PATH
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w") as fh:
            json.dump(measured, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out_path}")

    if args.check:
        if not args.baseline.exists():
            print(f"no baseline at {args.baseline}; nothing to check against")
            return 1
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        print(f"\nregression check vs {args.baseline} (>{args.threshold}x fails)")
        failures = check_regressions(measured, baseline, args.threshold)
        if failures:
            print(f"{failures} workload(s) regressed")
            return 1
        print("no regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
