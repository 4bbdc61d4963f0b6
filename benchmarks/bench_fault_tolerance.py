"""Recovery latency and overhead of the fault-tolerance layer.

Measures, on the process execution backend (DESIGN.md §5.11):

* **chaos overhead** — host seconds of a clean run vs the same run under
  a seeded ``HostFaultSchedule`` (worker killed, worker hung past the
  deadline, a result slot corrupted, a slot leaked), with the results
  asserted bit-identical in both directions;
* **recovery latency** — per-fault-kind host seconds added by detection
  plus retry (measured as single-fault runs against the clean run);
* **checkpoint cost** — seconds to write and to load one epoch
  checkpoint, and the end-to-end overhead of checkpointing every epoch;
* **resume correctness** — a run checkpointed at the midpoint and resumed
  in a fresh APT instance must reproduce the uninterrupted run's losses.

Writes ``BENCH_fault_tolerance.json`` at the repository root.

Usage::

    python benchmarks/bench_fault_tolerance.py          # full run, update JSON
    python benchmarks/bench_fault_tolerance.py --quick  # fewer epochs
    python benchmarks/bench_fault_tolerance.py --quick --check  # CI gate

``--check`` fails if any chaos run diverged from the clean run or if the
total chaos overhead exceeds ``--max-overhead`` seconds (default 30).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if "repro" not in sys.modules:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cluster.spec import single_machine_cluster
from repro.config import APTConfig
from repro.core.apt import APT
from repro.core.checkpoint import CheckpointManager
from repro.graph.datasets import ps_like
from repro.models.sage import GraphSAGE
from repro.parallel import FaultPolicy, HostFaultSchedule

BASELINE_PATH = REPO_ROOT / "BENCH_fault_tolerance.json"

#: short deadline so hang recovery is measured in fractions of a second
POLICY = dict(
    task_deadline_s=1.0,
    max_retries=3,
    failure_budget=32,
    backoff_base_s=0.01,
    backoff_max_s=0.1,
    drain_timeout_s=2.0,
)


def _build_apt(ds, *, chaos=None, checkpoint_dir=None, checkpoint_every=1):
    cluster = single_machine_cluster(
        num_gpus=8, gpu_cache_bytes=ds.feature_bytes * 0.02
    )
    model = GraphSAGE(ds.feature_dim, 32, ds.num_classes, 2, seed=1)
    # batch 256 over a 10% train fraction gives several worker tasks per
    # epoch, so every scheduled task index actually exists
    config = APTConfig(
        fanouts=(10, 10),
        global_batch_size=256,
        seed=0,
        execution_backend="process",
        num_workers=2,
        prefetch_depth=2,
        fault_policy=FaultPolicy(**POLICY),
        host_chaos=chaos,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
    )
    apt = APT(ds, model, cluster, config)
    apt.prepare()
    return apt


def _run(apt, epochs, resume=None):
    start = time.perf_counter()
    report = apt.run_strategy("dnp", epochs, resume=resume)
    wall = time.perf_counter() - start
    losses = [e.mean_loss for e in report.result.epochs]
    return wall, losses, report


def bench_chaos(results, ds, epochs):
    """Clean vs chaos wall seconds; identical losses both ways."""
    clean_wall, clean_losses, _ = _run(_build_apt(ds), epochs)
    results["clean"] = {"seconds": clean_wall, "losses": clean_losses}

    schedules = {
        "kill": "kill@1",
        "hang": "hang@2:30.0",
        "corrupt": "corrupt@1",
        "leak": "leak@1",
        "mixed": "kill@0;hang@2:30.0;corrupt@4;leak@5",
    }
    for name, grammar in schedules.items():
        chaos = HostFaultSchedule.parse(grammar)
        wall, losses, report = _run(_build_apt(ds, chaos=chaos), epochs)
        identical = losses == clean_losses
        fired = report.collector.counter_total("parallel.chaos_injected")
        results[f"chaos_{name}"] = {
            "schedule": grammar,
            "seconds": wall,
            "recovery_overhead_seconds": wall - clean_wall,
            "bit_identical": identical,
            "faults_fired": fired,
            "retries": report.collector.counter_total("parallel.task_retries"),
        }
        print(
            f"  {name:8s} {wall:7.2f}s "
            f"(+{wall - clean_wall:5.2f}s vs clean, "
            f"{fired:.0f} fault(s) fired, identical={identical})"
        )
    return clean_losses


def bench_checkpoint(results, ds, epochs, clean_losses):
    """Checkpoint write/load latency and every-epoch overhead + resume."""
    base_wall = results["clean"]["seconds"]
    ckdir = tempfile.mkdtemp(prefix="bench-ck-")
    try:
        wall, losses, _ = _run(
            _build_apt(ds, checkpoint_dir=ckdir), epochs
        )
        mgr = CheckpointManager(ckdir)
        t0 = time.perf_counter()
        ck = mgr.load()
        load_seconds = time.perf_counter() - t0
        state_bytes = (
            pathlib.Path(ck.path, "state.pkl").stat().st_size
            + pathlib.Path(ck.path, "manifest.json").stat().st_size
        )
        results["checkpoint"] = {
            "seconds": wall,
            "overhead_seconds": wall - base_wall,
            "overhead_per_epoch_seconds": (wall - base_wall) / epochs,
            "load_seconds": load_seconds,
            "checkpoint_bytes": state_bytes,
            "bit_identical": losses == clean_losses,
        }
        print(
            f"  checkpointing every epoch: +{wall - base_wall:.2f}s total, "
            f"{state_bytes / 1e6:.2f} MB/checkpoint, "
            f"load {load_seconds * 1e3:.1f} ms"
        )
    finally:
        shutil.rmtree(ckdir, ignore_errors=True)

    # Interrupt-and-resume: first half checkpointed, second half resumed
    # in a fresh APT; the stitched run must reproduce the clean losses.
    half = max(epochs // 2, 1)
    ckdir = tempfile.mkdtemp(prefix="bench-ck-")
    try:
        _run(_build_apt(ds, checkpoint_dir=ckdir), half)
        t0 = time.perf_counter()
        _, losses, _ = _run(_build_apt(ds), epochs, resume=ckdir)
        resume_wall = time.perf_counter() - t0
        results["resume"] = {
            "resumed_epochs": epochs - half,
            "seconds": resume_wall,
            "bit_identical": losses == clean_losses,
        }
        print(
            f"  resume of epochs {half}..{epochs}: {resume_wall:.2f}s, "
            f"identical={losses == clean_losses}"
        )
    finally:
        shutil.rmtree(ckdir, ignore_errors=True)


def run_all(quick: bool) -> dict:
    epochs = 2 if quick else 6
    ds = ps_like(6_000 if quick else 12_000)
    results: dict = {"quick": quick, "epochs": epochs}
    print("chaos recovery:")
    clean_losses = bench_chaos(results, ds, epochs)
    print("checkpoint/resume:")
    bench_checkpoint(results, ds, epochs, clean_losses)
    return results


def check(results: dict, max_overhead: float) -> int:
    failures = []
    for name, entry in results.items():
        if not isinstance(entry, dict) or "bit_identical" not in entry:
            continue
        if not entry["bit_identical"]:
            failures.append(f"{name}: results diverged from the clean run")
        if entry.get("faults_fired") == 0.0:
            failures.append(
                f"{name}: no fault fired — schedule indices out of range?"
            )
        overhead = entry.get("recovery_overhead_seconds")
        if overhead is not None and overhead > max_overhead:
            failures.append(
                f"{name}: recovery overhead {overhead:.1f}s "
                f"> {max_overhead:.1f}s"
            )
    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer epochs / smaller graph (CI mode)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on divergence or slow recovery")
    parser.add_argument("--max-overhead", type=float, default=30.0,
                        help="max tolerated chaos recovery overhead, seconds")
    parser.add_argument("--output", type=pathlib.Path, default=BASELINE_PATH,
                        help="where to write the results JSON")
    args = parser.parse_args(argv)

    results = run_all(args.quick)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.output}")
    if args.check:
        return check(results, args.max_overhead)
    return 0


if __name__ == "__main__":
    sys.exit(main())
