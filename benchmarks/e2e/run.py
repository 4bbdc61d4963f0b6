#!/usr/bin/env python3
"""One end-to-end benchmark on both clocks (see README.md next to this file).

    python3 benchmarks/e2e/run.py                       # all five workloads
    python3 benchmarks/e2e/run.py --workload plan --seed 1
    python3 benchmarks/e2e/run.py --workload serve --trace 1   # per-layer pass
    python3 benchmarks/e2e/run.py --smoke --trace 1            # tiny sizes

Each workload runs in a child process of its own (``workloads.py``), one at
a time, in a hermetic environment.  This runner prints every metric by
name with its unit, checks the outputs, and leaves nothing running: it
becomes a child subreaper, starts the child in its own session, enforces a
hard timeout that kills the whole process group, reaps every descendant,
and verifies that no process, ``/dev/shm`` segment or work directory
remains — on success, failure, timeout and Ctrl-C alike.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import pathlib
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Set, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: the driver allows 180 s per run; stop well before it does
HARD_TIMEOUT_S = 150.0
#: how long orphans (the multiprocessing resource tracker) get to exit on
#: their own after the workload process has ended
REAP_GRACE_S = 5.0
PR_SET_CHILD_SUBREAPER = 36


# ---------------------------------------------------------------------- #
# environment
# ---------------------------------------------------------------------- #
def hermetic_env() -> Dict[str, str]:
    """The children's environment: no ``REPRO_*`` switch survives (they
    silently change back-ends, fusion, arena, chaos), BLAS runs one thread,
    and ``repro`` is imported from this checkout only."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def describe_env(seed: int) -> Dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg()[0],
        "seed": seed,
    }


# ---------------------------------------------------------------------- #
# leaving nothing running
# ---------------------------------------------------------------------- #
def become_subreaper() -> bool:
    """Orphaned descendants re-parent to this process, so the reap loop
    below sees them.  False where ``prctl`` is unavailable; the ``/proc``
    scan still finds (and kills) stragglers by session then."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                               ctypes.c_ulong, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def session_members(sid: int) -> List[int]:
    """Pids (live or zombie) whose session is ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while we looked
        if int(fields[3]) == sid:  # state ppid pgrp session ...
            members.append(int(entry))
    return members


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def reap_descendants(sid: int) -> List[str]:
    """Wait for every descendant to end; kill what outlives the grace
    period.  Returns the problems found (empty = clean)."""
    problems: List[str] = []
    deadline = time.monotonic() + REAP_GRACE_S
    killed = False
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            if not session_members(sid):
                break
            pid = 0  # not our children (no subreaper): poll /proc instead
        if pid == 0:
            if time.monotonic() > deadline:
                if killed:
                    problems.append(
                        f"processes {session_members(sid)} survived SIGKILL"
                    )
                    break
                problems.append(
                    f"processes {session_members(sid)} were still running "
                    f"{REAP_GRACE_S:.0f} s after the workload ended; killed"
                )
                kill_group(sid)
                killed = True
                deadline = time.monotonic() + REAP_GRACE_S
            time.sleep(0.005)
    return problems


def shm_segments() -> Set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# ---------------------------------------------------------------------- #
# one workload
# ---------------------------------------------------------------------- #
def run_workload(name: str, args) -> Tuple[Optional[dict], List[str]]:
    """Run one workload in its own session; returns its result (None when
    it produced none) and the problems the runner itself found."""
    workdir = HERE / "_work" / f"{os.getpid()}-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / "result.json"
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--result", str(result_path),
        "--out", str(args.out),
    ]
    if args.smoke:
        command.append("--smoke")

    problems: List[str] = []
    result: Optional[dict] = None
    shm_before = shm_segments()
    cpu_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    child = subprocess.Popen(
        command, env=hermetic_env(), cwd=str(ROOT), start_new_session=True,
        stdout=sys.stderr,  # the child's own prints are diagnostics
    )
    try:
        try:
            code = child.wait(timeout=HARD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problems.append(f"timed out after {HARD_TIMEOUT_S:.0f} s; killed")
            kill_group(child.pid)
            code = child.wait()
        if code != 0:
            problems.append(f"workload process exited with code {code}")
        if result_path.is_file():
            with open(result_path) as fh:
                result = json.load(fh)
    finally:
        # Also the path of Ctrl-C and of any error above.
        if child.poll() is None:
            kill_group(child.pid)
            child.wait()
        problems += reap_descendants(child.pid)
        leaked = shm_segments() - shm_before
        for segment in sorted(leaked):
            problems.append(f"/dev/shm/{segment} was left behind; removed")
            try:
                os.unlink(f"/dev/shm/{segment}")
            except OSError:
                pass
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.exists():
            problems.append(f"work directory {workdir} could not be removed")
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    if result is not None:
        cpu_after = resource.getrusage(resource.RUSAGE_CHILDREN)
        # CPU of the workload's whole process tree: shows when wall time
        # was bought with extra cores.  Deliberately not an end-to-end gate.
        result["proc"] = {
            "proc.cpu_user_s": cpu_after.ru_utime - cpu_before.ru_utime,
            "proc.cpu_sys_s": cpu_after.ru_stime - cpu_before.ru_stime,
        }
        if "per_layer" in result:
            result["per_layer"].update(result["proc"])
    return result, problems


# ---------------------------------------------------------------------- #
# reporting
# ---------------------------------------------------------------------- #
def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def print_report(result: dict, problems: List[str], spec: dict) -> None:
    name = result["workload"]
    failed, attempted = result["failed"], result["attempted"]
    print(f"\n===== {name} (seed {result['seed']}"
          f"{', smoke sizes' if result['smoke'] else ''}) =====")
    print(f"sizes: {json.dumps(result['sizes'])}")
    print(f"repetitions: {result['reps']} ({result['traced_reps']} traced); "
          f"operation = one {result['op']}")
    print(f"failed_share: {failed / max(attempted, 1):.6g} "
          f"({failed} failed of {attempted} attempted)")
    for note in result["notes"]:
        print(f"note: {note}")
    print("raw host-clock samples (untraced repetitions)"
          f"{'':>4}{'median':>12}{'q1':>12}{'q3':>12}{'n':>5}")
    for key, values in result["timings"].items():
        q1, med, q3 = quartiles(values)
        print(f"  {key:<44}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{len(values):>5}  s")
    print("end-to-end metrics")
    for metric in spec["end_to_end"]:
        value = result["end_to_end"][metric["name"]]
        print(f"  {metric['name']:<18}{value:>16.6f} {metric['unit']:<6}"
              f"({metric['better']} is better, bound {metric['bound']})")
    print("  setup_s and work_host_s are host seconds scaled to the reference "
          "machine; unscaled: "
          + ", ".join(f"{k}={v:.6f} s" for k, v in result["raw"].items()))
    det = result["deterministic"]
    print("deterministic under a fixed seed (simulated clock and digests): "
          + ", ".join(f"{k}={v}" for k, v in det.items()))
    if "per_layer" in result:
        print("per-layer metrics (traced pass; span self time = duration "
              "minus child spans)")
        for metric in spec["per_layer"]:
            value = result["per_layer"].get(metric["name"], 0.0)
            print(f"  {metric['name']:<40}{value:>18.6f} {metric['unit']}")
        for path in result.get("trace_files", []):
            print(f"trace written: {path}")
    else:
        for key, value in result["proc"].items():
            print(f"  {key:<18}{value:>16.6f} s     (whole process tree; not a gate)")
    for line in result["failures"] + problems:
        print(f"FAIL {name}: {line}")


def final_object(result: Optional[dict], problems: List[str], spec: dict,
                 trace: int) -> dict:
    if result is None:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    failed = result["failed"] + len(problems)
    if trace:
        source, wanted = result["per_layer"], spec["per_layer"]
    else:
        source, wanted = result["end_to_end"], spec["end_to_end"]
    metrics = {
        m["name"]: {"value": float(source.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    return {
        "correct": failed == 0,
        "attempted": max(int(result["attempted"]), 1),
        "failed": int(failed),
        "metrics": metrics,
    }


# ---------------------------------------------------------------------- #
def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} not found — the benchmark "
              "drives the program in this checkout and cannot run without it",
              file=sys.stderr)
        return 2
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--workload", choices=names, default=None,
                        help="run one workload (default: all, one at a time)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds dataset, APTConfig, model init, LoadGenerator")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="keep repeating the workload for this long")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced pass, report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, two repetitions (self-test)")
    parser.add_argument("--out", type=pathlib.Path, default=HERE / "out",
                        help="directory for <workload>.json results and traces")
    args = parser.parse_args(argv)
    args.out = args.out.resolve()
    if args.smoke:
        args.seconds = 0.0

    become_subreaper()
    env = describe_env(args.seed)
    print("env: " + json.dumps(env))
    results: Dict[str, dict] = {}
    ok = True
    last = None
    for name in [args.workload] if args.workload else names:
        result, problems = run_workload(name, args)
        last = final_object(result, problems, spec, args.trace)
        ok = ok and last["correct"]
        if result is None:
            for line in problems:
                print(f"FAIL {name}: {line}")
        else:
            results[name] = result
            result["env"] = env
            result["runner_problems"] = problems
            print_report(result, problems, spec)
            args.out.mkdir(parents=True, exist_ok=True)
            with open(args.out / f"{name}.json", "w") as fh:
                json.dump(result, fh, indent=1)
        if args.workload is None:
            print(json.dumps(last))

    # Same task, same seed: the process backend may change host seconds only.
    if "train_serial" in results and "train_process" in results:
        a = results["train_serial"]["deterministic"]
        b = results["train_process"]["deterministic"]
        same = a == b
        print(f"\ntrain_serial vs train_process: losses + simulated epochs "
              f"digest {'identical' if same else 'DIFFER'} ({a['digest']} / "
              f"{b['digest']})")
        if not same:
            print("FAIL train_process: simulated output differs from train_serial")
            ok = False
    if args.workload is not None:
        print(json.dumps(last))
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
