#!/usr/bin/env python3
"""Run two full sets of the benchmark on the same code and compare them.

    python3 benchmarks/e2e/check_repeat.py [--seed S] [--seconds N] [--smoke]

Prints, per workload and end-to-end metric, both values, the relative
difference and the bound from ``BENCHMARK.json``.  Exits non-zero when a
host-clock metric or ``peak_rss_mb`` differs by more than its bound, or
when anything that is deterministic under a fixed seed — ``work_sim_s``,
``plan_regret``, ``costmodel_max_rel_err``, the result digests — differs
at all.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: end-to-end metrics that must repeat exactly (simulated clock)
EXACT = ("work_sim_s",)


def run_set(label: str, out: pathlib.Path, passthrough: list) -> int:
    print(f"--- set {label} ---", flush=True)
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--out", str(out)] + passthrough,
        cwd=str(ROOT), stdout=subprocess.DEVNULL,
    ).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    passthrough = ["--seed", str(args.seed)]
    if args.seconds is not None:
        passthrough += ["--seconds", str(args.seconds)]
    if args.smoke:
        passthrough.append("--smoke")

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    outs = {label: HERE / "out" / f"repeat_{label}" for label in ("a", "b")}
    bad = 0
    for label, out in outs.items():
        if run_set(label, out, passthrough) != 0:
            print(f"FAIL set {label}: run.py exited non-zero")
            bad += 1

    print(f"\n{'workload':<15}{'metric':<14}{'set a':>14}{'set b':>14}"
          f"{'rel diff':>10}{'bound':>8}")
    for workload in (w["name"] for w in spec["workloads"]):
        try:
            a, b = (json.load(open(outs[label] / f"{workload}.json"))
                    for label in ("a", "b"))
        except OSError as exc:
            print(f"FAIL {workload}: no result ({exc})")
            bad += 1
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = a["end_to_end"][name], b["end_to_end"][name]
            diff = abs(va - vb) / min(abs(va), abs(vb)) if va and vb else float("inf")
            bound = 0.0 if name in EXACT else metric["bound"]
            ok = diff <= bound
            bad += not ok
            print(f"{workload:<15}{name:<14}{va:>14.6f}{vb:>14.6f}{diff:>10.4f}"
                  f"{bound:>8}{'' if ok else '  FAIL'}")
        for key in sorted(set(a["deterministic"]) | set(b["deterministic"])):
            va, vb = a["deterministic"].get(key), b["deterministic"].get(key)
            ok = va == vb
            bad += not ok
            print(f"{workload:<15}{key:<24}{'identical' if ok else f'{va} != {vb}  FAIL'}")
    print("\nrepeat check " + ("passed" if not bad else f"FAILED ({bad})"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
