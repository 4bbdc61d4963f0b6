#!/usr/bin/env python3
"""The reproduction's benchmark cases: one list, one runner.

Each case regenerates one table or figure of the paper's evaluation (§5),
or one claim of a system extension, and states it in its docstring::

    python benchmarks/cases.py                        # every case, print tables
    python benchmarks/cases.py --quick --check        # CI: smaller runs, assert claims
    python benchmarks/cases.py --case fig12_cost_model hybrid --check
    python benchmarks/cases.py --output out.json      # {case: result} as JSON

Nothing is written without ``--output``.  A case whose run raises or whose
check fails prints one ``FAIL <case>: <message>`` line; the other cases
still run, and the exit status is 1.  ``outofcore_1m`` (a 1M-node dataset,
~1 GB of disk) runs only when named.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
import traceback
from typing import List, Optional

# ``figures`` / ``systems`` sit next to this file (the script's directory is
# on the path when it runs); ``repro`` is installed or in ``../src``.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import figures  # noqa: E402
import repro.parallel  # noqa: E402
import systems  # noqa: E402

#: run order.  The host-clock cases come first: earlier allocation churn
#: visibly slows the process-backend arms of ``parallel`` on small hosts.
CASES: List[figures.Case] = [
    systems.Parallel(),
    systems.FaultTolerance(),
    systems.SegmentShapes(),
    figures.Fig01Motivation(),
    figures.Fig06SanityAccuracy(),
    figures.Fig07SanityTime(),
    figures.Table3Skewness(),
    figures.Fig08aHiddenDim(),
    figures.Fig08bFanout(),
    figures.Fig08cCacheSize(),
    figures.Fig09Multimachine(),
    figures.Table4AptSpeedup(),
    figures.Fig10Gat(),
    figures.Fig11RandomPartition(),
    figures.PartitionQuality(),
    figures.Fig12CostModel(),
    figures.AblationCachePolicy(),
    figures.AblationNvlinkCache(),
    figures.AblationOverlap(),
    figures.AblationPlanner(),
    figures.GeneralityGcn(),
    figures.HybridStrategy(),
    figures.OnlineReplan(),
    systems.Elastic(),
    systems.Hetero(),
    systems.Hybrid(),
    systems.Outofcore(),
    systems.Serving(),
    systems.Outofcore1M(),
]


def _message(exc: BaseException) -> str:
    """One line: the exception's message, else the failing source line."""
    text = str(exc).strip()
    if not text:
        frames = traceback.extract_tb(exc.__traceback__)
        text = frames[-1].line if frames else ""
    if not isinstance(exc, AssertionError):
        text = f"{type(exc).__name__}: {text}"
    return " ".join(text.split())


def main(argv: Optional[List[str]] = None) -> int:
    names = [case.name for case in CASES]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--case", action="extend", nargs="+", choices=names, metavar="NAME",
        help="run only these cases, in list order (default: all but the "
        "explicit-only ones)",
    )
    parser.add_argument("--quick", action="store_true", help="smaller runs (CI mode)")
    parser.add_argument("--check", action="store_true", help="assert each case's claim")
    parser.add_argument("--output", type=pathlib.Path,
                        help="write {case: result} JSON here")
    args = parser.parse_args(argv)

    selected = [
        case for case in CASES
        if (case.name in args.case if args.case else not case.explicit)
    ]
    results, failures = {}, []
    try:
        for case in selected:
            print(f"\n===== {case.name} =====", flush=True)
            start = time.perf_counter()
            try:
                results[case.name] = case.run(args.quick)
                for line in case.table(results[case.name]):
                    print(line)
                if args.check:
                    case.check(results[case.name])
            except Exception as exc:  # report, then keep running the others
                if not isinstance(exc, AssertionError):
                    traceback.print_exc()
                failures.append(f"FAIL {case.name}: {_message(exc)}")
            print(f"({case.name}: {time.perf_counter() - start:.1f} s)", flush=True)
    finally:
        repro.parallel.shutdown()

    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(results, indent=2, default=float) + "\n")
        print(f"\nwrote {args.output}")
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
