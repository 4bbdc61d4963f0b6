"""Inventory of the ``REPRO_*`` environment variables the package reads.

Every variable is an option that tests and benchmarks must cover, so the
set is pinned: a new one fails here until this list is edited on purpose.
"""

import re
from pathlib import Path

import repro

KNOBS = {
    "REPRO_ELASTIC",
    "REPRO_ELASTIC_REPLAN",
    "REPRO_EXECUTION_BACKEND",
    "REPRO_NUM_WORKERS",
    "REPRO_PREFETCH_DEPTH",
    "REPRO_DISK_PROMOTE_MB",
    "REPRO_CHAOS",
    "REPRO_TASK_DEADLINE_S",
    "REPRO_MAX_RETRIES",
    "REPRO_FAILURE_BUDGET",
}


def test_env_knobs_are_the_pinned_set():
    package = Path(repro.__file__).parent
    found = set()
    for path in package.rglob("*.py"):
        found.update(re.findall(r"REPRO_[A-Z_]+", path.read_text(encoding="utf-8")))
    assert found == KNOBS
