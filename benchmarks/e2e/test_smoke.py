"""Self-test of the end-to-end benchmark at ``--smoke`` sizes.

Not part of tier-1 (``testpaths = ["tests"]``); run it directly::

    python -m pytest benchmarks/e2e/test_smoke.py
"""

import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

sys.path.insert(0, str(HERE))
from run import session_members  # noqa: E402  (the runner's own /proc scan)


def test_smoke_prints_every_metric_and_leaves_nothing(tmp_path):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    shm_before = set(os.listdir("/dev/shm"))

    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "1",
         "--out", str(tmp_path)],
        cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, out[-4000:] + err[-4000:]
    assert "FAIL" not in out

    # one result line per workload, each correct, each with every per-layer
    # metric; every end-to-end metric is printed by name with its unit
    lines = [json.loads(l) for l in out.splitlines() if l.startswith('{"correct"')]
    assert len(lines) == len(spec["workloads"])
    per_layer = {m["name"] for m in spec["per_layer"]}
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == per_layer
    for workload in spec["workloads"]:
        assert f"===== {workload['name']} " in out
        result = json.loads((tmp_path / f"{workload['name']}.json").read_text())
        for metric in spec["end_to_end"]:
            assert result["end_to_end"][metric["name"]] > 0
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert f"  {metric['name']} " in out, metric["name"]
    assert "digest identical" in out  # train_serial vs train_process

    # nothing left: no process in the runner's session (the runner itself
    # reports a FAIL line for the sessions it started), no shared-memory
    # segment, no work directory
    assert not session_members(proc.pid)
    assert set(os.listdir("/dev/shm")) <= shm_before
    assert not (HERE / "_work").exists()


def test_driver_contract_lines():
    """``--workload W --seed n --seconds s --trace 0`` ends in one JSON
    object holding exactly the end-to-end metrics."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "serve", "--seed", "1",
         "--seconds", "0", "--trace", "0", "--smoke"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    last = json.loads(out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, cell in last["metrics"].items():
        assert cell["unit"] == units[name] and cell["value"] > 0
