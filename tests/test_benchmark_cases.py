"""The benchmark case runner (``benchmarks/cases.py``) on a fake registry.

Per-case failure isolation, the output rules, and the shape of the real
case list; no real case runs here.
"""

import importlib
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

#: the paper figures and tables, the extensions beside them, the system
#: gates, and the explicit-only 1M-node out-of-core run
REAL_CASES = {
    "fig01_motivation", "fig06_sanity_accuracy", "fig07_sanity_time",
    "table3_skewness", "fig08a_hidden_dim", "fig08b_fanout",
    "fig08c_cache_size", "fig09_multimachine", "table4_apt_speedup",
    "fig10_gat", "fig11_random_partition", "partition_quality",
    "fig12_cost_model", "ablation_cache_policy", "ablation_nvlink_cache",
    "ablation_overlap", "ablation_planner", "generality_gcn",
    "hybrid_strategy", "online_replan",
    "parallel", "fault_tolerance", "segment_shapes", "elastic", "hetero",
    "hybrid", "outofcore", "serving", "outofcore_1m",
}


@pytest.fixture(scope="module")
def cases():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCHMARKS))
        return importlib.import_module("cases")


class Fake:
    """A case whose run may raise and whose claim may not hold."""

    explicit = False

    def __init__(self, name, *, raises=None, holds=True, explicit=False):
        self.name, self.raises, self.holds, self.explicit = name, raises, holds, explicit
        self.runs = []

    def run(self, quick):
        self.runs.append(quick)
        if self.raises is not None:
            raise self.raises
        return {"case": self.name, "quick": quick}

    def check(self, result):
        # raised by hand: pytest rewrites this module's own asserts
        if not self.holds:
            raise AssertionError(f"{self.name} claim broken")

    def table(self, result):
        return [f"table of {self.name}"]


@pytest.fixture
def registry(cases, monkeypatch):
    fakes = [
        Fake("first"),
        Fake("broken_claim", holds=False),
        Fake("raising", raises=ValueError("boom")),
        Fake("last"),
        Fake("named_only", explicit=True),
    ]
    monkeypatch.setattr(cases, "CASES", fakes)
    return {f.name: f for f in fakes}


def test_failures_are_reported_per_case_and_the_rest_still_run(cases, registry, capsys):
    assert cases.main(["--check", "--quick"]) == 1
    out = capsys.readouterr().out
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails == [
        "FAIL broken_claim: broken_claim claim broken",
        "FAIL raising: ValueError: boom",
    ]
    assert registry["last"].runs == [True]
    assert "table of last" in out
    assert registry["named_only"].runs == []


def test_without_check_a_broken_claim_passes(cases, registry):
    registry["raising"].raises = None
    assert cases.main([]) == 0
    assert registry["first"].runs == [False]


def test_output_has_one_key_per_case_run(cases, registry, tmp_path):
    out = tmp_path / "sub" / "out.json"
    assert cases.main(["--case", "named_only", "first", "--output", str(out)]) == 0
    assert json.loads(out.read_text()) == {
        "first": {"case": "first", "quick": False},
        "named_only": {"case": "named_only", "quick": False},
    }


def test_nothing_is_written_without_output(cases, registry, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = sorted(p.name for p in BENCHMARKS.iterdir())
    assert cases.main(["--check"]) == 1
    assert list(tmp_path.iterdir()) == []
    assert sorted(p.name for p in BENCHMARKS.iterdir()) == before


def test_real_registry(cases):
    names = [case.name for case in cases.CASES]
    assert len(names) == len(set(names))
    assert set(names) == REAL_CASES
    assert {c.name for c in cases.CASES if c.explicit} == {"outofcore_1m"}
    for case in cases.CASES:
        assert (type(case).__doc__ or "").strip(), case.name
