"""Tests for the APT planner."""

import pytest

from repro.cluster import single_machine_cluster
from repro.core import CostEstimate, CostModel, Planner
from repro.core.dryrun import DryRunStats
from repro.engine import is_layerwise_spec, parse_layerwise
from repro.engine.context import VolumeRecorder


def fake_stats(name, t_build):
    rec = VolumeRecorder(2)
    return DryRunStats(
        strategy=name, recorder=rec, t_build=t_build, dim_fraction=1.0, num_batches=1
    )


class TestPlanner:
    def test_selects_minimum_total(self):
        cluster = single_machine_cluster(2)
        cm = CostModel(cluster, 16)
        planner = Planner(cm)
        stats = {
            "gdp": fake_stats("gdp", 5.0),
            "dnp": fake_stats("dnp", 1.0),
        }
        report = planner.select(stats)
        assert report.chosen == "dnp"
        assert report.ranking == ["dnp", "gdp"]

    def test_empty_stats_rejected(self):
        planner = Planner(CostModel(single_machine_cluster(2), 16))
        with pytest.raises(ValueError):
            planner.select({})

    def test_summary_marks_choice(self):
        cluster = single_machine_cluster(2)
        planner = Planner(CostModel(cluster, 16))
        report = planner.select({"gdp": fake_stats("gdp", 1.0)})
        text = report.summary()
        assert "gdp" in text and "*" in text


class TestTieOrder:
    """Exact cost ties must not be ordered by ``PYTHONHASHSEED`` — the
    layerwise search used to iterate a set of spec tuples."""

    SCRIPT = """
from repro.cluster import single_machine_cluster
from repro.core import CostModel, Planner
from repro.core.dryrun import DryRunStats
from repro.engine import is_layerwise_spec, parse_layerwise
from repro.engine.context import VolumeRecorder

def evaluate(spec):
    return DryRunStats(strategy=spec, recorder=VolumeRecorder(2), t_build=1.0,
                       dim_fraction=1.0, num_batches=1)

planner = Planner(CostModel(single_machine_cluster(2), 16))
print(";".join(planner.search_layerwise(evaluate, 3).ranking))
"""

    def test_ranking_identical_across_hash_seeds(self):
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        rankings = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", self.SCRIPT], env=env, check=True,
                capture_output=True, text=True, timeout=120,
            ).stdout.strip()
            rankings.append(out.split(";"))
        assert rankings[0] == rankings[1]
        assert len(rankings[0]) > 4  # singles and compositions, all tied
        assert rankings[0] == sorted(rankings[0], key=_spec_key)


def _spec_key(spec):
    """The assignment tuple a spec string stands for."""
    return tuple(parse_layerwise(spec)) if is_layerwise_spec(spec) else (spec,)


class TestCostEstimate:
    def test_as_dict(self):
        e = CostEstimate("gdp", 1.0, 2.0, 3.0, 0.5)
        d = e.as_dict()
        assert d["total"] == 6.5
        assert set(d) == {
            "t_build", "t_load", "t_shuffle", "t_skew", "total", "dollars",
        }
