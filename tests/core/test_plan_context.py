"""Pins of the plan context (DESIGN.md §5.9): one owner per memo lifetime.

* only ``core/apt.py`` reads ``APT``'s private attributes;
* one planner-call sequence builds one ``CostModel`` per distinct cluster;
* a membership change swaps ``apt.context`` for the survivors' (the
  partition a fresh ``APT`` computes), a drift re-plan leaves it alone;
* ``plan(objective="latency")`` returns the serving ranking without
  replacing the plan ``run()`` adopts;
* a resumed run loads its checkpoint once.
"""

import ast
import pathlib
from collections import Counter

import numpy as np

from repro.cluster import multi_machine_cluster, single_machine_cluster
from repro.cluster.faults import FaultEvent, FaultSchedule
from repro.config import APTConfig
from repro.core import APT
from repro.core.checkpoint import CheckpointManager
from repro.core.costmodel import CostModel
from repro.models import GraphSAGE

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def _apt(dataset, cluster, **overrides):
    kwargs = dict(fanouts=(4, 4), global_batch_size=256, seed=0)
    kwargs.update(overrides)
    model = GraphSAGE(dataset.feature_dim, 8, dataset.num_classes, 2, seed=1)
    return APT(dataset, model, cluster, APTConfig(**kwargs))


def _two_by_two(dataset):
    return multi_machine_cluster(
        2, 2, gpu_cache_bytes=dataset.feature_bytes * 0.06
    )


def test_no_module_reads_apt_privates():
    """Outside ``core/apt.py``, an ``apt`` object is used only through its
    public surface (``apt.context``, ``apt.config``, ``apt.prepare`` ...)."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "core" / "apt.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            owner_name = (
                owner.id if isinstance(owner, ast.Name)
                else owner.attr if isinstance(owner, ast.Attribute)
                else None
            )
            if (
                owner_name == "apt"
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
            ):
                rel = path.relative_to(SRC)
                sites.append(f"{rel}:{node.lineno}: apt.{node.attr}")
    assert sites == []


def test_one_cost_model_per_cluster(tiny_dataset, monkeypatch):
    """plan / plan_layerwise / plan(cost) / plan(latency) and the run-start
    estimate share the context's cost model; each device subset gets one."""
    built = Counter()
    real_init = CostModel.__init__

    def counting_init(self, cluster, *args, **kwargs):
        built[cluster] += 1
        real_init(self, cluster, *args, **kwargs)

    monkeypatch.setattr(CostModel, "__init__", counting_init)
    apt = _apt(tiny_dataset, _two_by_two(tiny_dataset))
    apt.plan()
    apt.plan_layerwise()
    assert apt.plan(objective="cost").plan.subsets  # the subset sweep ran
    apt.plan(objective="latency", batch_size=16, max_wait_s=0.002)
    apt.plan_report = None  # the run-start estimate asks the context
    apt.run_strategy("gdp", 1, numerics=False, replan=True)
    assert built[apt.cluster] == 1
    assert len(built) >= 2
    assert set(built.values()) == {1}


class TestContextLifetime:
    def test_host_leave_replaces_the_context(self, tiny_dataset):
        cluster = _two_by_two(tiny_dataset)
        apt = _apt(tiny_dataset, cluster)
        before = apt.context
        leave = FaultSchedule(
            [FaultEvent(epoch=1, kind="host_leave", machine=1)]
        )
        apt.run_strategy("gdp", 2, numerics=False, faults=leave)
        survivors = cluster.without_machine(1)
        assert apt.context is not before
        assert apt.context.cluster == survivors
        fresh = _apt(tiny_dataset, survivors)
        np.testing.assert_array_equal(apt.context.parts, fresh.context.parts)
        np.testing.assert_array_equal(
            apt.context.node_machine, fresh.context.node_machine
        )

    def test_drift_replan_keeps_the_context(self, tiny_dataset):
        apt = _apt(tiny_dataset, _two_by_two(tiny_dataset))
        before = apt.context
        degrade = FaultSchedule(
            [FaultEvent(epoch=1, kind="link_degrade", factor=0.01)]
        )
        report = apt.run_strategy(
            "gdp", 3, numerics=False, replan=True, faults=degrade
        )
        assert report.num_replans >= 1
        assert apt.context is before


#: ``plan_serving(batch_size=16, max_wait_s=0.002)`` of the 2-GPU serving
#: task in tests/serve/test_engine.py, as the API before ``plan()`` took the
#: latency objective returned it (float.hex, exact)
LATENCY_PLAN = {
    "gdp": ("0x1.104fd88089c40p-17", "0x1.0dc0e13d755afp-24",
            "0x1.0888ed186b10ap-10", "0x1.0756e523c2d83p-9"),
    "dnp": ("0x1.99e6431eebdd7p-16", "0x1.68b0ba9169699p-23",
            "0x1.0d40ce98df03fp-10", "0x1.09b2d5e3fcd1dp-9"),
    "nfp": ("0x1.99e6431eebdd7p-16", "0x1.91f523d271e03p-23",
            "0x1.0d5570cd7f882p-10", "0x1.09bd26fe4d13fp-9"),
    "snp": ("0x1.55d24cfec96c7p-15", "0x1.73735a5fadbf4p-23",
            "0x1.118d294440c20p-10", "0x1.0bd90339adb0ep-9"),
}


class TestLatencyObjective:
    def _serving_apt(self, dataset):
        cluster = single_machine_cluster(
            2, gpu_cache_bytes=dataset.feature_bytes * 0.06
        )
        return _apt(dataset, cluster)

    def test_latency_plan_values(self, tiny_dataset):
        apt = self._serving_apt(tiny_dataset)
        plan = apt.plan(objective="latency", batch_size=16, max_wait_s=0.002).plan
        assert plan.objective == "latency"
        assert plan.chosen == "gdp"
        assert plan.ranking == ["gdp", "dnp", "nfp", "snp"]
        for name, want in LATENCY_PLAN.items():
            e = plan.estimates[name]
            assert e.batch_size == 16
            got = (e.t_fixed, e.t_per_seed, e.p50, e.p99)
            assert got == tuple(float.fromhex(h) for h in want), name

    def test_latency_plan_is_not_adopted_by_run(self, tiny_dataset):
        apt = self._serving_apt(tiny_dataset)
        apt.plan(objective="latency")
        assert apt.plan_report is None
        epoch_plan = apt.plan().plan
        apt.plan(objective="latency", batch_size=16, max_wait_s=0.002)
        assert apt.plan_report is epoch_plan


def test_resume_loads_the_checkpoint_once(tiny_dataset, tmp_path, monkeypatch):
    ckdir = str(tmp_path / "ck")
    cluster = _two_by_two(tiny_dataset)
    _apt(tiny_dataset, cluster, checkpoint_dir=ckdir).run_strategy(
        "gdp", 1, numerics=False
    )
    loads = []
    real_load = CheckpointManager.load

    def counting_load(self, path=None):
        loads.append(path)
        return real_load(self, path)

    monkeypatch.setattr(CheckpointManager, "load", counting_load)
    report = _apt(tiny_dataset, cluster).run(
        2, numerics=False, resume=ckdir
    )
    assert len(loads) == 1
    assert report.strategy_by_epoch == ["gdp", "gdp"]
