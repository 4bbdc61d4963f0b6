"""Chaos-equivalence: seeded host faults never change the results.

The contract (DESIGN.md §5.11): under any seeded ``HostFaultSchedule``
— workers killed or hung past their deadline — a process-backend run
recovers and finishes bit-identical
(losses, parameters, simulated Timeline) to the undisturbed serial run.
Even the failure-budget path holds it: degradation falls back to the
serial sampler, which is bit-identical by the §5.10 backend contract.
"""

import numpy as np
import pytest

from repro.cluster import multi_machine_cluster
from repro.config import APTConfig
from repro.core import APT
from repro.models import GraphSAGE
from repro.parallel import FaultPolicy, HostFaultSchedule

#: quick supervision knobs: short deadline so hang tests stay fast, tiny
#: backoff so retries don't dominate the test's wall clock
FAST_POLICY = dict(
    task_deadline_s=1.5,
    max_retries=3,
    failure_budget=16,
    backoff_base_s=0.01,
    backoff_max_s=0.05,
    drain_timeout_s=2.0,
)


def _run(ds, backend, *, chaos=None, policy=None, epochs=2, strategy="dnp"):
    model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, 2, seed=1)
    cluster = multi_machine_cluster(
        2, 2, gpu_cache_bytes=ds.feature_bytes * 0.06
    )
    config = APTConfig(
        fanouts=(4, 4),
        global_batch_size=128,
        seed=0,
        execution_backend=backend,
        num_workers=2,
        prefetch_depth=2,
        fault_policy=FaultPolicy(**dict(FAST_POLICY, **(policy or {}))),
        host_chaos=chaos,
    )
    apt = APT(ds, model, cluster, config)
    apt.prepare()
    report = apt.run_strategy(strategy, epochs)
    return report, model


def _facts(report):
    return (
        [e.mean_loss for e in report.result.epochs],
        [e.phases for e in report.result.epochs],
        [e.num_batches for e in report.result.epochs],
    )


def _assert_states_equal(ma, mb):
    sa, sb = ma.state_dict(), mb.state_dict()
    assert sa.keys() == sb.keys()
    for k in sa:
        np.testing.assert_array_equal(sa[k], sb[k])


def _kinds(report):
    return {e.kind for e in report.collector.events}


@pytest.fixture(scope="module")
def baseline(tiny_dataset):
    return _run(tiny_dataset, "serial")


class TestChaosEquivalence:
    def test_kill_respawns_and_converges(self, tiny_dataset, baseline):
        r_serial, m_serial = baseline
        chaos = HostFaultSchedule.parse("kill@1")
        r_proc, m_proc = _run(tiny_dataset, "process", chaos=chaos)
        assert _facts(r_serial) == _facts(r_proc)
        _assert_states_equal(m_serial, m_proc)
        kinds = _kinds(r_proc)
        assert "chaos" in kinds
        # The death is observed either directly (worker_respawn) or via
        # the killed task's deadline (worker_timeout) — both end in retry.
        assert kinds & {"worker_respawn", "worker_timeout"}
        assert "task_retry" in kinds

    def test_hang_times_out_and_converges(self, tiny_dataset, baseline):
        r_serial, m_serial = baseline
        chaos = HostFaultSchedule.parse("hang@1:30.0")
        r_proc, m_proc = _run(
            tiny_dataset, "process", chaos=chaos,
            policy={"task_deadline_s": 0.75},
        )
        assert _facts(r_serial) == _facts(r_proc)
        _assert_states_equal(m_serial, m_proc)
        kinds = _kinds(r_proc)
        assert "worker_timeout" in kinds and "task_retry" in kinds

    def test_mixed_schedule_converges(self, tiny_dataset, baseline):
        r_serial, m_serial = baseline
        chaos = HostFaultSchedule.parse("kill@0;hang@2:30.0")
        r_proc, m_proc = _run(tiny_dataset, "process", chaos=chaos)
        assert _facts(r_serial) == _facts(r_proc)
        _assert_states_equal(m_serial, m_proc)
        assert "worker_timeout" in _kinds(r_proc)

    def test_hyb_kill_respawns_and_converges(self, tiny_dataset):
        """The GDPxSNP hybrid survives chaos bit-identically too — it was
        previously pinned only under the serial backend."""
        r_serial, m_serial = _run(tiny_dataset, "serial", strategy="hyb")
        chaos = HostFaultSchedule.parse("kill@1;hang@2:30.0")
        r_proc, m_proc = _run(
            tiny_dataset, "process", chaos=chaos, strategy="hyb"
        )
        assert _facts(r_serial) == _facts(r_proc)
        _assert_states_equal(m_serial, m_proc)
        kinds = _kinds(r_proc)
        assert "chaos" in kinds and "task_retry" in kinds

    def test_budget_exhaustion_degrades_to_serial(self, tiny_dataset, baseline):
        r_serial, m_serial = baseline
        # Every early task dies; zero retries allowed: the very first
        # failure breaches the budget and the backend must fall back.
        chaos = HostFaultSchedule.parse("kill@0;kill@1;kill@2;kill@3")
        r_proc, m_proc = _run(
            tiny_dataset, "process", chaos=chaos,
            policy={"max_retries": 0, "failure_budget": 0},
        )
        assert _facts(r_serial) == _facts(r_proc)
        _assert_states_equal(m_serial, m_proc)
        assert "degraded" in _kinds(r_proc)
