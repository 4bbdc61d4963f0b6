"""Unit tests for the supervision layer (policy, chaos, workers)."""

import json
import time

import numpy as np
import pytest

from repro.parallel.chaos import (
    HOST_FAULT_KINDS,
    HostFaultEvent,
    HostFaultSchedule,
    split_injections,
)
from repro.graph.datasets import small_dataset
from repro.parallel.backend import export_task_data
from repro.parallel.supervisor import (
    TEARDOWN_ERRORS,
    FailureBudgetExceeded,
    FaultPolicy,
    Flight,
    SupervisionError,
    WorkerCrash,
    WorkerSet,
    WorkerSupervisor,
    WorkerTimeout,
)


class TestFaultPolicy:
    def test_defaults_are_valid(self):
        p = FaultPolicy()
        assert p.task_deadline_s > 0
        assert p.max_retries >= 0
        assert p.failure_budget >= 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"task_deadline_s": 0.0},
            {"task_deadline_s": -1.0},
            {"max_retries": -1},
            {"failure_budget": -1},
            {"backoff_base_s": -0.1},
            {"backoff_max_s": -0.1},
            {"drain_timeout_s": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FaultPolicy(**kwargs)

    def test_env_overrides(self, monkeypatch):
        # Only the deadline reads the environment (CI's chaos legs).
        monkeypatch.setenv("REPRO_TASK_DEADLINE_S", "1.5")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "7")
        monkeypatch.setenv("REPRO_FAILURE_BUDGET", "9")
        p = FaultPolicy()
        assert p.task_deadline_s == 1.5
        assert p.max_retries == 3
        assert p.failure_budget == 16

    def test_backoff_is_exponential_and_capped(self):
        p = FaultPolicy(backoff_base_s=0.1, backoff_max_s=0.5)
        assert p.backoff_at(0) == pytest.approx(0.1)
        assert p.backoff_at(1) == pytest.approx(0.2)
        assert p.backoff_at(2) == pytest.approx(0.4)
        assert p.backoff_at(3) == pytest.approx(0.5)  # capped
        assert p.backoff_at(50) == pytest.approx(0.5)

    def test_no_polling_knob(self):
        # Every wait blocks on pipes and process sentinels; there is no
        # cadence to configure.
        assert "poll_interval_s" not in FaultPolicy().to_dict()
        with pytest.raises(TypeError):
            FaultPolicy(poll_interval_s=0.01)

    def test_to_dict_roundtrips(self):
        p = FaultPolicy(task_deadline_s=2.0, max_retries=1)
        q = FaultPolicy(**p.to_dict())
        assert q.to_dict() == p.to_dict()


class TestExceptionTaxonomy:
    def test_all_failures_are_supervision_errors(self):
        for exc in (WorkerCrash, WorkerTimeout, FailureBudgetExceeded):
            assert issubclass(exc, SupervisionError)
        assert issubclass(SupervisionError, RuntimeError)

    def test_teardown_errors_are_scoped(self):
        # The teardown paths may swallow plumbing failures...
        for exc in (OSError, EOFError, BrokenPipeError):
            assert issubclass(exc, TEARDOWN_ERRORS)
        # ...but never programming errors.
        assert not issubclass(TypeError, TEARDOWN_ERRORS)
        assert not issubclass(KeyError, TEARDOWN_ERRORS)


class TestHostFaultEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            HostFaultEvent(task=-1, kind="kill")
        with pytest.raises(ValueError):
            HostFaultEvent(task=0, kind="meteor")
        with pytest.raises(ValueError):
            HostFaultEvent(task=0, kind="hang", seconds=0.0)

    def test_kinds_constant(self):
        assert HOST_FAULT_KINDS == ("kill", "hang")


class TestHostFaultSchedule:
    def test_compact_grammar(self):
        sched = HostFaultSchedule.parse("kill@1; hang@4:0.3, kill@6")
        kinds = [(e.kind, e.task) for e in sched.events]
        assert kinds == [("kill", 1), ("hang", 4), ("kill", 6)]
        hang = next(e for e in sched.events if e.kind == "hang")
        assert hang.seconds == pytest.approx(0.3)

    def test_bad_grammar_raises(self):
        with pytest.raises(ValueError):
            HostFaultSchedule.parse("explode@1")
        with pytest.raises(ValueError):
            HostFaultSchedule.parse("kill@")

    @pytest.mark.parametrize("item", ["corrupt@1", "leak@1"])
    def test_retired_kinds_name_the_live_ones(self, item):
        with pytest.raises(ValueError) as err:
            HostFaultSchedule.parse(item)
        msg = str(err.value)
        assert "\n" not in msg and "('kill', 'hang')" in msg

    def test_json_roundtrip_string_and_file(self, tmp_path):
        sched = HostFaultSchedule(
            [HostFaultEvent(task=3, kind="hang", seconds=0.5)],
            seed=11,
            jitter=0.05,
        )
        back = HostFaultSchedule.from_json(sched.to_json())
        assert back.to_dict() == sched.to_dict()
        path = tmp_path / "chaos.json"
        path.write_text(sched.to_json())
        assert HostFaultSchedule.from_json(path).to_dict() == sched.to_dict()

    def test_directives_fire_at_their_task_only(self):
        sched = HostFaultSchedule.parse("kill@2;hang@2:0.1;kill@5")
        assert [e.kind for e, _ in sched.directives_at(2)] == ["hang", "kill"]
        assert sched.directives_at(0) == []
        assert [e.kind for e, _ in sched.directives_at(5)] == ["kill"]

    def test_jitter_is_seeded_and_call_order_independent(self):
        events = [
            HostFaultEvent(task=1, kind="hang", seconds=1.0),
            HostFaultEvent(task=2, kind="hang", seconds=1.0),
        ]
        a = HostFaultSchedule(events, seed=3, jitter=0.2)
        b = HostFaultSchedule(events, seed=3, jitter=0.2)
        c = HostFaultSchedule(events, seed=4, jitter=0.2)
        # Walk a forwards and b backwards; draws depend on (seed, index).
        fa = [a.effective_seconds(i) for i in (0, 1)]
        fb = [b.effective_seconds(i) for i in (1, 0)][::-1]
        assert fa == fb
        assert fa != [c.effective_seconds(i) for i in (0, 1)]
        assert all(abs(f - 1.0) <= 0.2 for f in fa)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert HostFaultSchedule.from_env() is None
        monkeypatch.setenv("REPRO_CHAOS", "kill@1")
        sched = HostFaultSchedule.from_env()
        assert [e.kind for e in sched.events] == ["kill"]

    def test_validation(self):
        with pytest.raises(ValueError):
            HostFaultSchedule([], jitter=1.5)


class TestSplitInjections:
    def test_one_file_drives_both_layers(self, tmp_path):
        payload = {
            "seed": 5,
            "jitter": 0.1,
            "events": [{"epoch": 2, "kind": "link_degrade", "factor": 0.5}],
            "host_events": [{"task": 1, "kind": "kill"}],
        }
        path = tmp_path / "inject.json"
        path.write_text(json.dumps(payload))
        faults, chaos = split_injections(path)
        assert faults is not None and chaos is not None
        assert faults.seed == chaos.seed == 5
        assert [e.kind for e in faults.events] == ["link_degrade"]
        assert [e.kind for e in chaos.events] == ["kill"]

    def test_either_half_may_be_absent(self, tmp_path):
        sim_only = tmp_path / "sim.json"
        sim_only.write_text(json.dumps(
            {"events": [{"epoch": 1, "kind": "recover"}]}
        ))
        faults, chaos = split_injections(sim_only)
        assert faults is not None and chaos is None
        host_only = tmp_path / "host.json"
        host_only.write_text(json.dumps(
            {"host_events": [{"task": 0, "kind": "hang", "seconds": 1.0}]}
        ))
        faults, chaos = split_injections(host_only)
        assert faults is None and chaos is not None


# ---------------------------------------------------------------------- #
# failure diagnostics name the offender and the budget (DESIGN.md §5.16)
# ---------------------------------------------------------------------- #
def _bare_supervisor(*, failures=0, last_dead=(), **policy_kw):
    """A WorkerSupervisor shell with no workers — message-formatting only."""
    sup = WorkerSupervisor.__new__(WorkerSupervisor)
    sup.policy = FaultPolicy(**policy_kw)
    sup.failures = failures
    sup.last_dead = list(last_dead)
    sup.emit = lambda kind, **data: None
    sup.count = lambda name, value=1.0: None
    return sup


def _payload(**extra):
    return dict(
        epoch=0, chunks=[np.arange(8, dtype=np.int64)], fanouts=(2, 2),
        global_seed=0, **extra,
    )


class TestFailureDiagnostics:
    def test_budget_note_counts(self):
        sup = _bare_supervisor(failures=3, failure_budget=8)
        assert sup._budget_note() == "failures 3 / budget 8"

    def test_offender_note_names_pids(self):
        sup = _bare_supervisor(last_dead=[41, 42])
        assert sup._offender_note() == "worker pid 41, pid 42"
        quiet = _bare_supervisor()
        assert "no worker death observed" in quiet._offender_note()

    def _flight(self, attempts):
        return Flight(payload={}, attempts=attempts)

    def test_retry_exhaustion_message(self):
        sup = _bare_supervisor(failures=1, max_retries=2, failure_budget=9)
        with pytest.raises(FailureBudgetExceeded) as err:
            sup._retry(
                self._flight(attempts=2),
                WorkerTimeout("task missed its deadline"),
            )
        msg = str(err.value)
        assert "max_retries=2" in msg
        assert "failures 2 / budget 9" in msg
        assert "task missed its deadline" in msg

    def test_lifetime_budget_message_names_offender(self):
        sup = _bare_supervisor(
            failures=4, last_dead=[4242], max_retries=10, failure_budget=4
        )
        with pytest.raises(FailureBudgetExceeded) as err:
            sup._retry(
                self._flight(attempts=0),
                WorkerCrash("worker pid 4242 died"),
            )
        msg = str(err.value)
        assert "lifetime failure budget exhausted" in msg
        assert "failures 5 / budget 4" in msg
        assert "worker pid 4242" in msg

    def test_timeout_and_crash_messages_carry_budget(self):
        # One real worker: a task that hangs past its deadline and one
        # that kills its worker.  Both messages must name the worker that
        # held the task and carry the budget note; both workers must have
        # been replaced by the time the failure is raised.
        workers = WorkerSet(export_task_data(small_dataset(n=200)), 1)
        try:
            sup = WorkerSupervisor(
                workers, FaultPolicy(failure_budget=6, task_deadline_s=0.2)
            )
            sup.failures = 1
            pid = workers._workers[0].process.pid
            hung = sup.submit(
                _payload(chaos={"kind": "hang", "seconds": 30.0})
            )
            with pytest.raises(WorkerTimeout) as err:
                sup._wait(hung, hung.submitted_at + sup.policy.task_deadline_s)
            msg = str(err.value)
            assert f"pid {pid}" in msg and "failures 1 / budget 6" in msg
            assert workers._workers[0].process.pid != pid

            pid = workers._workers[0].process.pid
            killed = sup.submit(_payload(chaos={"kind": "kill"}))
            with pytest.raises(WorkerCrash) as err:
                sup._wait(killed, time.monotonic() + 30.0)
            msg = str(err.value)
            assert f"pid {pid}" in msg and "failures 1 / budget 6" in msg
            assert sup.last_dead == [pid] and workers._workers[0].process.pid != pid
            assert sup.respawns == 2

            # The replacement serves the next task on a fresh pipe.
            clean = sup.submit(_payload())
            result = sup._wait(clean, time.monotonic() + 30.0)
            assert result["devices"][0] is not None
            sup.close()
        finally:
            workers.close()


class TestLateCollection:
    def test_answer_in_the_pipe_outlives_its_deadline(self):
        # A prefetched task is answered, but the training thread comes to
        # collect it only after the task's deadline: the answer is served,
        # and no worker is replaced and no failure charged for it.
        workers = WorkerSet(export_task_data(small_dataset(n=200)), 1)
        try:
            sup = WorkerSupervisor(workers, FaultPolicy(task_deadline_s=0.2))
            pid = workers[0].process.pid
            flight = sup.submit(_payload())
            assert workers[0].conn.poll(30.0)  # the answer is in the pipe
            time.sleep(max(flight.submitted_at + 0.3 - time.monotonic(), 0.0))
            result = sup.result(flight)
            assert (sup.respawns, sup.failures) == (0, 0)
            assert workers[0].process.pid == pid
            assert result["devices"][0] is not None
            sup.close()
        finally:
            workers.close()
