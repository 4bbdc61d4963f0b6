"""Who owns the sampler workers and how long they live (DESIGN.md §5.10).

The workers belong to the *dataset*: forked over its graph on the first
process-backend run, leased by every later one, ended by
``repro.parallel.shutdown()``, a degraded run, interpreter exit — or
end-of-file on their pipes when the coordinator is killed.  They share
nothing with the coordinator but their pipes: no run creates or maps a
``/dev/shm`` segment.  A lease carries nothing from run to run, so every
run is still bit-identical to serial.
"""

import dataclasses
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

import repro.parallel
from repro.cluster import multi_machine_cluster
from repro.config import APTConfig
from repro.core import APT
from repro.engine.base import split_round_robin
from repro.engine.context import ExecutionContext
from repro.graph.datasets import small_dataset
from repro.models import GraphSAGE
from repro.parallel import FaultPolicy, HostFaultSchedule
from repro.parallel import backend as backend_module
from repro.parallel.backend import ProcessPoolBackend, SerialBackend, export_task_data


def _apt(ds, backend, *, num_workers=2, chaos=None, policy=None):
    model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, 2, seed=1)
    cluster = multi_machine_cluster(2, 2, gpu_cache_bytes=ds.feature_bytes * 0.06)
    config = APTConfig(
        fanouts=(4, 4),
        global_batch_size=128,
        seed=0,
        execution_backend=backend,
        num_workers=num_workers,
        prefetch_depth=2,
        host_chaos=chaos,
        fault_policy=policy,
    )
    apt = APT(ds, model, cluster, config)
    apt.prepare()
    return apt


def _run(ds, backend, **kw):
    apt = _apt(ds, backend, **kw)
    report = apt.run_strategy("dnp", 2)
    return report, apt.model


def _facts(report):
    return (
        [e.mean_loss for e in report.result.epochs],
        [e.phases for e in report.result.epochs],
    )


def _assert_same(run_a, run_b):
    (report_a, model_a), (report_b, model_b) = run_a, run_b
    assert _facts(report_a) == _facts(report_b)
    state_a, state_b = model_a.state_dict(), model_b.state_dict()
    for key in state_a:
        np.testing.assert_array_equal(state_a[key], state_b[key])


def _pids(workers):
    return [worker.process.pid for worker in workers._workers]


def _idle_pids():
    idle = backend_module._IDLE
    return None if idle is None else _pids(idle)


def _running(pid):
    """True while ``pid`` is a process that can still run (not a zombie)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _children():
    return sorted(p.pid for p in multiprocessing.active_children())


def _segments():
    return set(os.listdir("/dev/shm"))


@pytest.fixture
def no_workers():
    """Start (and end) with no worker set, whatever ran before."""
    repro.parallel.shutdown()
    segments = _segments()
    yield segments
    repro.parallel.shutdown()


@pytest.fixture(scope="module")
def serial(tiny_dataset):
    return _run(tiny_dataset, "serial")


@pytest.fixture(scope="module")
def other_dataset():
    return small_dataset(n=600, feature_dim=8, num_classes=3, seed=3)


class TestLease:
    def test_covers_is_array_identity(self):
        ds = small_dataset(n=300, feature_dim=8, num_classes=3, seed=1)
        task_data = export_task_data(ds)
        assert task_data.graph is ds.graph  # the fork shares it; no copy
        assert task_data.covers(ds)
        # the same arrays under another dataset object: the same workers
        assert task_data.covers(dataclasses.replace(ds, name="other"))
        # equal bytes in other arrays: not the same workers
        assert not task_data.covers(
            dataclasses.replace(ds, features=ds.features.copy())
        )

    def test_second_run_leases_the_first_runs_workers(
        self, tiny_dataset, serial, no_workers, monkeypatch
    ):
        exports = []
        real_export = backend_module.export_task_data
        monkeypatch.setattr(
            backend_module,
            "export_task_data",
            lambda dataset: exports.append(dataset) or real_export(dataset),
        )
        threads_before = threading.active_count()
        most_threads = [threads_before]
        real_sample = ProcessPoolBackend.sample_device_chunks

        def watched(self, *args, **kwargs):
            most_threads[0] = max(most_threads[0], threading.active_count())
            return real_sample(self, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolBackend, "sample_device_chunks", watched)

        first = _run(tiny_dataset, "process")
        pids = _idle_pids()
        assert pids is not None and len(pids) == 2
        second = _run(tiny_dataset, "process")  # a fresh APT, the same arrays
        assert _idle_pids() == pids
        assert len(exports) == 1
        # The training thread drives the pipes itself: no helper threads.
        assert most_threads[0] == threads_before
        _assert_same(serial, first)
        _assert_same(serial, second)

    def test_other_dataset_or_worker_count_forks_a_fresh_set(
        self, tiny_dataset, other_dataset, no_workers
    ):
        _run(tiny_dataset, "process")
        first = _idle_pids()
        _assert_same(_run(other_dataset, "serial"), _run(other_dataset, "process"))
        second = _idle_pids()
        assert not set(first) & set(second)
        assert not any(_running(pid) for pid in first)
        assert _children() == sorted(second)  # one idle set, not two

        _run(other_dataset, "process", num_workers=1)
        third = _idle_pids()
        assert len(third) == 1 and not set(third) & set(second)
        assert _children() == third

    def test_open_backends_never_share_workers(
        self, tiny_dataset, serial, no_workers
    ):
        held = ProcessPoolBackend(tiny_dataset, num_workers=2, prefetch_depth=2)
        try:
            held_pids = _pids(held._workers)
            # A whole run while `held` is open: it must fork its own set.
            run = _run(tiny_dataset, "process")
            run_pids = _idle_pids()
            assert not set(held_pids) & set(run_pids)
            assert _children() == sorted(held_pids + run_pids)
            _assert_same(serial, run)
            # ...and `held` still samples the serial backend's batches.
            cluster = multi_machine_cluster(2, 2)
            model = GraphSAGE(
                tiny_dataset.feature_dim, 8, tiny_dataset.num_classes, 2, seed=1
            )
            ctx = ExecutionContext.build(
                tiny_dataset, cluster, model, [4, 4],
                global_batch_size=128, backend=held,
            )
            seeds = split_round_robin(np.arange(64, dtype=np.int64), 4)
            got = held.sample_device_chunks(ctx, seeds, epoch=0)
            want = SerialBackend().sample_device_chunks(ctx, seeds, epoch=0)
            for mb_got, mb_want in zip(got, want):
                np.testing.assert_array_equal(mb_got.seeds, mb_want.seeds)
                for bg, bw in zip(mb_got.blocks, mb_want.blocks):
                    np.testing.assert_array_equal(bg.src_nodes, bw.src_nodes)
                    np.testing.assert_array_equal(bg.edge_src, bw.edge_src)
                    np.testing.assert_array_equal(bg.edge_dst, bw.edge_dst)
        finally:
            held.close()
        # The last set released stays; the other one is gone.
        assert _idle_pids() == held_pids
        assert _children() == sorted(held_pids)


class TestTeardown:
    def test_shutdown_leaves_no_process_and_no_segment(
        self, tiny_dataset, serial, no_workers
    ):
        _run(tiny_dataset, "process")
        pids = _idle_pids()
        assert pids and _segments() <= no_workers  # idle, and no segment
        repro.parallel.shutdown()
        assert _idle_pids() is None and _children() == []
        assert not any(_running(pid) for pid in pids)
        assert _segments() <= no_workers
        repro.parallel.shutdown()  # idempotent
        # The next run forks afresh and still matches serial.
        again = _run(tiny_dataset, "process")
        assert not set(_idle_pids()) & set(pids)
        _assert_same(serial, again)

    def test_degraded_run_leaves_no_process_and_no_segment(
        self, tiny_dataset, serial, no_workers
    ):
        _run(tiny_dataset, "process")
        pids = _idle_pids()
        degraded = _run(
            tiny_dataset, "process",
            chaos=HostFaultSchedule.parse("kill@0;kill@1"),
            policy=FaultPolicy(
                max_retries=0, failure_budget=0, backoff_base_s=0.01
            ),
        )
        assert degraded[0].collector.events_of("degraded")
        _assert_same(serial, degraded)
        # A set that spent its budget is not kept for the next run.
        assert _idle_pids() is None and _children() == []
        assert not any(_running(pid) for pid in pids)
        assert _segments() <= no_workers
        again = _run(tiny_dataset, "process")
        assert not set(_idle_pids()) & set(pids)
        _assert_same(serial, again)

    def test_killed_worker_is_one_explicit_respawn(
        self, tiny_dataset, serial, no_workers
    ):
        _run(tiny_dataset, "process")
        before = _idle_pids()
        report, model = _run(
            tiny_dataset, "process",
            chaos=HostFaultSchedule.parse("kill@2"),
            policy=FaultPolicy(backoff_base_s=0.01),
        )
        _assert_same(serial, (report, model))
        respawns = report.collector.events_of("worker_respawn")
        assert len(respawns) == 1 and respawns[0].data["cause"] == "died"
        assert report.collector.counter_total("parallel.worker_deaths") == 1.0
        assert report.collector.counter_total("parallel.task_retries") == 1.0
        # One worker of the leased set was replaced, in place; the set
        # itself went back to idle.
        after = _idle_pids()
        assert len(set(before) & set(after)) == 1
        assert respawns[0].data["died"] == sorted(set(before) - set(after))

    def test_sigkilled_coordinator_leaves_no_worker(self, tmp_path):
        # No atexit runs: the workers must end on their own, on the
        # end-of-file of a pipe nobody holds the other end of any more.
        child = tmp_path / "child.py"
        child.write_text(_COORDINATOR)
        pid_file = tmp_path / "pids"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        # stderr to a file, not a pipe: the workers inherit it, and waiting
        # for a pipe to drain would be waiting for them.
        with open(tmp_path / "stderr", "w") as stderr:
            proc = subprocess.run(
                [sys.executable, str(child), str(pid_file)],
                env=env, stdout=subprocess.DEVNULL, stderr=stderr, timeout=300,
            )
        assert proc.returncode == -signal.SIGKILL, (tmp_path / "stderr").read_text()
        pids = [int(p) for p in pid_file.read_text().split()]
        assert len(pids) == 2
        deadline = time.monotonic() + 5.0
        while any(_running(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [p for p in pids if _running(p)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert not survivors


_COORDINATOR = textwrap.dedent(
    """
    import os, signal, sys
    from repro.cluster import single_machine_cluster
    from repro.config import APTConfig
    from repro.core import APT
    from repro.graph.datasets import small_dataset
    from repro.models import GraphSAGE
    from repro.parallel.backend import ProcessPoolBackend

    served = [0]
    original = ProcessPoolBackend.sample_device_chunks
    def lethal(self, *args, **kwargs):
        served[0] += 1
        if served[0] == 3:  # mid-epoch, a prefetch in flight
            with open(sys.argv[1], "w") as fh:
                fh.write(" ".join(str(w.process.pid) for w in self._workers._workers))
            os.kill(os.getpid(), signal.SIGKILL)  # no goodbye
        return original(self, *args, **kwargs)
    ProcessPoolBackend.sample_device_chunks = lethal

    ds = small_dataset(n=800, feature_dim=16, num_classes=4, seed=7)
    config = APTConfig(
        fanouts=(4, 4), global_batch_size=64, seed=0,
        execution_backend="process", num_workers=2, prefetch_depth=2,
    )
    apt = APT(ds, GraphSAGE(16, 8, 4, 2, seed=1), single_machine_cluster(4), config)
    apt.prepare()
    apt.run_strategy("dnp", 2)
    """
)


def _shm_mapped(pid):
    """Names of the ``/dev/shm`` segments process ``pid`` maps."""
    with open(f"/proc/{pid}/maps") as fh:
        return {
            line.split("/dev/shm/", 1)[1].split()[0]
            for line in fh
            if "/dev/shm/" in line
        }


class TestLeasedWorkerMaps:
    def test_nothing_beyond_the_worker_set(self, tiny_dataset, no_workers):
        cluster = multi_machine_cluster(2, 2)
        model = GraphSAGE(
            tiny_dataset.feature_dim, 8, tiny_dataset.num_classes, 2, seed=1
        )
        seeds = split_round_robin(np.arange(64, dtype=np.int64), 4)
        pids = []
        for _ in range(2):  # the second run leases the first run's worker
            backend = ProcessPoolBackend(tiny_dataset, num_workers=1, prefetch_depth=1)
            try:
                ctx = ExecutionContext.build(
                    tiny_dataset, cluster, model, [4, 4],
                    global_batch_size=128, backend=backend,
                )
                for epoch in range(3):
                    backend.sample_device_chunks(ctx, seeds, epoch=epoch)
                (pid,) = _pids(backend._workers)
                pids.append(pid)
                assert _shm_mapped(pid) == set()
                assert _segments() <= no_workers
            finally:
                backend.close()
            assert _shm_mapped(pid) == set()
            assert _segments() <= no_workers
        assert pids[0] == pids[1]
