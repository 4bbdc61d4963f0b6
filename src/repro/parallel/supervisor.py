"""Worker ownership and supervision for the process execution backend.

Two lifetimes live here, one class each.

:class:`WorkerSet` is the **dataset-lifetime** half: the worker processes
forked against one dataset's graph, each on a duplex pipe of its own
whose coordinator end this process holds.  The pipe is all a worker
shares with the coordinator: it is forked with the graph as an argument
and samples from the pages it inherited (copy-on-write), so nothing is
copied, exported or mapped for it.  The set is forked once, on the first
process-backend run over the dataset, and *leased* by every later run
(:mod:`repro.parallel.backend` keeps the lease table).  Nothing in it
belongs to a run.

:class:`WorkerSupervisor` is the **run-lifetime** half: it drives a leased
set from the training thread itself — no pool, no helper thread — and
holds everything a run may count or configure:

* **one flight per worker** — a task is written to an idle worker's pipe
  by :meth:`~WorkerSupervisor.submit` (or queued until one is idle), so a
  worker that dies, hangs or raises names exactly the task it held.
* **one blocking wait** — every wait is a single
  ``multiprocessing.connection.wait`` over the busy workers' pipes *and*
  every worker's process sentinel, with the deadline as its timeout:
  results, deaths and deadline misses are all seen at once and nothing
  polls.
* **per-task deadlines** — every task must produce a result within
  ``FaultPolicy.task_deadline_s`` of submission.  A worker that holds a
  task past its deadline is killed and replaced, so a busy worker always
  holds a live flight, and the timeout message names the pid that held
  the task (or says it was still queued behind busy workers).
* **explicit respawn** — a dead worker's replacement is forked on the
  spot against the same graph on a fresh pipe; the flight the dead
  worker held fails immediately.
* **bounded retry with exponential backoff** — a failed task (timeout,
  crash, worker exception) is resubmitted up to ``max_retries`` times,
  waiting ``backoff_base_s * 2**n`` between attempts.  Resubmissions
  strip any chaos directive (:mod:`repro.parallel.chaos` faults fire on
  first attempts only).
* **graceful degradation** — once a single task exhausts its retries or
  the run's failure count crosses ``failure_budget``, the supervisor
  raises :class:`FailureBudgetExceeded` and the backend tears the set down
  and falls back to serial in-process sampling (bit-identical by the
  backend contract), so a persistently sick host finishes the run slower
  instead of crashing.

Every transition is emitted as a typed telemetry event (``worker_error``,
``worker_timeout``, ``worker_respawn``, ``task_retry``, ``degraded``) and
mirrored into the backend's lifetime counters.

Timing never affects results: a spurious deadline miss on a loaded CI
machine just resubmits a deterministic task, which produces the same
bytes — pinned with the rest of the bit-identity contract by
``tests/parallel/test_chaos.py``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.parallel.worker import worker_main

__all__ = [
    "FaultPolicy",
    "SupervisionError",
    "WorkerCrash",
    "WorkerTimeout",
    "FailureBudgetExceeded",
    "Flight",
    "TaskData",
    "WorkerSet",
    "WorkerSupervisor",
]


# ---------------------------------------------------------------------- #
# policy
# ---------------------------------------------------------------------- #
@dataclass
class FaultPolicy:
    """Supervision knobs of one process-backend run (``APTConfig.fault_policy``)."""

    #: seconds a task may take from (re)submission to result
    task_deadline_s: float = 30.0
    #: resubmissions allowed per task before giving up
    max_retries: int = 3
    #: lifetime failures (timeouts + crashes) before the backend degrades
    #: to serial sampling
    failure_budget: int = 16
    #: first retry's backoff; attempt ``n`` waits ``base * 2**n``
    backoff_base_s: float = 0.05
    #: cap on any single backoff sleep
    backoff_max_s: float = 2.0
    #: longest an epoch drain waits per abandoned prefetch before
    #: replacing the worker that holds it
    drain_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "FaultPolicy":
        if not float(self.task_deadline_s) > 0.0:
            raise ValueError(
                f"task_deadline_s must be positive seconds, got "
                f"{self.task_deadline_s}"
            )
        if int(self.max_retries) < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if int(self.failure_budget) < 0:
            raise ValueError(
                f"failure_budget must be >= 0, got {self.failure_budget}"
            )
        if float(self.backoff_base_s) < 0.0 or float(self.backoff_max_s) < 0.0:
            raise ValueError("backoff seconds must be >= 0")
        if not float(self.drain_timeout_s) > 0.0:
            raise ValueError(
                f"drain_timeout_s must be positive, got {self.drain_timeout_s}"
            )
        self.task_deadline_s = float(self.task_deadline_s)
        self.max_retries = int(self.max_retries)
        self.failure_budget = int(self.failure_budget)
        self.backoff_base_s = float(self.backoff_base_s)
        self.backoff_max_s = float(self.backoff_max_s)
        self.drain_timeout_s = float(self.drain_timeout_s)
        return self

    def backoff_at(self, attempt: int) -> float:
        """Backoff before resubmission number ``attempt`` (0-based)."""
        return min(
            self.backoff_base_s * 2.0 ** max(attempt, 0), self.backoff_max_s
        )

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


# ---------------------------------------------------------------------- #
# failures
# ---------------------------------------------------------------------- #
class SupervisionError(RuntimeError):
    """Base of every failure the supervisor classifies."""


class WorkerCrash(SupervisionError):
    """A worker process died (or raised) while it held the task."""


class WorkerTimeout(SupervisionError):
    """A task missed its deadline (hung or starved worker)."""


class FailureBudgetExceeded(SupervisionError):
    """Retries are exhausted; the caller should degrade to serial."""


#: exception types a teardown/flush path may swallow after reporting —
#: everything a dying worker or closed pipe realistically raises.
#: Deliberately scoped: programming errors (TypeError, KeyError, ...)
#: and process-fatal conditions still propagate.
TEARDOWN_ERRORS = (
    OSError,
    EOFError,
    ValueError,
    RuntimeError,
    multiprocessing.TimeoutError,
    multiprocessing.ProcessError,
)


@dataclass
class Flight:
    """One in-flight task attempt and everything needed to retry it."""

    payload: Dict[str, Any]
    attempts: int = 0
    submitted_at: float = 0.0
    #: index of the worker holding the task; ``None`` while it is queued
    worker: Optional[int] = None
    #: the worker's result dict or the classified failure, once known
    outcome: Any = None


# ---------------------------------------------------------------------- #
# the worker set: dataset lifetime
# ---------------------------------------------------------------------- #
@dataclass
class _Worker:
    """One owned worker process and the coordinator's end of its pipe."""

    process: Any
    conn: Any
    #: the one task written to ``conn`` and not yet answered
    flight: Optional[Flight] = None


#: The coordinator's end of every live worker pipe in this process.  A
#: forked worker inherits them all and must close them (see
#: :func:`repro.parallel.worker.worker_main`), whichever set they belong to.
_COORDINATOR_ENDS: Set[Any] = set()


def _arrays_of(dataset) -> Tuple:
    return (dataset.graph.indptr, dataset.graph.indices, dataset.features)


class TaskData:
    """What a :class:`WorkerSet` is forked against: a dataset's graph itself.

    Nothing is copied: a forked worker samples from the pages it inherited.
    The dataset's own ``(indptr, indices, features)`` objects decide which
    datasets a set serves (:meth:`covers`); workers never read a feature.
    """

    def __init__(self, dataset):
        self.graph = dataset.graph
        self._arrays = _arrays_of(dataset)

    def covers(self, dataset) -> bool:
        """True when ``dataset`` is made of the very arrays held here."""
        return all(a is b for a, b in zip(self._arrays, _arrays_of(dataset)))


class WorkerSet:
    """The dataset-lifetime half: the worker processes of one dataset.

    Forks ``num_workers`` workers over ``task_data.graph``, each on its own
    duplex pipe; :meth:`respawn` replaces one by a fresh fork over the same
    graph.  A set carries nothing from one run to the next: whoever leases
    it leaves every worker idle.
    """

    def __init__(self, task_data: TaskData, num_workers: int):
        self.num_workers = int(num_workers)
        self.task_data = task_data
        self.closed = False
        self._workers: List[_Worker] = []
        try:
            for _ in range(self.num_workers):
                self._workers.append(self._fork())
        except BaseException:
            self.close()
            raise

    def __getitem__(self, index: int) -> _Worker:
        return self._workers[index]

    def __iter__(self):
        return iter(self._workers)

    def _fork(self) -> _Worker:
        # Forked, whatever the interpreter's default start method: a fork
        # inherits the coordinator's graph pages instead of copying them,
        # and only a fork inherits _COORDINATOR_ENDS.
        fork = multiprocessing.get_context("fork")
        ours, theirs = fork.Pipe(duplex=True)
        process = fork.Process(
            target=worker_main,
            args=(theirs, [ours, *_COORDINATOR_ENDS], self.task_data.graph),
            daemon=True,
        )
        try:
            process.start()
        finally:
            theirs.close()
        _COORDINATOR_ENDS.add(ours)
        return _Worker(process, ours)

    @staticmethod
    def _end(worker: _Worker) -> None:
        """Close the pipe, kill the process, reap it.  A worker holds
        nothing but its pipe, so there is nothing for it to clean up and
        no reason to wait for it to do it."""
        _COORDINATOR_ENDS.discard(worker.conn)
        worker.conn.close()
        worker.process.kill()
        worker.process.join()
        worker.process.close()

    def respawn(self, index: int) -> None:
        """Replace worker ``index`` — dead, hung or holding an abandoned
        task — by a fresh fork over the same graph."""
        self._end(self._workers[index])
        self._workers[index] = self._fork()

    def close(self) -> None:
        """End every worker; idempotent."""
        if self.closed:
            return
        self.closed = True
        for worker in self._workers:
            self._end(worker)
        self._workers.clear()


# ---------------------------------------------------------------------- #
# the supervisor: run lifetime
# ---------------------------------------------------------------------- #
class WorkerSupervisor:
    """Drives a leased :class:`WorkerSet` for one run and supervises every
    task.

    The backend stays in charge of *what* runs (payloads, pipeline
    order); the supervisor is in charge of *whether it ran* — deadlines,
    retries, respawns, and the failure budget.  All of its
    state is the run's: a new supervisor over the same set starts from
    zero failures.

    ``emit`` and ``count`` are rebound by the backend to the active
    telemetry collector / counter sink; they default to no-ops so the
    supervisor works detached (unit tests, drains after teardown).
    """

    def __init__(self, workers: WorkerSet, policy: Optional[FaultPolicy] = None):
        self.workers = workers
        self.policy = (policy or FaultPolicy()).validate()
        #: tasks submitted while every worker held one, oldest first
        self._queue: Deque[Flight] = deque()
        #: pids of the most recently observed worker deaths — used to name
        #: the offending workers in the exception messages
        self.last_dead: List[int] = []
        self.failures = 0
        self.respawns = 0
        self.emit: Callable[..., None] = lambda kind, **data: None
        self.count: Callable[..., None] = lambda name, value=1.0: None

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def _budget_note(self) -> str:
        """``failures X / budget Y`` fragment for exception messages."""
        return (
            f"failures {self.failures} / budget "
            f"{self.policy.failure_budget}"
        )

    def _offender_note(self) -> str:
        """Names the worker(s) most recently seen dying, if any."""
        if self.last_dead:
            return "worker " + ", ".join(f"pid {p}" for p in self.last_dead)
        return "no worker death observed (timeout path)"

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(self, payload: Dict[str, Any]) -> Flight:
        """Submit one task; returns the :class:`Flight` tracking it.

        The task is on an idle worker's pipe when this returns, or queued
        behind the tasks the workers hold."""
        flight = Flight(payload=payload, submitted_at=time.monotonic())
        self._queue.append(flight)
        self._dispatch()
        return flight

    def _dispatch(self) -> None:
        """Hand queued tasks to idle workers, oldest first."""
        for index, worker in enumerate(self.workers):
            if not self._queue:
                return
            if worker.flight is not None:
                continue
            flight = self._queue.popleft()
            worker.flight = flight
            flight.worker = index
            try:
                worker.conn.send(flight.payload)
            except OSError as exc:
                # It died idle.  It holds the flight all the same: the next
                # wait finds its sentinel, fails the flight and respawns.
                self.count("worker_error")
                self.emit("worker_error", error=type(exc).__name__, where="submit")

    # ------------------------------------------------------------------ #
    # the one wait
    # ------------------------------------------------------------------ #
    def _pump(self, timeout: float) -> None:
        """Block until a held task is answered, a worker dies, or
        ``timeout`` seconds pass; record what happened."""
        sentinels = {w.process.sentinel: i for i, w in enumerate(self.workers)}
        pipes = {
            w.conn: i for i, w in enumerate(self.workers) if w.flight is not None
        }
        ready = connection.wait([*pipes, *sentinels], timeout)
        died = {sentinels[obj] for obj in ready if obj in sentinels}
        for index in {pipes[obj] for obj in ready if obj in pipes}:
            worker = self.workers[index]
            try:
                ok, value = worker.conn.recv()
            except (EOFError, OSError):
                died.add(index)  # end-of-file: it died holding the task
                continue
            flight, worker.flight = worker.flight, None
            flight.outcome = (
                value if ok else WorkerCrash(f"worker raised {value}")
            )
        for index in sorted(died):
            self._bury(index)

    def _bury(self, index: int) -> None:
        """Worker ``index`` is dead: fail the flight it held, fork its
        replacement.  Each death is reported exactly once."""
        flight = self.workers[index].flight
        pid = self._respawn(index, cause="died")
        self.last_dead = [pid]
        self.count("worker_deaths")
        if flight is not None:
            flight.outcome = WorkerCrash(
                f"worker pid {pid} died while it held the task "
                f"({self._budget_note()})"
            )

    def _respawn(self, index: int, cause: str) -> int:
        """Replace worker ``index``; returns the pid it had."""
        pid = self.workers[index].process.pid
        self.workers.respawn(index)
        self.respawns += 1
        self.emit("worker_respawn", scope="worker", died=[pid], cause=cause)
        return pid

    def _abandon(self, flight: Flight) -> WorkerTimeout:
        """Give up on an unanswered flight.  The worker holding it is
        replaced: it may be hung, and its answer must never be read as the
        answer to the next task on that pipe."""
        if flight.worker is None:
            self._queue.remove(flight)
            where = "still queued behind busy workers"
        else:
            pid = self._respawn(flight.worker, cause="deadline")
            where = f"held by worker pid {pid}, now replaced"
        return WorkerTimeout(
            f"task unanswered {time.monotonic() - flight.submitted_at:.3f}s "
            f"after submission ({where}; {self._budget_note()})"
        )

    def _wait(self, flight: Flight, deadline: float) -> Dict[str, Any]:
        """Result of one attempt, or a classified :class:`SupervisionError`
        — :class:`WorkerTimeout` when ``deadline`` (monotonic seconds)
        passes first."""
        while flight.outcome is None:
            self._dispatch()
            timeout = deadline - time.monotonic()
            if timeout <= 0.0:
                # Read what is ready first: an answer already in the pipe
                # is not lost because its caller came to collect it late.
                self._pump(0.0)
                if flight.outcome is None:
                    flight.outcome = self._abandon(flight)
                break
            self._pump(timeout)
        # Whatever went idle above starts on the queue before the training
        # thread goes back to training.
        self._dispatch()
        if isinstance(flight.outcome, SupervisionError):
            raise flight.outcome
        return flight.outcome

    # ------------------------------------------------------------------ #
    # supervised result
    # ------------------------------------------------------------------ #
    def result(self, flight: Flight) -> Dict[str, Any]:
        """Wait out ``flight``; retry with backoff until success or budget."""
        while True:
            try:
                return self._wait(
                    flight, flight.submitted_at + self.policy.task_deadline_s
                )
            except SupervisionError as exc:
                flight = self._retry(flight, exc)

    def _retry(self, flight: Flight, exc: SupervisionError) -> Flight:
        """Account one failure and resubmit, or raise the budget breach."""
        self.failures += 1
        kind = "worker_timeout" if isinstance(exc, WorkerTimeout) else "worker_error"
        self.count(kind)
        self.emit(kind, error=str(exc), attempt=flight.attempts)
        if flight.attempts >= self.policy.max_retries:
            raise FailureBudgetExceeded(
                f"task failed {flight.attempts + 1} times "
                f"(max_retries={self.policy.max_retries}; "
                f"{self._budget_note()}); last: {exc}"
            ) from exc
        if self.failures > self.policy.failure_budget:
            raise FailureBudgetExceeded(
                f"lifetime failure budget exhausted ({self._budget_note()}; "
                f"last offender: {self._offender_note()}); last: {exc}"
            ) from exc
        time.sleep(self.policy.backoff_at(flight.attempts))
        # Chaos directives fire on first attempts only — retries run clean.
        payload = {k: v for k, v in flight.payload.items() if k != "chaos"}
        retry = self.submit(payload)
        retry.attempts = flight.attempts + 1
        self.count("task_retries")
        self.emit("task_retry", attempt=retry.attempts, cause=kind)
        return retry

    # ------------------------------------------------------------------ #
    # drain support
    # ------------------------------------------------------------------ #
    def settle(self, flight: Flight) -> None:
        """Wait briefly for an abandoned prefetch; don't retry it.  Its
        answer, if any, is dropped; a worker still holding it past
        ``drain_timeout_s`` is replaced."""
        try:
            self._wait(flight, time.monotonic() + self.policy.drain_timeout_s)
        except WorkerTimeout:
            self.count("prefetch_abandoned")
        except WorkerCrash as exc:
            self.count("worker_error")
            self.emit("worker_error", error=str(exc), where="drain")

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, float]:
        return {
            "failures": float(self.failures),
            "respawns": float(self.respawns),
        }

    def close(self) -> None:
        """End of the run: hand the set back with every worker idle.  A
        worker still holding one of this run's tasks is replaced — nobody
        is left to read its answer."""
        self._queue.clear()
        if self.workers.closed:
            return
        for index, worker in enumerate(self.workers):
            if worker.flight is not None:
                self._respawn(index, cause="run_end")

