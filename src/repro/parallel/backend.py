"""Pluggable host-side execution backends: serial and worker processes.

A backend owns the *host wall-clock* side of the engine's per-device
loops: where sampling runs and whether batch ``k+1`` is sampled while
batch ``k`` trains.  Feature rows are always gathered on the main
process, through the feature store.  It is strictly
invisible to the simulation: both backends produce bit-identical
minibatches, losses, parameters, and simulated Timeline charges (pinned by
``tests/parallel/test_equivalence.py``) — only host seconds differ.

:class:`SerialBackend`
    The default.  Samples inline on the main process, through the
    context's :class:`~repro.sampling.cache.SampleCache` when present:
    one union sample per global batch, restricted to each device
    (:func:`~repro.sampling.cache.sample_device_batches`).

:class:`ProcessPoolBackend`
    Fans sampling out to worker processes forked over the CSR graph:
    they sample from the pages the fork inherited, read no feature and
    ship sampled blocks only.  The workers belong to the *dataset*, not to
    the run: they are forked on the first process-backend run over a
    dataset and leased by every later one (:func:`_lease` — what a lease
    may carry from run to run is nothing).  The epoch loop is pipelined: up to
    ``prefetch_depth`` future global batches are being sampled in workers
    while the current batch runs numerics on the main process.  One task
    covers one whole global batch, sampled by the same
    :func:`~repro.sampling.cache.sample_device_batches` as the serial
    backend (the union once, restricted per device).  Results come back
    pickled over each worker's pipe.  Prefetched batches bypass the
    sample cache: it lives on the main process, workers sample without
    one, and their results are not entered into it.

Prefetches are matched by content digest of ``(epoch, per-device seed
chunks)``; any divergence (mid-epoch strategy switch, direct
``run_global_batch`` calls) flushes the queue and falls back to an
unplanned submission — correctness never depends on the schedule guess.

Host faults never break the contract either: every task runs under a
:class:`~repro.parallel.supervisor.WorkerSupervisor` (deadlines, retries,
respawn), a seeded
:class:`~repro.parallel.chaos.HostFaultSchedule` can inject worker faults
deterministically, and once the supervisor's failure budget is exhausted
the backend *degrades*: remaining batches are sampled inline exactly as
:class:`SerialBackend` would, so a sick host finishes the run slower but
bit-identical (pinned by ``tests/parallel/test_chaos.py``).
"""

from __future__ import annotations

import atexit
import hashlib
import os
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.parallel.chaos import HostFaultSchedule
from repro.parallel.supervisor import (
    TEARDOWN_ERRORS,
    FailureBudgetExceeded,
    FaultPolicy,
    Flight,
    TaskData,
    WorkerSet,
    WorkerSupervisor,
)
from repro.sampling.block import MiniBatch
from repro.sampling.cache import sample_device_batches

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "make_backend",
    "resolve_backend",
    "shutdown",
]

#: Default worker count when the config leaves it at 0 ("auto").
_AUTO_WORKERS = max(1, min(4, os.cpu_count() or 1))


class ExecutionBackend:
    """Interface of a host-side execution backend (serial semantics)."""

    name = "serial"

    # -- epoch pipeline hooks ------------------------------------------ #
    def begin_epoch(self, strategy, ctx, epoch: int, global_batches) -> None:
        """Announce the epoch's batch schedule (enables prefetching)."""

    def finish_epoch(self, ctx) -> None:
        """Epoch barrier: drain pending work, flush telemetry counters."""

    # -- per-batch dispatch points ------------------------------------- #
    def sample_device_chunks(
        self, ctx, seeds_per_device, epoch: int
    ) -> List[Optional[MiniBatch]]:
        """Per-device minibatches for one global batch (no charging —
        :func:`repro.engine.base.sample_batches` charges simulated time
        identically for every backend)."""
        raise NotImplementedError

    def quiesce(self) -> None:
        """Settle all in-flight work and drop any prefetched schedule.

        The elastic transition (DESIGN.md §5.16) calls this before
        re-partitioning: in-flight tasks settle through the supervisor
        and the epoch schedule is discarded, because its seed chunks were
        split for the *old* device set.  The workers stay
        up — the graph they were forked over is cluster-independent.
        No-op on the serial backend.
        """

    # -- lifecycle ------------------------------------------------------ #
    def stats(self) -> Dict[str, float]:
        """Lifetime counters (also streamed into telemetry per epoch)."""
        return {}

    def close(self) -> None:
        """End the run: release its workers; idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Inline sampling on the main process (the default backend)."""

    name = "serial"

    def sample_device_chunks(self, ctx, seeds_per_device, epoch):
        return sample_device_batches(
            ctx.sampler, seeds_per_device, epoch, ctx.sample_cache
        )


#: Fallback backend for contexts constructed without one.
_SERIAL = SerialBackend()


def resolve_backend(ctx) -> ExecutionBackend:
    """The context's backend, or the shared serial fallback."""
    return getattr(ctx, "backend", None) or _SERIAL


# ---------------------------------------------------------------------- #
def _digest(epoch: int, chunks) -> bytes:
    """Content digest of one global batch's per-device seed chunks."""
    h = hashlib.blake2b(digest_size=16)
    h.update(int(epoch).to_bytes(8, "little", signed=True))
    for c in chunks:
        if c is None or len(c) == 0:
            h.update(b"\x00")
            continue
        a = np.ascontiguousarray(c, dtype=np.int64)
        h.update(b"\x01")
        h.update(np.int64(a.size).tobytes())
        h.update(a.tobytes())
    return h.digest()


# ---------------------------------------------------------------------- #
# worker-set leases
# ---------------------------------------------------------------------- #
#: The one worker set kept between runs (the last one released), or None.
_IDLE: Optional[WorkerSet] = None
_EXIT_HOOKED = False


def export_task_data(dataset) -> TaskData:
    """The handle a worker set is forked against: ``dataset``'s graph
    itself, nothing copied.  A module-level name because
    ``benchmarks/e2e/trace.py`` times it as ``parallel.shm_export_s``."""
    return TaskData(dataset)


def _lease(dataset, num_workers: int) -> WorkerSet:
    """A worker set forked over ``dataset``'s arrays, for one backend.

    The idle set is taken when it was forked over these very arrays with
    this many workers; otherwise it is closed and a fresh set is forked.
    A set is never shared: a second backend open at the same time finds
    no idle set and forks its own.
    """
    global _IDLE, _EXIT_HOOKED
    idle, _IDLE = _IDLE, None
    if idle is not None:
        if idle.num_workers == num_workers and idle.task_data.covers(dataset):
            return idle
        idle.close()
    workers = WorkerSet(export_task_data(dataset), num_workers)
    if not _EXIT_HOOKED:
        atexit.register(shutdown)
        _EXIT_HOOKED = True
    return workers


def _release(workers: WorkerSet) -> None:
    """Return a healthy, idle set; it replaces the one kept so far."""
    global _IDLE
    if _IDLE is not None:
        _IDLE.close()
    _IDLE = workers


def shutdown() -> None:
    """End the idle worker set.

    Workers outlive the runs that use them (they are what makes the second
    run over a dataset cheap); this ends them when the caller knows no
    further run is coming.  Also runs at interpreter exit.  Backends still
    open keep their workers until they close.
    """
    global _IDLE
    idle, _IDLE = _IDLE, None
    if idle is not None:
        idle.close()


class ProcessPoolBackend(ExecutionBackend):
    """Forked sampler workers with pipelined global-batch prefetch.

    Parameters
    ----------
    dataset:
        Task dataset; workers are forked over its graph once per dataset,
        not once per backend (:func:`_lease`).
    num_workers:
        Worker processes (``None`` = auto: ``min(4, cpu_count)``).
    prefetch_depth:
        Global batches sampled ahead of the training loop.  ``0`` disables
        pipelining (each batch is still sampled in a worker, without
        overlap).
    fault_policy:
        Supervision knobs (deadlines, retries, failure budget); defaults
        to :class:`~repro.parallel.supervisor.FaultPolicy` with its
        env-overridable defaults.
    chaos:
        A :class:`~repro.parallel.chaos.HostFaultSchedule` of deliberate
        host faults keyed by task sequence number; defaults to whatever
        ``REPRO_CHAOS`` arms (``None`` when unset).
    """

    name = "process"

    def __init__(
        self,
        dataset,
        num_workers: Optional[int] = None,
        prefetch_depth: int = 2,
        fault_policy: Optional[FaultPolicy] = None,
        chaos: Optional[HostFaultSchedule] = None,
    ):
        self.num_workers = int(num_workers) if num_workers else _AUTO_WORKERS
        if self.num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        self.prefetch_depth = max(0, int(prefetch_depth))
        self.policy = fault_policy or FaultPolicy()
        self.chaos = chaos if chaos is not None else HostFaultSchedule.from_env()
        self._workers = _lease(dataset, self.num_workers)
        self._supervisor: Optional[WorkerSupervisor] = WorkerSupervisor(
            self._workers, self.policy
        )
        self._supervisor.count = self._count
        self._supervisor.emit = self._buffer_event
        self._closed = False
        self._degraded = False
        #: lifetime task sequence number — the chaos schedule's key; first
        #: attempts only, so a deterministic loop numbers tasks identically
        #: with and without faults.
        self._task_seq = 0
        # pipeline state (one epoch at a time)
        self._schedule: List[Tuple[bytes, Dict]] = []
        self._next = 0
        self._inflight: Deque[Tuple[bytes, Flight]] = deque()
        self._counters: Dict[str, float] = {}
        self._events: List[Tuple[str, Dict]] = []
        self._epoch_mark: Dict[str, float] = {}
        self._epoch_t0: Optional[float] = None

    # ------------------------------------------------------------------ #
    def _count(self, name: str, value: float = 1.0) -> None:
        self._counters[name] = self._counters.get(name, 0.0) + value

    def _buffer_event(self, kind: str, **data) -> None:
        """Queue a supervision event; flushed into telemetry at the next
        epoch barrier (supervision has no context handle of its own)."""
        if len(self._events) < 512:
            self._events.append((kind, data))

    def stats(self) -> Dict[str, float]:
        return dict(self._counters)

    # ------------------------------------------------------------------ #
    def begin_epoch(self, strategy, ctx, epoch, global_batches) -> None:
        if self._degraded:
            return
        self._drain(wasted=True)
        base = {
            "epoch": int(epoch),
            "fanouts": tuple(ctx.sampler.fanouts),
            "global_seed": int(ctx.sampler.global_seed),
        }
        self._schedule = []
        for gb in global_batches:
            chunks = strategy.assign_seeds(ctx, gb)
            payload = dict(base, chunks=list(chunks))
            self._schedule.append((_digest(epoch, chunks), payload))
        self._next = 0
        self._epoch_t0 = time.perf_counter()
        self._epoch_mark = dict(self._counters)
        self._top_up()

    def finish_epoch(self, ctx) -> None:
        self._drain(wasted=True)
        self._schedule = []
        self._next = 0
        if self._epoch_t0 is None:
            return
        wall = time.perf_counter() - self._epoch_t0
        self._epoch_t0 = None
        deltas = {
            k: v - self._epoch_mark.get(k, 0.0)
            for k, v in self._counters.items()
            if v != self._epoch_mark.get(k, 0.0)
        }
        busy = deltas.get("worker_busy_seconds", 0.0)
        utilization = (
            busy / (wall * self.num_workers) if wall > 0.0 else 0.0
        )
        for key, value in deltas.items():
            ctx.count(f"parallel.{key}", value, phase="parallel")
        ctx.count("parallel.epoch_host_seconds", wall, phase="parallel")
        events, self._events = self._events, []
        if ctx.telemetry is not None:
            for kind, data in events:
                ctx.telemetry.emit(
                    kind,
                    sim_time=ctx.timeline.wall_seconds,
                    phase="parallel",
                    **data,
                )
        if ctx.telemetry is not None:
            ctx.telemetry.emit(
                "pipeline",
                sim_time=ctx.timeline.wall_seconds,
                phase="parallel",
                backend=self.name,
                workers=self.num_workers,
                prefetch_depth=self.prefetch_depth,
                host_wall_seconds=wall,
                worker_utilization=utilization,
                **{k: v for k, v in deltas.items() if k != "worker_busy_seconds"},
            )

    def quiesce(self) -> None:
        """Elastic barrier: settle in-flight tasks, drop the schedule."""
        if self._degraded:
            return
        self._drain(wasted=True)
        self._schedule = []
        self._next = 0
        self._count("quiesce")

    # ------------------------------------------------------------------ #
    def _submit(self, entry: Tuple[bytes, Dict]) -> None:
        digest, payload = entry
        if self.chaos:
            directives = self.chaos.directives_at(self._task_seq)
            for event, seconds in directives:
                self._count("chaos_injected")
                payload = dict(
                    payload, chaos={"kind": event.kind, "seconds": seconds}
                )
            if directives:
                self._buffer_event(
                    "chaos",
                    task=self._task_seq,
                    kinds=[e.kind for e, _ in directives],
                )
        self._task_seq += 1
        self._inflight.append((digest, self._supervisor.submit(payload)))

    def _top_up(self) -> None:
        while (
            len(self._inflight) < self.prefetch_depth
            and self._next < len(self._schedule)
        ):
            self._submit(self._schedule[self._next])
            self._next += 1

    def _drain(self, wasted: bool = False) -> None:
        """Settle and discard every in-flight task."""
        while self._inflight:
            _, flight = self._inflight.popleft()
            if self._supervisor is None:
                continue  # the workers are gone; nothing will answer
            self._supervisor.settle(flight)
            if wasted:
                self._count("prefetch_wasted")

    def _degrade(self, reason: str) -> None:
        """Fall back to inline serial sampling for the rest of the run."""
        self._degraded = True
        self._count("degraded")
        self._buffer_event(
            "degraded",
            reason=reason,
            failures=self._supervisor.failures if self._supervisor else 0,
        )
        if self._supervisor is not None:
            # A set that spent a failure budget is not handed to the next
            # run.  End it first: with every worker dead, the in-flight
            # queue is dropped without waiting on anyone.
            self._workers.close()
            self._supervisor = None
        self._drain(wasted=True)
        self._schedule = []
        self._next = 0

    # ------------------------------------------------------------------ #
    def sample_device_chunks(self, ctx, seeds_per_device, epoch):
        if self._degraded:
            # Graceful degradation: identical inline sampling to
            # :class:`SerialBackend` (same cache, same sampler) — slower,
            # never different.
            self._count("degraded_batches")
            return _SERIAL.sample_device_chunks(ctx, seeds_per_device, epoch)
        digest = _digest(epoch, seeds_per_device)
        if self._inflight and self._inflight[0][0] == digest:
            _, flight = self._inflight.popleft()
            self._count("prefetch_hits")
        else:
            if self._inflight:
                # The schedule diverged (e.g. a mid-epoch caller outside the
                # announced batch order): nothing queued is trustworthy.
                self._drain(wasted=True)
            if (
                self._next < len(self._schedule)
                and self._schedule[self._next][0] == digest
            ):
                # Pipelining off (depth 0) or not yet submitted: next
                # scheduled batch, sampled synchronously in a worker.
                self._submit(self._schedule[self._next])
                self._next += 1
                self._count("sync_batches")
            else:
                payload = {
                    "epoch": int(epoch),
                    "fanouts": tuple(ctx.sampler.fanouts),
                    "global_seed": int(ctx.sampler.global_seed),
                    "chunks": list(seeds_per_device),
                }
                self._submit((digest, payload))
                self._count("unplanned_batches")
            _, flight = self._inflight.pop()
        try:
            result = self._supervisor.result(flight)
        except FailureBudgetExceeded as exc:
            self._degrade(str(exc))
            self._count("degraded_batches")
            return _SERIAL.sample_device_chunks(ctx, seeds_per_device, epoch)
        self._count("worker_busy_seconds", float(result["busy"]))
        self._top_up()
        return result["devices"]

    def take_gather(self, device, node_ids) -> None:
        """Always ``None``: workers gather no feature rows.  Kept only
        because ``benchmarks/e2e/trace.py`` patches this method by name
        (through the class ``__dict__``) for its
        ``parallel.take_gather_self_s`` metric; it goes when that file is
        next revised."""
        return None

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """End the run; the workers go back to idle, not away."""
        if self._closed:
            return
        self._closed = True
        if self._supervisor is not None:
            self._drain()
            self._supervisor.close()
            self._supervisor = None
            _release(self._workers)

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except TEARDOWN_ERRORS as exc:
            self._count("worker_error")
            self._buffer_event(
                "worker_error", error=type(exc).__name__, where="__del__"
            )


# ---------------------------------------------------------------------- #
def make_backend(config, dataset) -> ExecutionBackend:
    """Backend from an :class:`~repro.config.APTConfig`."""
    kind = config.execution_backend
    if kind == "serial":
        return SerialBackend()
    if kind == "process":
        return ProcessPoolBackend(
            dataset,
            num_workers=config.num_workers or None,
            prefetch_depth=config.prefetch_depth,
            fault_policy=config.fault_policy,
            chaos=config.host_chaos,
        )
    raise ValueError(f"unknown execution backend {kind!r}")
