"""Worker-process side of the process execution backend.

A worker is forked by its :class:`~repro.parallel.supervisor.WorkerSet`,
attaches the shared graph once (:func:`worker_main`) and then serves
sampling tasks from its own pipe, one at a time, until the pipe reaches
end-of-file — which is also how a killed coordinator's workers end.  It
outlives runs, and nothing a task leaves behind belongs to one.  One task
covers one *global batch*, sampled by
:func:`repro.sampling.cache.sample_device_batches` exactly as the serial
backend samples it — the union of the per-device seed chunks in one pass,
each device's minibatch restricted out of it — so what the workers add is
overlap with the training thread, not less sampling work.  A worker maps
the graph and nothing else: it ships sampled blocks only, and every
feature row is gathered by the main process.

The per-device :class:`~repro.sampling.block.MiniBatch` objects go back
pickled over the same pipe the task came in on.  A message cut short by a
dying worker ends in ``EOFError`` on the coordinator's side, which the
supervisor counts as that worker's death.

Supervision hooks (see :mod:`repro.parallel.supervisor`): each worker
is given one cell of a shared *heartbeat board* and stamps it
``+monotonic()`` on task entry, ``-monotonic()`` on exit, so the main
process can tell hung workers from starved queues.  A ``chaos`` directive
in the payload (:mod:`repro.parallel.chaos`) makes the worker fault
itself on purpose — die or sleep — to drive the supervision paths
deterministically.
"""

from __future__ import annotations

import os
import time
from multiprocessing import shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

from repro.parallel.shm import TaskDataDescriptor, attach_task_data
from repro.sampling.cache import sample_device_batches
from repro.sampling.neighbor import NeighborSampler

#: Per-process state installed by :func:`init_worker`.
_STATE: Dict[str, object] = {}
#: Samplers by (fanouts, global_seed) — construction is cheap but the
#: graph handle and fanout normalization are per-config constants.
_SAMPLERS: Dict[Tuple, NeighborSampler] = {}


def worker_main(
    conn,
    inherited,
    descriptor: TaskDataDescriptor,
    heartbeat: Optional[Tuple[str, int, int]] = None,
) -> None:
    """Body of one worker process: attach, then serve tasks until EOF.

    ``inherited`` are the coordinator's ends of every worker pipe open at
    the fork (this worker's included).  They are closed first: a pipe
    reads end-of-file only when *no* process holds its other end, and
    end-of-file is what ends a worker whose coordinator was killed.

    Each task is answered with ``(True, result)`` or, when it raised,
    ``(False, "<type>: <message>")`` — the supervisor retries it.
    """
    for end in inherited:
        end.close()
    init_worker(descriptor, heartbeat)
    while True:
        try:
            payload = conn.recv()
            try:
                answer = (True, sample_task(payload))
            except Exception as exc:  # task boundary: reported, then retried
                answer = (False, f"{type(exc).__name__}: {exc}")
            conn.send(answer)
        except (EOFError, OSError):
            return  # the coordinator is gone


def init_worker(
    descriptor: TaskDataDescriptor,
    heartbeat: Optional[Tuple[str, int, int]] = None,
) -> None:
    """Map the graph shared by the main process (no feature is mapped).

    A respawned worker runs this against the *existing* export (same
    segment name), so respawn never re-exports the dataset.  ``heartbeat``
    is ``(segment name, capacity, this worker's cell)`` of the
    supervisor's board.
    """
    segment, graph = attach_task_data(descriptor)
    _STATE.clear()
    _STATE["segment"] = segment  # keep the mapping alive
    _STATE["graph"] = graph
    if heartbeat is not None:
        name, capacity, index = heartbeat
        hb_segment = shared_memory.SharedMemory(name=name)
        board = np.ndarray((capacity,), dtype=np.float64, buffer=hb_segment.buf)
        _STATE["hb_segment"] = hb_segment
        _STATE["hb"] = (board, index)
        _stamp(in_task=False)
    _SAMPLERS.clear()


def _stamp(in_task: bool) -> None:
    """Publish this worker's liveness: +now while in a task, -now idle."""
    hb = _STATE.get("hb")
    if hb is not None:
        board, index = hb
        now = time.monotonic()
        board[index] = now if in_task else -now


def _sampler(fanouts: Tuple[int, ...], global_seed: int) -> NeighborSampler:
    key = (tuple(fanouts), int(global_seed))
    sampler = _SAMPLERS.get(key)
    if sampler is None:
        sampler = NeighborSampler(_STATE["graph"], list(key[0]), global_seed=key[1])
        _SAMPLERS[key] = sampler
    return sampler


def sample_task(payload: Dict) -> Dict:
    """Sample one global batch; returns its per-device minibatches.

    ``payload`` keys: ``epoch``, ``chunks`` (per-device seed arrays or
    ``None``), ``fanouts``, ``global_seed``, and ``chaos`` (an armed
    ``{"kind", "seconds"}`` host-fault directive).
    """
    t0 = time.perf_counter()
    _stamp(in_task=True)
    chaos = payload.get("chaos")
    if chaos is not None:
        if chaos["kind"] == "kill":
            # Die as abruptly as the OOM killer would: no cleanup, no
            # result.  The supervisor forks a replacement and resubmits
            # the task.
            os._exit(1)
        elif chaos["kind"] == "hang":
            time.sleep(float(chaos.get("seconds", 0.25)))
    sampler = _sampler(payload["fanouts"], payload["global_seed"])
    devices = sample_device_batches(sampler, payload["chunks"], int(payload["epoch"]))
    busy = time.perf_counter() - t0
    _stamp(in_task=False)
    return {"devices": devices, "busy": busy}
