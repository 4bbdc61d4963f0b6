"""Worker-process side of the process execution backend.

A worker is forked by its :class:`~repro.parallel.supervisor.WorkerSet`
with the dataset's graph as an argument (:func:`worker_main`): the fork
already holds the coordinator's pages, so the worker samples from the
very arrays the coordinator trains on, copy-on-write, and nothing is
copied or mapped for it.  It then serves sampling tasks from its own
pipe, one at a time, until the pipe reaches end-of-file — which is also
how a killed coordinator's workers end.  It outlives runs, and nothing a
task leaves behind belongs to one.  One task covers one *global batch*,
sampled by :func:`repro.sampling.cache.sample_device_batches` exactly as
the serial backend samples it — the union of the per-device seed chunks
in one pass, each device's minibatch restricted out of it — so what the
workers add is overlap with the training thread, not less sampling work.
A worker reads the graph and nothing else: it ships sampled blocks only,
and every feature row is gathered by the main process.

The per-device :class:`~repro.sampling.block.MiniBatch` objects go back
pickled over the same pipe the task came in on.  A message cut short by a
dying worker ends in ``EOFError`` on the coordinator's side, which the
supervisor counts as that worker's death.

A ``chaos`` directive in the payload (:mod:`repro.parallel.chaos`) makes
the worker fault itself on purpose — die or sleep — to drive the
supervision paths (:mod:`repro.parallel.supervisor`) deterministically.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Tuple

from repro.sampling.cache import sample_device_batches
from repro.sampling.neighbor import NeighborSampler


def worker_main(conn, inherited, graph) -> None:
    """Body of one worker process: serve tasks over ``graph`` until EOF.

    ``inherited`` are the coordinator's ends of every worker pipe open at
    the fork (this worker's included).  They are closed first: a pipe
    reads end-of-file only when *no* process holds its other end, and
    end-of-file is what ends a worker whose coordinator was killed.

    Each task is answered with ``(True, result)`` or, when it raised,
    ``(False, "<type>: <message>")`` — the supervisor retries it.
    """
    for end in inherited:
        end.close()
    #: samplers by (fanouts, global_seed): per-config constants
    samplers: Dict[Tuple, NeighborSampler] = {}
    while True:
        try:
            payload = conn.recv()
            try:
                answer = (True, sample_task(graph, samplers, payload))
            except Exception as exc:  # task boundary: reported, then retried
                answer = (False, f"{type(exc).__name__}: {exc}")
            conn.send(answer)
        except (EOFError, OSError):
            return  # the coordinator is gone


def sample_task(graph, samplers: Dict[Tuple, NeighborSampler], payload: Dict) -> Dict:
    """Sample one global batch; returns its per-device minibatches.

    ``payload`` keys: ``epoch``, ``chunks`` (per-device seed arrays or
    ``None``), ``fanouts``, ``global_seed``, and ``chaos`` (an armed
    ``{"kind", "seconds"}`` host-fault directive).
    """
    t0 = time.perf_counter()
    chaos = payload.get("chaos")
    if chaos is not None:
        if chaos["kind"] == "kill":
            # Die as abruptly as the OOM killer would: no cleanup, no
            # result.  The supervisor forks a replacement and resubmits
            # the task.
            os._exit(1)
        elif chaos["kind"] == "hang":
            time.sleep(float(chaos.get("seconds", 0.25)))
    key = (tuple(payload["fanouts"]), int(payload["global_seed"]))
    sampler = samplers.get(key)
    if sampler is None:
        sampler = samplers[key] = NeighborSampler(graph, list(key[0]), global_seed=key[1])
    devices = sample_device_batches(sampler, payload["chunks"], int(payload["epoch"]))
    return {"devices": devices, "busy": time.perf_counter() - t0}
