"""Worker-process side of the process execution backend.

A worker is forked by its :class:`~repro.parallel.supervisor.WorkerSet`,
attaches the shared graph once (:func:`worker_main`) and then serves
sampling tasks from its own pipe, one at a time, until the pipe reaches
end-of-file — which is also how a killed coordinator's workers end.  It
outlives runs: nothing a task leaves behind may belong to one (see
:func:`_slot_buffer`).  One task covers one *global batch*, sampled by
:func:`repro.sampling.cache.sample_device_batches` exactly as the serial
backend samples it — the union of the per-device seed chunks in one pass,
each device's minibatch restricted out of it — so what the workers add is
overlap with the training thread, not less sampling work.  A worker maps
the graph and nothing else: it ships sampled blocks only, and every
feature row is gathered by the main process.

Results are packed into the main-process-owned shared-memory slot named by
the task; only small :class:`~repro.parallel.shm.ArraySpec` descriptors
travel back through the pipe.  If a batch outgrows its
slot the worker transparently falls back to pickled arrays (counted by the
backend as ``parallel.slot_overflow``).

Supervision hooks (see :mod:`repro.parallel.supervisor`): each worker
is given one cell of a shared *heartbeat board* and stamps it
``+monotonic()`` on task entry, ``-monotonic()`` on exit, so the main
process can tell hung workers from starved queues.  Every result written
to a slot comes back with a BLAKE2b digest of the packed slot bytes for
end-to-end validation.  A ``chaos`` directive in the payload
(:mod:`repro.parallel.chaos`) makes the worker fault itself on purpose —
die, sleep, or corrupt its slot *after* digesting — to drive the
supervision paths deterministically.
"""

from __future__ import annotations

import hashlib
import os
import time
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.parallel.shm import TaskDataDescriptor, attach_task_data, write_array
from repro.sampling.cache import sample_device_batches
from repro.sampling.neighbor import NeighborSampler

#: Per-process state installed by :func:`init_worker`.
_STATE: Dict[str, object] = {}
#: Attached result slots of the ring in ``_STATE["ring"]``, by segment
#: name (attach once, reuse per task).
_SLOTS: Dict[str, shared_memory.SharedMemory] = {}
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
    _SLOTS.clear()
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


def _slot_buffer(ring: int, name: str):
    """Buffer of result slot ``name`` of slot ring ``ring``.

    A ring lives as long as one run and this worker lives longer: when a
    task names a ring other than the last one served, that ring is gone
    (or going) and its attachments are dropped, so the unlinked segments
    are unmapped here too.
    """
    if _STATE.get("ring") != ring:
        for seg in _SLOTS.values():
            seg.close()
        _SLOTS.clear()
        _STATE["ring"] = ring
    seg = _SLOTS.get(name)
    if seg is None:
        seg = shared_memory.SharedMemory(name=name)
        _SLOTS[name] = seg
    return seg.buf


def _batch_arrays(mb) -> List[np.ndarray]:
    """Flat array list of one minibatch: seeds, then 5 per block."""
    out = [mb.seeds]
    for b in mb.blocks:
        out.extend((b.src_nodes, b.dst_nodes, b.dst_in_src, b.edge_src, b.edge_dst))
    return out


def sample_task(payload: Dict) -> Dict:
    """Sample one global batch; returns per-device array specs (or arrays).

    ``payload`` keys: ``epoch``, ``chunks`` (per-device seed arrays or
    ``None``), ``fanouts``, ``global_seed``, ``slot`` (result segment name,
    or ``None`` to force pickled results — used before slots are sized) of
    slot ring ``ring``, and ``chaos`` (an armed ``{"kind", "seconds"}``
    host-fault directive).
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
    epoch = int(payload["epoch"])
    chunks: List[Optional[np.ndarray]] = payload["chunks"]
    sampler = _sampler(payload["fanouts"], payload["global_seed"])

    per_device = sample_device_batches(sampler, chunks, epoch)

    device_arrays = [None if mb is None else _batch_arrays(mb) for mb in per_device]
    layers = [None if mb is None else len(mb.blocks) for mb in per_device]
    result = {
        "layers": layers,
        "via_shm": False,
        "nbytes": int(
            sum(a.nbytes for arrs in device_arrays if arrs for a in arrs)
        ),
    }

    slot = payload.get("slot")
    if slot is not None:
        try:
            buf = _slot_buffer(payload["ring"], slot)
            offset = 0
            specs: List[Optional[list]] = []
            for arrs in device_arrays:
                if arrs is None:
                    specs.append(None)
                    continue
                dev_specs = []
                for a in arrs:
                    offset, spec = write_array(buf, offset, a)
                    dev_specs.append(spec)
                specs.append(dev_specs)
            result["devices"] = specs
            result["via_shm"] = True
            h = hashlib.blake2b(digest_size=16)
            h.update(buf[:offset])
            result["digest"] = h.hexdigest()
            result["packed_bytes"] = int(offset)
            if chaos is not None and chaos["kind"] == "corrupt":
                # Tear the slot *after* digesting, like a partial write
                # racing the reader: the main process must catch the
                # mismatch and resample, never serve the bytes.
                if offset > 0:
                    corrupt = np.ndarray(
                        (min(offset, 8),), dtype=np.uint8, buffer=buf
                    )
                    corrupt[...] = ~corrupt
        except ValueError:
            # Slot overflow: ship the arrays through the pickle channel.
            result["devices"] = device_arrays
    else:
        result["devices"] = device_arrays
    result["busy"] = time.perf_counter() - t0
    _stamp(in_task=False)
    return result
