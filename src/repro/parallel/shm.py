"""Shared-memory plumbing for the process execution backend.

One kind of segment is shared with the sampler workers: the **task-data
segment** — the CSR graph (``indptr``/``indices``), exported once per
worker set and attached read-only by every worker
(:func:`export_task_data` / :func:`attach_task_data`).  Attaching maps the
same physical pages, so workers sample against the *identical bytes* the
main process trains on — zero copies, and bit-identity of worker-produced
arrays is structural rather than asserted.  Sampling never reads a
feature, so no feature matrix — in RAM or memory-mapped — is shared or
mapped by a worker.  Sampled blocks come back pickled over each worker's
pipe (:mod:`repro.parallel.worker`); at one global batch per task they
are small next to the graph.

Every segment (the export and the supervisor's heartbeat board) is
created (and eventually unlinked) by the **main** process; workers never
create or unlink, which keeps the ``multiprocessing.resource_tracker``
silent and makes cleanup a pure main-process concern (see DESIGN.md
§5.10).

Creation goes through :func:`create_segment`, which registers every
segment in a module-level table unlinked by an ``atexit`` finalizer: if
the interpreter exits abnormally (uncaught exception, ``sys.exit`` mid-
run) before the owning object's ``close()`` ran, the guard still unlinks
the segment instead of leaving it to ``resource_tracker`` warnings and
``/dev/shm`` litter.  Normal teardown paths call :func:`destroy_segment`,
which unlinks and deregisters immediately.
"""

from __future__ import annotations

import atexit
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Tuple

import numpy as np

#: Arrays are placed 8-byte aligned so int64/float64 views are native.
_ALIGN = 8


def _aligned(n: int) -> int:
    return (int(n) + _ALIGN - 1) // _ALIGN * _ALIGN


# ---------------------------------------------------------------------- #
# interpreter-exit unlink guard for main-process-created segments
# ---------------------------------------------------------------------- #
#: segments created by this process and not yet destroyed, by name
_LIVE_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}
_GUARD_ARMED = False


def _unlink_live_segments() -> None:
    """``atexit`` finalizer: unlink every segment still registered.

    Reached only when an owner's ``close()`` did not run (abnormal exit);
    live NumPy views keep their pages mapped (``close`` raising
    ``BufferError`` is tolerated), but the name is always removed so the
    segment cannot outlive the interpreter.
    """
    for name in list(_LIVE_SEGMENTS):
        segment = _LIVE_SEGMENTS.pop(name)
        try:
            segment.close()
        except BufferError:  # pragma: no cover - exported views at exit
            pass
        try:
            segment.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass


def create_segment(size: int) -> shared_memory.SharedMemory:
    """Create a shared-memory segment registered with the exit guard."""
    global _GUARD_ARMED
    segment = shared_memory.SharedMemory(create=True, size=max(int(size), 1))
    if not _GUARD_ARMED:
        atexit.register(_unlink_live_segments)
        _GUARD_ARMED = True
    _LIVE_SEGMENTS[segment.name] = segment
    return segment


def destroy_segment(segment: shared_memory.SharedMemory) -> None:
    """Normal-teardown counterpart: close, unlink, deregister."""
    _LIVE_SEGMENTS.pop(segment.name, None)
    try:
        segment.close()
    except BufferError:  # pragma: no cover - live views at teardown
        pass
    try:
        segment.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - double close
        pass


@dataclass(frozen=True)
class ArraySpec:
    """Location of one array inside a shared-memory segment (picklable)."""

    offset: int
    dtype: str
    shape: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        n = int(np.dtype(self.dtype).itemsize)
        for s in self.shape:
            n *= int(s)
        return n


def write_array(buf, offset: int, arr: np.ndarray) -> Tuple[int, ArraySpec]:
    """Copy ``arr`` into ``buf`` at ``offset``; returns (next offset, spec).

    Raises :class:`ValueError` when the array does not fit.
    """
    arr = np.ascontiguousarray(arr)
    end = offset + arr.nbytes
    if end > len(buf):
        raise ValueError(
            f"array of {arr.nbytes} bytes does not fit at offset {offset} "
            f"of a {len(buf)}-byte buffer"
        )
    if arr.nbytes:
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=buf, offset=offset)
        view[...] = arr
    return _aligned(end), ArraySpec(offset, arr.dtype.str, tuple(arr.shape))


def read_array(buf, spec: ArraySpec) -> np.ndarray:
    """Zero-copy view of the array described by ``spec`` inside ``buf``."""
    return np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=buf,
                      offset=spec.offset)


# ---------------------------------------------------------------------- #
# task data: the graph, exported once per worker set
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class TaskDataDescriptor:
    """Everything a worker needs to attach the task data (picklable)."""

    segment_name: str
    num_nodes: int
    indptr: ArraySpec
    indices: ArraySpec


class TaskDataExport:
    """Main-process owner of the graph segment."""

    def __init__(self, segment: shared_memory.SharedMemory,
                 descriptor: TaskDataDescriptor, arrays: Tuple):
        self.segment = segment
        self.descriptor = descriptor
        #: the dataset's own ``(indptr, indices, features)`` objects: what
        #: this export serves.  Workers never read the features, but a
        #: lease is still per dataset (:meth:`covers`).
        self._arrays = arrays

    def covers(self, dataset) -> bool:
        """True when ``dataset`` is made of the very arrays exported here."""
        return all(a is b for a, b in zip(self._arrays, _arrays_of(dataset)))

    def close(self) -> None:
        destroy_segment(self.segment)


def _arrays_of(dataset) -> Tuple:
    return (dataset.graph.indptr, dataset.graph.indices, dataset.features)


def export_task_data(dataset) -> TaskDataExport:
    """Export the dataset's CSR graph for worker attachment; its features
    stay where they are."""
    graph = dataset.graph
    arrays = {"indptr": graph.indptr, "indices": np.asarray(graph.indices)}
    total = sum(_aligned(np.ascontiguousarray(a).nbytes) for a in arrays.values())
    segment = create_segment(max(total, _ALIGN))
    offset = 0
    specs: Dict[str, ArraySpec] = {}
    for name, arr in arrays.items():
        offset, specs[name] = write_array(segment.buf, offset, arr)
    descriptor = TaskDataDescriptor(
        segment_name=segment.name,
        num_nodes=int(graph.num_nodes),
        indptr=specs["indptr"],
        indices=specs["indices"],
    )
    return TaskDataExport(segment, descriptor, _arrays_of(dataset))


def attach_task_data(descriptor: TaskDataDescriptor):
    """Worker side: map the segment, return ``(segment, graph)``.

    The returned graph is a :class:`~repro.graph.csr.CSRGraph` whose arrays
    are views into the shared segment; the caller must keep the segment
    object alive for as long as the graph is used.
    """
    from repro.graph.csr import CSRGraph

    segment = shared_memory.SharedMemory(name=descriptor.segment_name)
    graph = CSRGraph(
        read_array(segment.buf, descriptor.indptr),
        read_array(segment.buf, descriptor.indices),
    )
    return segment, graph
