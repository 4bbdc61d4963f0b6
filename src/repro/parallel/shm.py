"""Shared-memory plumbing for the process execution backend.

Two kinds of segments flow between the main process and the sampler
workers:

* **the task-data segment** — the CSR graph (``indptr``/``indices``),
  exported once per worker set and attached read-only by every worker
  (:func:`export_task_data` / :func:`attach_task_data`).  Attaching maps
  the same physical pages, so workers sample against the *identical
  bytes* the main process trains on — zero copies, and bit-identity of
  worker-produced arrays is structural rather than asserted.  Sampling
  never reads a feature, so no feature matrix — in RAM or memory-mapped —
  is shared or mapped by a worker.
* **result slots** — a small ring of fixed-size segments the main process
  preallocates; a worker packs its sampled index arrays into the slot
  named by its task and returns only
  tiny :class:`ArraySpec` descriptors.  The main process reconstructs
  NumPy views directly on the slot buffer (:func:`read_array`), avoiding
  the pickle round-trip that would otherwise dominate IPC.

Every segment is created (and eventually unlinked) by the **main**
process; workers never create or unlink, which keeps the
``multiprocessing.resource_tracker`` silent and makes cleanup a pure
main-process concern (see DESIGN.md §5.10).

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
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

#: Slot payloads are 8-byte aligned so int64/float64 views are native.
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

    Raises :class:`ValueError` when the array does not fit — callers treat
    that as a slot overflow and fall back to pickling.
    """
    arr = np.ascontiguousarray(arr)
    end = offset + arr.nbytes
    if end > len(buf):
        raise ValueError(
            f"array of {arr.nbytes} bytes does not fit at offset {offset} "
            f"of a {len(buf)}-byte slot"
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


# ---------------------------------------------------------------------- #
# result slots
# ---------------------------------------------------------------------- #
class SlotRing:
    """A ring of equal-size main-process-owned result segments.

    The pipeline assigns a free slot to each in-flight sampling task;
    consumed slots are *retired* for ``holdoff`` subsequent batch serves
    before they return to the free list, so NumPy views handed to the
    engine stay valid through the batch (and one successor) that uses
    them.  With ``n_slots >= prefetch_depth + holdoff + 1`` a free slot
    always exists; runs out only if callers leak slots, in which case
    :meth:`acquire` returns ``None`` and the task falls back to pickled
    results.
    """

    def __init__(self, n_slots: int, slot_bytes: int, holdoff: int = 2):
        self.slot_bytes = int(slot_bytes)
        self.holdoff = int(holdoff)
        self._segments: List[shared_memory.SharedMemory] = [
            create_segment(self.slot_bytes) for _ in range(int(n_slots))
        ]
        self._by_name = {seg.name: seg for seg in self._segments}
        self._free: List[str] = [seg.name for seg in self._segments]
        self._retired: List[str] = []
        #: slots pulled from circulation (a possibly-dead worker may still
        #: write them); kept mapped until :meth:`close`, never reused
        self._quarantined: Set[str] = set()

    # ------------------------------------------------------------------ #
    def acquire(self) -> Optional[str]:
        """Name of a free slot (reserved until retired + held off)."""
        return self._free.pop(0) if self._free else None

    def release(self, name: Optional[str]) -> None:
        """Return an acquired-but-unused slot straight to the free list."""
        if name is not None and name not in self._quarantined:
            self._free.append(name)

    def retire(self, name: Optional[str]) -> None:
        """Mark a slot's contents as served; frees slots ``holdoff`` serves
        later."""
        if name is not None and name not in self._quarantined:
            self._retired.append(name)
        while len(self._retired) > self.holdoff:
            self._free.append(self._retired.pop(0))

    def quarantine(self, name: Optional[str]) -> None:
        """Permanently remove one slot from circulation.

        The supervision layer calls this when a task is resubmitted after
        a timeout or worker death: the original worker may still be alive
        and could write the abandoned slot at any time, so it must never
        be handed to another task.  A replacement segment keeps the ring's
        capacity (and the ``n_slots >= depth + holdoff + 1`` free-slot
        invariant) intact.
        """
        if name is None or name in self._quarantined:
            return
        self._quarantined.add(name)
        replacement = create_segment(self.slot_bytes)
        self._segments.append(replacement)
        self._by_name[replacement.name] = replacement
        self._free.append(replacement.name)

    def buffer(self, name: str):
        return self._by_name[name].buf

    def close(self) -> None:
        for seg in self._segments:
            destroy_segment(seg)
        self._segments.clear()
        self._by_name.clear()
        self._free.clear()
        self._retired.clear()
        self._quarantined.clear()
