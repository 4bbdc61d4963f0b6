"""Shape/dtype-keyed buffer arena for gradient and activation recycling.

Training allocates the same gradient shapes every global batch: parameter
grads, scatter-add buffers for ``index_rows`` backward, and the shared
feature-gather staging buffer.  :class:`BufferPool` recycles those arrays
across batches instead of handing them back to the allocator, which removes
the dominant share of ``np.zeros``/``np.empty`` traffic from the training
step (see DESIGN.md §5.12).

Correctness model
-----------------
The pool only ever affects *where* bytes live, never what they hold:

* ``take`` returns an **uninitialized** buffer — every call site fully
  overwrites it (``np.copyto`` / ``np.take(out=...)``) or asks for
  ``take_zeros``, which memsets first.
* ``release`` is **ownership-checked**: only arrays the pool itself handed
  out are accepted back (a registry of lent-out ids), so externally
  assigned arrays (e.g. a test setting ``p.grad = np.ones(2)``) are never
  adopted and can never be handed to a second tensor.
* A released buffer is dead by contract — callers release a gradient only
  after its last consumer ran (reverse-topological order guarantees this
  inside ``Tensor.backward``).

The arena is process-global and toggled by :func:`buffer_arena` /
``REPRO_BUFFER_ARENA=0``; with it off, every call site degrades to the
exact allocation behavior the seed code had, which is how the equivalence
tests and benchmarks produce their "before" runs.
"""

from __future__ import annotations

import contextlib
import math
import os
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Buffers smaller than this stay on the normal allocator: the dict/registry
#: bookkeeping would cost more than the malloc it saves, and small scalars
#: (losses, 0-d grads) churn fast.
MIN_POOL_BYTES = 2048

#: Default cap on bytes parked in free lists (not counting lent-out buffers).
#: Past the cap, released buffers are dropped instead of retained.
DEFAULT_CAP_BYTES = 512 * 1024 * 1024


def _env_enabled() -> bool:
    return os.environ.get("REPRO_BUFFER_ARENA", "1") != "0"


def _env_cap() -> int:
    raw = os.environ.get("REPRO_ARENA_MB")
    if raw is None:
        return DEFAULT_CAP_BYTES
    return max(0, int(float(raw) * 1024 * 1024))


_ENABLED = _env_enabled()


def arena_enabled() -> bool:
    """Whether pooled buffers are in use (``REPRO_BUFFER_ARENA``, default on)."""
    return _ENABLED


@contextlib.contextmanager
def buffer_arena(enabled: bool):
    """Force the arena on or off within a scope (tests / benchmarks)."""
    global _ENABLED
    prev = _ENABLED
    _ENABLED = bool(enabled)
    try:
        yield
    finally:
        _ENABLED = prev


_Key = Tuple[tuple, object]


class BufferPool:
    """A free-list allocator of ndarrays keyed by ``(shape, dtype)``."""

    def __init__(self, cap_bytes: Optional[int] = None):
        self.cap_bytes = _env_cap() if cap_bytes is None else int(cap_bytes)
        self._free: Dict[_Key, List[np.ndarray]] = {}
        #: ids of buffers currently lent out -> their pool key; release only
        #: accepts arrays found here (ownership check).
        self._lent: Dict[int, _Key] = {}
        self._free_bytes = 0
        self.hits = 0
        self.misses = 0
        self.released = 0
        self.dropped = 0
        self.foreign = 0

    # ------------------------------------------------------------------ #
    def take(self, shape: tuple, dtype=np.float64) -> np.ndarray:
        """Hand out an **uninitialized** buffer of ``shape``/``dtype``.

        The caller must fully overwrite it before any read.
        """
        key = (tuple(shape), np.dtype(dtype))
        bucket = self._free.get(key)
        if bucket:
            buf = bucket.pop()
            self._free_bytes -= buf.nbytes
            self.hits += 1
        else:
            buf = np.empty(key[0], dtype=key[1])
            self.misses += 1
        if buf.nbytes >= MIN_POOL_BYTES:
            if len(self._lent) >= 65536:
                # Registry runaway (buffers taken but never released, then
                # garbage collected): forget them all.  Stale entries only
                # make future releases of those ids no-ops — safe.
                self._lent.clear()
            self._lent[id(buf)] = key
        return buf

    def take_zeros(self, shape: tuple, dtype=np.float64) -> np.ndarray:
        buf = self.take(shape, dtype)
        buf.fill(0.0)
        return buf

    def release(self, buf: np.ndarray) -> bool:
        """Return a pool-owned buffer to its free list.

        Arrays the pool never handed out (or views of them) are refused —
        that is the aliasing guarantee: nothing externally reachable can
        enter a free list and be handed to a second tensor.
        """
        key = self._lent.pop(id(buf), None)
        if (
            key is None
            or buf.shape != key[0]
            or buf.dtype != key[1]
            or buf.base is not None
        ):
            self.foreign += key is None
            return False
        if self._free_bytes + buf.nbytes > self.cap_bytes:
            self.dropped += 1
            return False
        self._free.setdefault(key, []).append(buf)
        self._free_bytes += buf.nbytes
        self.released += 1
        return True

    def owns(self, buf: np.ndarray) -> bool:
        """Whether ``buf`` is currently lent out by this pool."""
        return id(buf) in self._lent

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, float]:
        total = self.hits + self.misses
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "released": float(self.released),
            "dropped": float(self.dropped),
            "foreign": float(self.foreign),
            "free_bytes": float(self._free_bytes),
            "hit_rate": self.hits / total if total else 0.0,
        }

    def clear(self) -> None:
        self._free.clear()
        self._lent.clear()
        self._free_bytes = 0


#: The process-global pool every Tensor/featurestore call site shares.
_POOL = BufferPool()


def pool() -> BufferPool:
    return _POOL


def take(shape: tuple, dtype=np.float64) -> Optional[np.ndarray]:
    """Pool ``take`` honoring the enable flag and the small-buffer floor.

    Returns ``None`` when the arena is off or the buffer is too small to be
    worth pooling — callers fall back to their seed-path allocation.
    """
    if not _ENABLED:
        return None
    dt = np.dtype(dtype)
    if math.prod(shape) * dt.itemsize < MIN_POOL_BYTES:
        return None
    return _POOL.take(shape, dt)


def take_zeros(shape: tuple, dtype=np.float64) -> Optional[np.ndarray]:
    buf = take(shape, dtype)
    if buf is not None:
        buf.fill(0.0)
    return buf


def release(buf: Optional[np.ndarray]) -> bool:
    """Ownership-checked release; safe to call on any array (or ``None``)."""
    if buf is None or not _ENABLED:
        return False
    return _POOL.release(buf)
