"""Sample each global batch once: union sampling and a keyed batch cache.

The counter-based hash sampler makes every draw a pure function of
``(global_seed, epoch, layer, node, draw)`` — independent of the rest of the
frontier (the :class:`~repro.sampling.neighbor.NeighborSampler` contract).
Two consequences are used here, both **bit-identical** to sampling directly
(pinned by ``tests/sampling/test_cache.py``):

* **union, then restrict** — :func:`sample_device_batches` samples the
  union of a global batch's per-device seed chunks once and derives each
  device's minibatch by layerwise *restriction* (:func:`_restrict`: a few
  gathers per layer instead of a sampling pass).  The serial backend and
  the process backend's workers sample through it: training revisits each
  global batch (census, dry-runs, first epoch), so the union is what the
  cache keeps.  The serve engine, whose request batches are each used
  once, instead draws every (batch, device) seed set of a chunk of batches
  in one ``NeighborSampler.sample_many`` pass.
* **one entry per global batch** — ``SampleCache`` memoizes the union
  batches under ``(graph, fanouts, global_seed, epoch, seeds)`` with an
  explicit byte budget and LRU eviction.  The engine meets the same batch
  many times over — the access census, one dry-run per candidate
  strategy, every planner call, the first training epoch — so a device
  split is stored on its global batch's entry once that entry is
  *revisited*, and served from there afterwards; a batch used once (a
  training epoch past the first) stores none.

The cache is a wall-clock optimization only: callers charge simulated
sampling time from the returned batch exactly as before, and cached batches
are bit-identical to freshly sampled ones, so simulated timelines, losses,
and gradients are unchanged (see DESIGN.md §5.9).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sampling.block import Block, MiniBatch
from repro.utils.ids import sorted_unique

#: Default byte budget (index arrays only) — a few hundred analog-scale
#: epochs; real deployments would size this against host memory.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


@dataclass
class SampleCacheStats:
    """Counters of one cache's lifetime (observability / tests).

    A global batch looked up is a hit or a miss.  Each device split of a
    hit is a restriction, or a hit when a stored split is served; the
    splits of a miss are restricted out of a fresh sample, so the cache
    served nothing and they are not counted.
    """

    hits: int = 0
    restrictions: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.restrictions + self.misses

    def to_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "restrictions": self.restrictions,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: Budget pools entries can be charged against (see ``SampleCache.sample``).
CACHE_KINDS = ("train", "eval")


@dataclass
class _Entry:
    batch: MiniBatch
    #: bytes of ``batch`` plus every stored split
    nbytes: int
    graph_id: int
    #: budget pool this entry is charged against
    kind: str = "train"
    #: device splits by seed-set digest, stored on the entry's second use
    splits: Dict[bytes, MiniBatch] = field(default_factory=dict)


def _restrict(whole: MiniBatch, seeds_u: np.ndarray) -> MiniBatch:
    """Layerwise restriction of ``whole`` to the subset ``seeds_u``.

    ``seeds_u`` must be sorted, unique and contained in ``whole.seeds``.
    Walks the blocks output-to-input: the restricted frontier at each layer
    selects its destinations' complete edge runs out of the parent block
    (edges are dst-sorted, so each destination's in-edges are one
    contiguous slice), and the next frontier is the sorted-unique source
    union — the same construction :meth:`Block.from_global_edges` performs,
    expressed in parent-local indices.
    """
    frontier = seeds_u
    blocks: List[Block] = []
    for wb in reversed(whole.blocks):
        # Positions of the restricted destinations inside the parent block.
        sel = np.searchsorted(wb.dst_nodes, frontier)
        ptr = wb.dst_edge_ptr()
        starts = ptr[sel]
        lens = ptr[sel + 1] - starts
        total = int(lens.sum())
        offs = np.cumsum(lens) - lens
        flat = np.repeat(starts - offs, lens) + np.arange(total, dtype=np.int64)
        es_w = wb.edge_src[flat]  # parent-local source index per kept edge
        dst_in_src_w = wb.dst_in_src[sel]
        # Sorted-unique source union via a presence mask (cheaper than
        # union1d on global ids), plus the parent-local -> child-local map.
        present = np.zeros(wb.num_src, dtype=bool)
        present[es_w] = True
        present[dst_in_src_w] = True
        union_w = np.flatnonzero(present)
        inv = np.empty(wb.num_src, dtype=np.int64)
        inv[union_w] = np.arange(union_w.size, dtype=np.int64)
        src_nodes = wb.src_nodes[union_w]
        blocks.append(
            Block(
                src_nodes=src_nodes,
                dst_nodes=frontier,
                dst_in_src=inv[dst_in_src_w],
                edge_src=inv[es_w],
                edge_dst=np.repeat(np.arange(sel.size, dtype=np.int64), lens),
            )
        )
        frontier = src_nodes
    blocks.reverse()
    return MiniBatch(seeds=seeds_u, blocks=blocks)


def sample_device_batches(
    sampler,
    chunks: Sequence[Optional[np.ndarray]],
    epoch: int,
    cache: Optional["SampleCache"] = None,
) -> List[Optional[MiniBatch]]:
    """Per-device minibatches of one global batch, sampled once.

    ``chunks`` holds one seed array (or ``None``) per device; ``None`` and
    empty chunks map to ``None``.  The union of the active chunks is
    sampled in one call — through ``cache`` when given — and each device's
    minibatch is its restriction, bit-identical to
    ``sampler.sample(chunk, epoch=epoch)``.  A single active chunk is the
    union, returned as sampled.
    """
    out: List[Optional[MiniBatch]] = [None] * len(chunks)
    active = [d for d, c in enumerate(chunks) if c is not None and len(c)]
    if len(active) > 1:
        parts = [sorted_unique(np.asarray(chunks[d], dtype=np.int64)) for d in active]
        if cache is not None:
            derived = cache._sample_split(sampler, parts, epoch)
        else:
            whole = sampler.sample(np.concatenate(parts), epoch=epoch)
            derived = [_restrict(whole, seeds_u) for seeds_u in parts]
        for d, mb in zip(active, derived):
            out[d] = mb
        return out
    for d in active:  # at most one: the union itself
        out[d] = (
            sampler.sample(chunks[d], epoch=epoch)
            if cache is None
            else cache.sample(sampler, chunks[d], epoch=epoch)
        )
    return out


class SampleCache:
    """LRU cache of sampled global batches keyed by their pure-function inputs.

    Parameters
    ----------
    max_bytes:
        Byte budget over the cached index arrays of **training** batches
        (device splits included).  Least-recently-used entries are evicted
        once the budget is exceeded; a batch larger than its whole budget
        is returned uncached.
    eval_max_bytes:
        Separate byte budget for ``kind="eval"`` entries (accuracy
        evaluation sweeps a huge pseudo-epoch of batches; giving them
        their own pool keeps them from thrashing the training entries).
        Defaults to ``max_bytes // 4``.  Eviction never crosses pools.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_MAX_BYTES,
        eval_max_bytes: Optional[int] = None,
    ):
        if int(max_bytes) <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        if eval_max_bytes is None:
            eval_max_bytes = max(1, int(max_bytes) // 4)
        if int(eval_max_bytes) <= 0:
            raise ValueError(
                f"eval_max_bytes must be positive, got {eval_max_bytes}"
            )
        self.max_bytes = int(max_bytes)
        self.stats = SampleCacheStats()
        self._budgets = {"train": int(max_bytes), "eval": int(eval_max_bytes)}
        self._entries: "OrderedDict[Tuple, _Entry]" = OrderedDict()
        #: graph id -> (graph, live entry count).  Holding the reference
        #: keeps ``id()`` from being reused while entries point at it.
        self._graphs: Dict[int, list] = {}
        self._bytes = 0
        self._kind_bytes = {k: 0 for k in CACHE_KINDS}
        self._kind_counts = {k: 0 for k in CACHE_KINDS}

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._graphs.clear()
        self._bytes = 0
        self._kind_bytes = {k: 0 for k in CACHE_KINDS}
        self._kind_counts = {k: 0 for k in CACHE_KINDS}

    # ------------------------------------------------------------------ #
    @staticmethod
    def _key(sampler, epoch: int, seeds_u: np.ndarray) -> Tuple:
        return (
            id(sampler.graph),
            tuple(sampler.fanouts),
            int(sampler.global_seed),
            int(epoch),
            _digest(seeds_u),
        )

    def sample(
        self,
        sampler,
        seeds: np.ndarray,
        epoch: int = 0,
        kind: str = "train",
    ) -> MiniBatch:
        """Sampler-compatible entry point: ``sample(sampler, seeds, epoch)``.

        Returns the same :class:`MiniBatch` (bit-identical arrays) as
        ``sampler.sample(seeds, epoch=epoch)`` would.  ``kind`` picks the
        budget pool the inserted entry is charged against — evaluation
        callers pass ``"eval"`` so their one-shot batch sweeps can never
        evict training entries.
        """
        if kind not in CACHE_KINDS:
            raise ValueError(f"kind must be one of {CACHE_KINDS}, got {kind!r}")
        seeds_u = sorted_unique(np.asarray(seeds, dtype=np.int64))
        return self._lookup(sampler, seeds_u, epoch, kind)[1]

    def _lookup(
        self, sampler, seeds_u: np.ndarray, epoch: int, kind: str
    ) -> Tuple[Optional[_Entry], MiniBatch]:
        """``(entry, batch)`` for the sorted-unique ``seeds_u``: the entry
        that was hit, or ``None`` and a freshly sampled (and inserted)
        batch."""
        key = self._key(sampler, epoch, seeds_u)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry, entry.batch
        batch = sampler.sample(seeds_u, epoch=epoch)
        self.stats.misses += 1
        self._insert(key, sampler.graph, batch, kind)
        return None, batch

    def _sample_split(
        self, sampler, parts: Sequence[np.ndarray], epoch: int
    ) -> List[MiniBatch]:
        """Minibatches of the sorted-unique seed sets ``parts``, each
        restricted out of one lookup of their union (see
        :func:`sample_device_batches`).  On a miss the union was sampled
        fresh: its splits are neither counted nor stored.  On a hit the
        global batch is being revisited, so each split is served from the
        entry (a hit) or restricted out of it (a restriction) and stored
        there, since it will be asked for again."""
        union = sorted_unique(np.concatenate(parts))
        entry, whole = self._lookup(sampler, union, epoch, "train")
        if entry is None:
            return [_restrict(whole, seeds_u) for seeds_u in parts]
        out: List[MiniBatch] = []
        for seeds_u in parts:
            digest = _digest(seeds_u)
            mb = entry.splits.get(digest)
            if mb is not None:
                self.stats.hits += 1
            else:
                mb = _restrict(whole, seeds_u)
                self.stats.restrictions += 1
                self._store_split(entry, digest, mb)
            out.append(mb)
        return out

    # ------------------------------------------------------------------ #
    def _insert(self, key: Tuple, graph, batch: MiniBatch, kind: str) -> None:
        nbytes = batch.nbytes()
        if nbytes > self._budgets[kind]:
            return  # larger than this pool's whole budget: serve uncached
        self._entries[key] = _Entry(
            batch=batch, nbytes=nbytes, graph_id=key[0], kind=kind
        )
        holder = self._graphs.get(key[0])
        if holder is None:
            self._graphs[key[0]] = [graph, 1]
        else:
            holder[1] += 1
        self._kind_counts[kind] += 1
        self._charge(kind, nbytes)

    def _store_split(self, entry: _Entry, digest: bytes, mb: MiniBatch) -> None:
        nbytes = mb.nbytes()
        if entry.nbytes + nbytes > self._budgets[entry.kind]:
            return  # the entry alone would outgrow its pool
        entry.splits[digest] = mb
        entry.nbytes += nbytes
        self._charge(entry.kind, nbytes)

    def _charge(self, kind: str, nbytes: int) -> None:
        """Add ``nbytes`` to ``kind``'s pool, then evict least-recently-used
        entries *of the same pool* until it fits — eval sweeps stay inside
        eval_max_bytes and cannot push out training entries (and vice
        versa).  The newest entry is never evicted by its own charge."""
        self._bytes += nbytes
        self._kind_bytes[kind] += nbytes
        while (
            self._kind_bytes[kind] > self._budgets[kind]
            and self._kind_counts[kind] > 1
        ):
            self._evict_oldest(kind)

    def _evict_oldest(self, kind: str) -> None:
        for old_key, old in self._entries.items():
            if old.kind == kind:
                break
        else:  # pragma: no cover - guarded by _kind_counts > 1
            return
        del self._entries[old_key]
        self._bytes -= old.nbytes
        self._kind_bytes[kind] -= old.nbytes
        self._kind_counts[kind] -= 1
        self.stats.evictions += 1
        holder = self._graphs.get(old.graph_id)
        if holder is not None:
            holder[1] -= 1
            if holder[1] <= 0:
                del self._graphs[old.graph_id]


def _digest(seeds_u: np.ndarray) -> bytes:
    return hashlib.blake2b(seeds_u.tobytes(), digest_size=16).digest()
