"""Seed batching and epoch iteration.

A *global batch* is ``batch_size_per_gpu * num_gpus`` seeds; each strategy
then distributes a global batch's seeds over the simulated GPUs its own way
(round-robin for GDP/NFP, partition-local for SNP/DNP — paper §3.2).
Keeping the global batch sequence strategy-independent is the second half of
the semantic-equivalence guarantee: together with weighted gradient
averaging, every strategy applies the exact same sequence of parameter
updates.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from repro.utils.ids import sorted_unique
from repro.utils.random import rng_from


class EpochIterator:
    """Deterministic shuffled iteration over seed-node global batches.

    Parameters
    ----------
    seeds:
        All training seed nodes.
    global_batch_size:
        Seeds per global batch (``per_gpu_batch * num_gpus``); the final
        partial batch is kept (matching DGL's default drop_last=False).
    shuffle_seed:
        Base seed; the shuffle also keys on the epoch number so every epoch
        visits seeds in a fresh order, identically across strategies.
    """

    def __init__(
        self,
        seeds: np.ndarray,
        global_batch_size: int,
        shuffle_seed: int = 0,
    ):
        # np.array copies: the stored seeds never alias the caller's array.
        self.seeds = sorted_unique(np.array(seeds, dtype=np.int64))
        if self.seeds.size == 0:
            raise ValueError("seed set is empty")
        if global_batch_size <= 0:
            raise ValueError(
                f"global_batch_size must be positive, got {global_batch_size}"
            )
        self.global_batch_size = int(global_batch_size)
        self.shuffle_seed = int(shuffle_seed)

    def num_batches(self) -> int:
        return -(-self.seeds.size // self.global_batch_size)

    def epoch_batches(self, epoch: int) -> List[np.ndarray]:
        """Return the list of global seed batches for ``epoch``."""
        rng = rng_from(self.shuffle_seed, 0x5EED, epoch)
        order = rng.permutation(self.seeds.size)
        shuffled = self.seeds[order]
        return [
            shuffled[i : i + self.global_batch_size]
            for i in range(0, shuffled.size, self.global_batch_size)
        ]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.epoch_batches(0))
