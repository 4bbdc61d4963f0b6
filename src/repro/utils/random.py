"""Deterministic random-number helpers.

Every stochastic component of the library (graph generation, neighbor
sampling, parameter initialization) draws from a
:class:`numpy.random.Generator` derived from an explicit integer seed.  Two
properties matter for the reproduction:

1. **Run-to-run determinism** — the same seed always produces the same graph,
   samples, and trained model, so benchmark numbers are stable.
2. **Strategy-independence of sampling** — the sampled neighborhood of a seed
   node must depend only on ``(global_seed, epoch, node_id)``, *not* on which
   simulated GPU happens to process the seed.  This is what makes the four
   parallelization strategies numerically identical (paper Fig. 6): they
   regroup the same sampled subgraphs, they never resample them differently.
   The neighbor sampler keys each node's draws with a vectorized
   splitmix64 hash (:mod:`repro.sampling.neighbor`).
"""

from __future__ import annotations

import numpy as np

# A large odd multiplier for cheap integer hashing (splitmix64-style).
_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9
_MIX_C = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixing function (public domain)."""
    x = (x + _MIX_A) & _MASK
    x = ((x ^ (x >> 30)) * _MIX_B) & _MASK
    x = ((x ^ (x >> 27)) * _MIX_C) & _MASK
    return x ^ (x >> 31)


def rng_from(seed: int, *streams: int) -> np.random.Generator:
    """Return a Generator keyed by ``seed`` and an optional stream tuple.

    ``rng_from(s, a, b)`` and ``rng_from(s, a, c)`` are independent streams
    for ``b != c``; both are reproducible functions of their arguments.
    """
    key = _splitmix64(int(seed) & _MASK)
    for s in streams:
        key = _splitmix64(key ^ (int(s) & _MASK))
    return np.random.default_rng(key)
