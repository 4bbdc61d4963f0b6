"""Graph sampling: node-wise fanout sampling into bipartite blocks (MFGs).

The sampler is *counter-based*: the neighbors drawn for a node depend only on
``(global_seed, epoch, layer, node_id)``, computed with a vectorized
splitmix64 hash instead of a sequential RNG.  Two consequences matter:

* the same node sampled on two different simulated GPUs (or under two
  different parallelization strategies) yields the *identical* neighbor
  multiset, which is what lets the engine prove the strategies semantically
  equivalent (paper Fig. 6) instead of just statistically similar;
* a seed subset's minibatch is a *restriction* of any superset's, and many
  seed sets can be drawn in one vectorized pass (``sample_many``): training
  samples each global batch once and restricts it per device, serving draws
  a chunk of request batches at once.

:class:`NeighborSampler` is the one sampler, and this per-node determinism
is its contract (DESIGN.md §5.9).
"""

from repro.sampling.block import Block, MiniBatch
from repro.sampling.cache import SampleCache, SampleCacheStats
from repro.sampling.neighbor import NeighborSampler
from repro.sampling.batching import EpochIterator

__all__ = [
    "Block",
    "MiniBatch",
    "NeighborSampler",
    "SampleCache",
    "SampleCacheStats",
    "EpochIterator",
]
