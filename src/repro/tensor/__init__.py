"""A tape-based NumPy autograd engine (the repo's PyTorch substitute).

The APT paper implements its strategies on top of PyTorch + DGL.  Neither is
available in this environment, so this package provides the minimal-but-real
substrate the strategies need:

* :class:`~repro.tensor.tensor.Tensor` — reverse-mode autograd over NumPy
  arrays (dense ops, broadcasting, indexing/gather, concatenation).
* :mod:`~repro.tensor.functional` — activations, softmax/log-softmax,
  and the cross-entropy losses used for node classification and link
  prediction.
* :mod:`~repro.tensor.sparse` — segment operations (sum / mean / softmax
  over edge groups, grouped by a reusable ``SegmentIndex``) and the fused
  gather→sum ``gather_segment_sum``, the kernels a GNN layer is made of.
  These mirror DGL's g-SpMM/SDDMM kernel roles.
* :mod:`~repro.tensor.module` — ``Module`` / ``Parameter`` containers.
* :mod:`~repro.tensor.optim` — Adam, the optimizer the run path builds.

Everything computes in float64 by default so that the semantic-equivalence
property of the four parallelization strategies (paper Fig. 6) can be
asserted to ~1e-10 in the test suite rather than eyeballed.
"""

from repro.tensor.tensor import Tensor, concat, no_grad, stack, tensor, zeros
from repro.tensor import functional
from repro.tensor import init
from repro.tensor.module import Linear, Module, ModuleList, Parameter
from repro.tensor.optim import Adam, Optimizer
from repro.tensor.sparse import (
    SegmentIndex,
    gather_segment_sum,
    segment_mean,
    segment_softmax,
    segment_sum,
)

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "concat",
    "stack",
    "no_grad",
    "functional",
    "init",
    "Module",
    "ModuleList",
    "Parameter",
    "Linear",
    "Optimizer",
    "Adam",
    "gather_segment_sum",
    "SegmentIndex",
    "segment_sum",
    "segment_mean",
    "segment_softmax",
]
