"""Graph Convolutional Network (Kipf & Welling, 2017), sampled-subgraph form.

Layer function over the self-augmented sampled neighborhood:

.. math::

    h_v = \\sigma( W \\cdot mean_{u \\in N(v) \\cup \\{v\\}} h_u + b )

(the mean-normalized GCN variant DGL exposes as the "gcn" aggregator; the
symmetric-sqrt normalization degenerates to this under fixed-fanout
sampling).  Unlike GraphSAGE there is no separate self weight: the
destination's own input rides along as one more aggregation element, which
the SNP router realizes as a self-edge materialized at the destination's
partition owner (``self_loop_in_aggregation``).

The cross-device decomposition uses the same exact (sum, count) algebra as
GraphSAGE — see :class:`repro.models.base.PartialMeanLayer`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.models.base import GNNModel, PartialMeanLayer, extend_with_self_edges
from repro.sampling.block import Block
from repro.tensor import fused
from repro.tensor import init as tinit
from repro.tensor.module import Parameter
from repro.tensor.sparse import gather_segment_mean
from repro.tensor.tensor import Tensor
from repro.utils.random import rng_from


class GCNLayer(PartialMeanLayer):
    """One mean-normalized GCN layer (self-loop folded into aggregation)."""

    self_loop_in_aggregation = True

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        activation: bool = True,
        *,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if rng is None:
            rng = rng_from(0, in_dim, out_dim, 0x6C9)
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.activation = bool(activation)
        self.weight = Parameter(tinit.xavier_uniform((self.in_dim, self.out_dim), rng))
        self.bias = Parameter(np.zeros(self.out_dim))

    # ------------------------------------------------------------------ #
    def full_forward(
        self,
        block: Block,
        h_src: Tensor,
        src_index: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Local layer-1 forward.

        ``src_index`` maps block-local source positions to rows of a larger
        ``h_src`` (the shared-gather union buffer) — the gathered row values
        are identical, so the result is bitwise equal to passing the
        per-block rows directly.
        """
        if src_index is None:
            if h_src.shape != (block.num_src, self.in_dim):
                raise ValueError(
                    f"h_src shape {h_src.shape} != ({block.num_src}, {self.in_dim})"
                )
        elif src_index.shape != (block.num_src,):
            raise ValueError(
                f"src_index shape {src_index.shape} != ({block.num_src},)"
            )
        edge_src, edge_dst = extend_with_self_edges(block)
        if src_index is not None:
            edge_src = src_index[edge_src]
        mean = gather_segment_mean(h_src, edge_src, edge_dst, block.num_dst)
        # Single fused projection+bias+activation node (bit-identical to
        # the composed `mean @ W` -> `+ b` -> `relu` chain).
        return fused.linear(
            mean, self.weight, self.bias, activation=self._act
        )

    def forward_flops(self, block: Block) -> float:
        agg = 2.0 * (block.num_edges + block.num_dst) * self.in_dim
        proj = 2.0 * block.num_dst * self.in_dim * self.out_dim
        return agg + proj


class GCN(GNNModel):
    """A K-layer GCN for node classification."""

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        num_classes: int,
        num_layers: int = 3,
        seed: int = 0,
    ):
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [num_classes]
        layers = [
            GCNLayer(
                dims[k],
                dims[k + 1],
                activation=(k < num_layers - 1),
                rng=rng_from(seed, 0x6C4, k),
            )
            for k in range(num_layers)
        ]
        super().__init__(layers)
        self.in_dim = in_dim
        self.num_classes = num_classes
