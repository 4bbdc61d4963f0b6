"""GraphSAGE (Hamilton et al., 2017) with the mean aggregator.

Layer function (paper Eq. 1 with mean AGG plus the usual self connection):

.. math::

    h_v = \\sigma( W_{self} h_v + W_{neigh} \\cdot mean_{u \\in N(v)} h_u + b )

The decomposition primitives exploit linearity of projection and mean:
``W_neigh * mean(x_u) = (sum_p W_neigh x_u^{(p)}) / (sum_p count_p)`` across
partial source sets ``p`` (SNP), and the same identity across feature-
dimension shards (NFP).  Both reconstructions are exact.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.models.base import GNNModel, PartialMeanLayer
from repro.sampling.block import Block
from repro.tensor import fused
from repro.tensor import init as tinit
from repro.tensor.module import Parameter
from repro.tensor.sparse import gather_segment_mean
from repro.tensor.tensor import Tensor
from repro.utils.random import rng_from


class SAGELayer(PartialMeanLayer):
    """One GraphSAGE-mean layer.

    Parameters
    ----------
    in_dim / out_dim:
        Input and output embedding dimensions.
    activation:
        Apply ReLU after the affine combination (disabled on the output
        layer).
    rng:
        Initializer RNG (deterministic model construction).
    """

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
            rng = rng_from(0, in_dim, out_dim)
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.activation = bool(activation)
        self.w_self = Parameter(tinit.xavier_uniform((self.in_dim, self.out_dim), rng))
        self.w_neigh = Parameter(tinit.xavier_uniform((self.in_dim, self.out_dim), rng))
        self.bias = Parameter(np.zeros(self.out_dim))

    # ------------------------------------------------------------------ #
    # full local computation
    # ------------------------------------------------------------------ #
    def full_forward(
        self,
        block: Block,
        h_src: Tensor,
        src_index: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Local layer-1 forward.

        ``src_index`` maps block-local source positions to rows of a larger
        ``h_src`` (the shared-gather union buffer); gathered values — and
        hence the output — are bitwise identical to the per-block form.
        """
        if src_index is None:
            if h_src.shape != (block.num_src, self.in_dim):
                raise ValueError(
                    f"h_src shape {h_src.shape} != ({block.num_src}, {self.in_dim})"
                )
            edge_src, dst_in_src = block.edge_src, block.dst_in_src
        else:
            if src_index.shape != (block.num_src,):
                raise ValueError(
                    f"src_index shape {src_index.shape} != ({block.num_src},)"
                )
            edge_src = src_index[block.edge_src]
            dst_in_src = src_index[block.dst_in_src]
        # Aggregate raw inputs, then project: cheaper than projecting every
        # source when out_dim < in_dim, and exactly equal either way.
        neigh_mean = gather_segment_mean(h_src, edge_src, block.dst_index())
        h_dst_in = h_src.index_rows(dst_in_src)
        return self.combine(neigh_mean @ self.w_neigh, h_dst_in @ self.w_self)

    def combine(self, neigh_term: Tensor, self_term: Tensor) -> Tensor:
        """Final affine combination plus optional activation (one fused
        node; bit-identical to the composed add/add/relu chain)."""
        return fused.add_bias_act(
            [neigh_term, self_term], self.bias, activation=self._act
        )

    def forward_flops(self, block: Block) -> float:
        agg = 2.0 * block.num_edges * self.in_dim
        proj = 2.0 * block.num_dst * self.in_dim * self.out_dim * 2  # self+neigh
        return agg + proj


class GraphSAGE(GNNModel):
    """A K-layer GraphSAGE-mean model for node classification.

    Parameters mirror the paper's defaults: 3 layers, hidden dimension 32.
    """

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
        layers = []
        for k in range(num_layers):
            layers.append(
                SAGELayer(
                    dims[k],
                    dims[k + 1],
                    activation=(k < num_layers - 1),
                    rng=rng_from(seed, 0x5A6E, k),
                )
            )
        super().__init__(layers)
        self.in_dim = in_dim
        self.num_classes = num_classes
