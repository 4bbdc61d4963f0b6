"""Graph Attention Network (Velickovic et al., 2018), multi-head.

Layer function per head ``k`` over the self-augmented neighborhood:

.. math::

    e_{uv} = LeakyReLU(a_l^k \\cdot W^k h_u + a_r^k \\cdot W^k h_v),\\quad
    \\alpha_{uv} = softmax_{u \\in N(v) \\cup \\{v\\}}(e_{uv}),\\quad
    h_v = \\Vert_k ELU( \\sum_u \\alpha_{uv} W^k h_u )

Hidden layers concatenate heads; the output layer averages them (the DGL
convention).

Cross-device decomposition (SNP/NFP first-layer paths) uses the softmax
identity ``softmax(e) = exp(e - c) / sum exp(e - c)`` with a *shared,
deterministic* shift ``c_v`` (the destination score, detached): partial
``(sum_u exp(e-c) z_u, sum_u exp(e-c))`` pairs from different devices add
exactly.  This is the "extra communication" the paper charges attention
models under SNP/NFP (§3.3): destination scores must be distributed to the
edge-holding devices and both numerator and denominator shipped back.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.models.base import GNNLayer, GNNModel, extend_with_self_edges
from repro.sampling.block import Block
from repro.tensor import functional as F
from repro.tensor import fused
from repro.tensor import init as tinit
from repro.tensor.module import Parameter
from repro.tensor.sparse import SegmentIndex, segment_softmax, segment_sum
from repro.tensor.tensor import Tensor
from repro.utils.random import rng_from


class GATLayer(GNNLayer):
    """One multi-head GAT layer.

    Parameters
    ----------
    in_dim:
        Input embedding dimension.
    head_dim:
        Per-head output dimension (the paper's "hidden dimension of 8").
    heads:
        Number of attention heads (paper default 4).
    concat:
        Concatenate heads (hidden layers) or average them (output layer).
    """

    is_attention = True

    def __init__(
        self,
        in_dim: int,
        head_dim: int,
        heads: int = 4,
        concat: bool = True,
        *,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if rng is None:
            rng = rng_from(0, in_dim, head_dim, heads)
        self.in_dim = int(in_dim)
        self.head_dim = int(head_dim)
        self.heads = int(heads)
        self.concat = bool(concat)
        self.out_dim = self.head_dim * self.heads if concat else self.head_dim
        self.weight = Parameter(
            tinit.xavier_uniform((self.in_dim, self.heads * self.head_dim), rng)
        )
        self.attn_l = Parameter(
            tinit.xavier_uniform((self.heads, self.head_dim), rng)
        )
        self.attn_r = Parameter(
            tinit.xavier_uniform((self.heads, self.head_dim), rng)
        )
        self.bias = Parameter(np.zeros(self.out_dim))

    # ------------------------------------------------------------------ #
    # projection and scores (shared by all execution paths)
    # ------------------------------------------------------------------ #
    def project(self, x: Tensor) -> Tensor:
        """``W x`` for a batch of inputs: ``(n, heads * head_dim)``."""
        return x @ self.weight

    def _as_heads(self, z2: Tensor) -> Tensor:
        return z2.reshape(z2.shape[0], self.heads, self.head_dim)

    def src_scores(self, z2: Tensor) -> Tensor:
        """Per-head source-side attention scores ``a_l . z`` : ``(n, heads)``."""
        return (self._as_heads(z2) * self.attn_l).sum(axis=2)

    def dst_scores(self, z2: Tensor) -> Tensor:
        """Per-head destination-side scores ``a_r . z`` : ``(n, heads)``."""
        return (self._as_heads(z2) * self.attn_r).sum(axis=2)

    # ------------------------------------------------------------------ #
    # full local computation
    # ------------------------------------------------------------------ #
    def full_forward(
        self,
        block: Block,
        h_src: Tensor,
        src_index: Optional[np.ndarray] = None,
    ) -> Tensor:
        if src_index is not None:
            # Attention projects every source row, so a union buffer is
            # materialized down to the block's rows first (same values).
            h_src = h_src.index_rows(src_index)
        z2 = self.project(h_src)
        return self.attend(block, z2)

    def attend(self, block: Block, z2: Tensor) -> Tensor:
        """Attention + aggregation given already-projected sources.

        Split out so NFP can reuse it after its cross-device projection
        allreduce produces the full ``z``.
        """
        if z2.shape != (block.num_src, self.heads * self.head_dim):
            raise ValueError(
                f"z2 shape {z2.shape} != ({block.num_src}, "
                f"{self.heads * self.head_dim})"
            )
        s_l = self.src_scores(z2)
        s_r = self.dst_scores(z2)
        edge_src, edge_dst = extend_with_self_edges(block)
        # One index per endpoint array: the few-column score operands share
        # the grouping the 32-column message sum needs anyway.
        src = SegmentIndex(edge_src, block.num_src)
        dst = SegmentIndex(edge_dst, block.num_dst)
        e = F.leaky_relu(s_l.index_rows(src) + s_r.index_rows(block.dst_in_src[edge_dst]))
        alpha = segment_softmax(e, dst)
        z3 = self._as_heads(z2)
        weighted = z3.index_rows(src) * alpha.reshape(alpha.shape[0], self.heads, 1)
        h3 = segment_sum(weighted, dst)
        return self.finalize(h3)

    def finalize(self, h3: Tensor) -> Tensor:
        """Head combination + bias + activation from ``(n, heads, head_dim)``."""
        if self.concat:
            # Fused reshape+bias+ELU (bit-identical to the composed chain).
            return fused.add_bias_act(
                [h3],
                self.bias,
                activation="elu",
                reshape_to=(h3.shape[0], self.heads * self.head_dim),
            )
        return fused.add_bias_act([h3.mean(axis=1)], self.bias)

    def forward_flops(self, block: Block) -> float:
        d_out = self.heads * self.head_dim
        proj = 2.0 * block.num_src * self.in_dim * d_out
        scores = 4.0 * block.num_src * d_out
        edges = (block.num_edges + block.num_dst) * self.heads * (self.head_dim + 6.0)
        return proj + scores + edges

    # ------------------------------------------------------------------ #
    # decomposition primitives (SNP first-layer path)
    # ------------------------------------------------------------------ #
    def partial_attention(
        self,
        z2_src: Tensor,
        s_l_src: Tensor,
        s_r_dst: Tensor,
        shift_dst: np.ndarray,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        num_dst: int,
    ) -> Tuple[Tensor, Tensor]:
        """Partial attention numerator/denominator over an edge subset.

        Parameters
        ----------
        z2_src / s_l_src:
            Projected sources and their source-side scores (local rows).
        s_r_dst:
            Destination-side scores for the (virtual) destinations, shipped
            from the destinations' owners — the attention extra
            communication.
        shift_dst:
            Detached per-destination stabilization shift shared by every
            device computing partials for the same destination (softmax is
            shift-invariant, so any deterministic choice is exact).
        edge_src / edge_dst:
            Local edge endpoints; ``edge_dst`` indexes the virtual
            destination list of length ``num_dst``.

        Returns
        -------
        ``(numerator (num_dst, heads, head_dim), denominator (num_dst, heads))``
        — partials from different devices for the same destination add.
        """
        src = SegmentIndex(edge_src, z2_src.shape[0])
        dst = SegmentIndex(edge_dst, num_dst)
        e = F.leaky_relu(s_l_src.index_rows(src) + s_r_dst.index_rows(dst))
        w = (e - Tensor(shift_dst[edge_dst])).exp()
        z3 = self._as_heads(z2_src)
        weighted = z3.index_rows(src) * w.reshape(w.shape[0], self.heads, 1)
        return segment_sum(weighted, dst), segment_sum(w, dst)

    def combine_attention_partials(self, num_total: Tensor, den_total: Tensor) -> Tensor:
        """Exact reconstruction from summed (numerator, denominator) pairs."""
        h3 = num_total / den_total.reshape(den_total.shape[0], self.heads, 1)
        return self.finalize(h3)


class GAT(GNNModel):
    """A K-layer GAT for node classification.

    Hidden layers use ``heads`` concatenated heads of ``head_dim``; the
    output layer averages ``heads`` heads of ``num_classes`` dimensions
    (paper defaults: 3 layers, head_dim 8, 4 heads).
    """

    def __init__(
        self,
        in_dim: int,
        head_dim: int,
        num_classes: int,
        num_layers: int = 3,
        heads: int = 4,
        seed: int = 0,
    ):
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        layers = []
        dim = in_dim
        for k in range(num_layers - 1):
            layers.append(
                GATLayer(dim, head_dim, heads, concat=True, rng=rng_from(seed, 0x6A7, k))
            )
            dim = head_dim * heads
        layers.append(
            GATLayer(
                dim, num_classes, heads, concat=False, rng=rng_from(seed, 0x6A7, 99)
            )
        )
        super().__init__(layers)
        self.in_dim = in_dim
        self.num_classes = num_classes
