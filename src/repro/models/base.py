"""Model/layer base classes and the interface the execution engine uses."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cluster.spec import ELEMENT_BYTES
from repro.sampling.block import Block, MiniBatch
from repro.tensor import fused
from repro.tensor.module import Module, ModuleList
from repro.tensor.tensor import Tensor


class GNNLayer(Module):
    """One GNN layer over a bipartite block.

    Subclasses must set ``in_dim`` / ``out_dim`` and implement
    :meth:`full_forward`.  ``is_attention`` tells the engine whether the
    layer needs a destination-complete view (GAT) — the property the paper
    uses to explain why SNP/NFP pay extra communication for attention
    models (§3.3).  ``self_loop_in_aggregation`` tells the engine the
    layer folds the destination's own input into the neighbor aggregation
    (GCN-style) rather than through a separate self weight (SAGE-style):
    the SNP router then materializes a self-edge at the destination's
    owner instead of shipping a separate self term.
    """

    in_dim: int
    out_dim: int
    is_attention: bool = False
    self_loop_in_aggregation: bool = False

    def full_forward(self, block: Block, h_src: Tensor) -> Tensor:
        """Compute dst embeddings ``(block.num_dst, out_dim)`` locally."""
        raise NotImplementedError

    def forward(self, block: Block, h_src: Tensor) -> Tensor:
        return self.full_forward(block, h_src)

    def forward_flops(self, block: Block) -> float:
        """Forward FLOPs of :meth:`full_forward` (for the timeline model)."""
        raise NotImplementedError


class PartialMeanLayer(GNNLayer):
    """A mean-aggregation layer on the partial-mean protocol (SNP / NFP).

    ``W * mean(x_u) = (sum_p sum W x_u^{(p)}) / (sum_p count_p)`` over
    partial edge sets ``p``: each device aggregates the projected messages
    of its edges into a per-destination (sum, count) pair, the pairs add
    across devices, and :meth:`combine_partials` divides once.  Subclasses
    carry ``bias``, the ``activation`` flag (ReLU when set) and the
    projection weights: ``weight`` when the self loop rides in the
    aggregation (GCN), ``w_neigh`` and ``w_self`` otherwise (GraphSAGE).
    """

    @property
    def _act(self) -> Optional[str]:
        return "relu" if self.activation else None

    def combine_partials(
        self,
        psum_total: Tensor,
        counts_total: np.ndarray,
        self_term: Optional[Tensor] = None,
        spans: Optional[np.ndarray] = None,
        order=None,
    ) -> Tensor:
        """Reconstruct the exact layer output from summed partials.

        A layer with a self weight (GraphSAGE) always receives the self
        term — each destination's owner ships ``W_self x_v``; one that
        folds the self loop into the aggregation (GCN) routed it as an edge.
        ``spans`` / ``order``: see :func:`~repro.tensor.fused.add_bias_act`.
        """
        if self_term is None and not self.self_loop_in_aggregation:
            raise ValueError(f"{type(self).__name__} partials require the self term")
        safe = np.maximum(counts_total, 1.0).reshape(-1, 1)
        terms = [psum_total * Tensor(1.0 / safe)]
        if self_term is not None:
            terms.append(self_term)
        return fused.add_bias_act(
            terms, self.bias, activation=self._act, spans=spans, order=order
        )


class GNNModel(Module):
    """A stack of :class:`GNNLayer` applied to a :class:`MiniBatch`.

    ``layers[0]`` is the paper's *first layer* — the one furthest from the
    seeds, consuming input features, dominating cost, and the only layer
    the strategies repartition.
    """

    def __init__(self, layers: Sequence[GNNLayer]):
        super().__init__()
        self.layers = ModuleList(layers)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def first_layer(self) -> GNNLayer:
        return self.layers[0]

    @property
    def hidden_dim(self) -> int:
        """Output dimension of the first layer (the paper's d')."""
        return self.layers[0].out_dim

    def forward(self, batch: MiniBatch, x_input: Tensor) -> Tensor:
        """Full local forward over all blocks (the GDP/single-GPU path)."""
        if batch.num_layers != self.num_layers:
            raise ValueError(
                f"batch has {batch.num_layers} blocks, model has "
                f"{self.num_layers} layers"
            )
        h = x_input
        for layer, block in zip(self.layers, batch.blocks):
            h = layer.full_forward(block, h)
        return h

    def parameter_bytes(self) -> float:
        """Total parameter bytes (DDP gradient-sync volume)."""
        return float(sum(p.size for p in self.parameters()) * ELEMENT_BYTES)

    def first_layer_parameter_bytes(self) -> float:
        """Bytes of layer-0 parameters (excluded from NFP's gradient sync,
        since NFP co-partitions the first-layer weights with the feature
        shards and never synchronizes them)."""
        return float(
            sum(p.size for _, p in self.layers[0].named_parameters()) * ELEMENT_BYTES
        )


def extend_with_self_edges(block: Block) -> tuple:
    """Return ``(edge_src, edge_dst)`` with one self-edge per destination.

    GAT attends over ``N(v) + {v}``; the block guarantees every destination
    appears among the sources, so the self-edge endpoints always exist.
    """
    self_src = block.dst_in_src
    self_dst = np.arange(block.num_dst, dtype=np.int64)
    edge_src = np.concatenate([block.edge_src, self_src])
    edge_dst = np.concatenate([block.edge_dst, self_dst])
    return edge_src, edge_dst
