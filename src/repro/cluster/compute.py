"""Compute-cost charging helpers.

Strategies execute real numerics but charge *simulated* kernel times derived
from workload counts:

* dense GEMM — FLOPs over achieved throughput;
* row gathers — memory-bound, bytes over HBM bandwidth;
* neighbor sampling — edges over the device's sampling throughput (or the
  machine's CPU throughput for the DistDGL-style baseline).

A training step costs roughly forward + backward; backward of a GEMM is two
GEMMs, so ``TRAIN_FLOP_FACTOR = 3`` converts forward FLOPs to a full-step
estimate.  The factor is identical for every strategy, so it never affects
strategy *ranking* (the paper drops T_train from comparisons for the same
reason); it only shapes the stacked-bar breakdowns.
"""

from __future__ import annotations

from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import Timeline

#: forward + backward FLOP multiple of a training step.
TRAIN_FLOP_FACTOR = 3.0


class ComputeCharger:
    """Charges simulated kernel times to a timeline."""

    def __init__(self, cluster: ClusterSpec, timeline: Timeline):
        self.cluster = cluster
        self.timeline = timeline

    def dense(
        self,
        device: int,
        flops: float,
        phase: str = "train",
        include_backward: bool = True,
    ) -> None:
        """Charge a dense kernel of ``flops`` forward floating-point ops."""
        spec = self.cluster.device_spec(device)
        factor = TRAIN_FLOP_FACTOR if include_backward else 1.0
        self.timeline.charge(device, phase, spec.dense_seconds(flops * factor))

    def gather(self, device: int, rows: int, dim: int, phase: str = "load") -> None:
        """Charge a row-gather of ``rows x dim`` float64 elements."""
        spec = self.cluster.device_spec(device)
        self.timeline.charge(
            device, phase, spec.memory_bound_seconds(rows * dim * 8 * 2)
        )

    def gpu_sampling(self, device: int, num_edges: int, phase: str = "sample") -> None:
        """Charge GPU-based neighbor sampling of ``num_edges`` edges."""
        spec = self.cluster.device_spec(device)
        self.timeline.charge(device, phase, num_edges / spec.sampling_edges_per_sec)

    def cpu_sampling(self, device: int, num_edges: int, phase: str = "sample") -> None:
        """Charge CPU-based sampling (DistDGL-style baseline, Fig. 7)."""
        m = self.cluster.machine_spec(device)
        per_gpu = m.cpu_sampling_edges_per_sec / max(m.num_gpus, 1)
        self.timeline.charge(device, phase, num_edges / per_gpu)
