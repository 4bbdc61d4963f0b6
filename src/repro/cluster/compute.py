"""Compute-cost charging helpers.

Strategies execute real numerics but charge *simulated* kernel times derived
from workload counts:

* dense GEMM — FLOPs over achieved throughput;
* neighbor sampling — edges over the device's sampling throughput (or the
  machine's CPU throughput for the DistDGL-style baseline).

A training step costs roughly forward + backward; backward of a GEMM is two
GEMMs, so ``TRAIN_FLOP_FACTOR = 3`` converts forward FLOPs to a full-step
estimate.  The factor is identical for every strategy, so it never affects
strategy *ranking* (the paper drops T_train from comparisons for the same
reason); it only shapes the stacked-bar breakdowns.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import Timeline

#: forward + backward FLOP multiple of a training step.
TRAIN_FLOP_FACTOR = 3.0


class ComputeCharger:
    """Charges simulated kernel times to a timeline.  ``dense`` and the
    sampling charges also take an array of devices, one count each: each
    entry priced by its own device with the scalar call's float ops."""

    def __init__(self, cluster: ClusterSpec, timeline: Timeline):
        self.timeline = timeline
        specs = [cluster.device_spec(d) for d in range(cluster.num_devices)]
        self._flops_rate = np.array([s.effective_flops for s in specs])
        self._gpu_rate = np.array([s.sampling_edges_per_sec for s in specs])
        self._cpu_rate = np.array([
            m.cpu_sampling_edges_per_sec / max(m.num_gpus, 1)
            for m in map(cluster.machine_spec, range(cluster.num_devices))
        ])

    def dense(self, device, flops, phase: str = "train") -> None:
        """Charge a dense kernel of ``flops`` forward floating-point ops
        (times ``TRAIN_FLOP_FACTOR``: a training step)."""
        flops = np.asarray(flops, dtype=np.float64) * TRAIN_FLOP_FACTOR
        self.timeline.charge(device, phase, flops / self._flops_rate[device])

    def gpu_sampling(self, device, num_edges, phase: str = "sample") -> None:
        """Charge GPU-based neighbor sampling of ``num_edges`` edges."""
        rate = self._gpu_rate[device]
        self.timeline.charge(device, phase, np.asarray(num_edges) / rate)

    def cpu_sampling(self, device, num_edges, phase: str = "sample") -> None:
        """Charge CPU-based sampling (DistDGL-style baseline, Fig. 7)."""
        rate = self._cpu_rate[device]
        self.timeline.charge(device, phase, np.asarray(num_edges) / rate)
