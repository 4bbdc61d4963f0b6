"""Hardware specifications for the simulated cluster.

Default constants model the paper's platform (Section 5.1 / Appendix A):
AWS ``g4dn.metal`` — 96-core Xeon 8259CL, 8x NVIDIA T4 (16 GB) on PCIe 3.0
x16, machines linked by 100 Gbps Ethernet.  Public datasheet numbers:

* T4 FP32 peak            ~8.1 TFLOP/s (GNN kernels reach a fraction of it)
* T4 GDDR6 bandwidth      ~320 GB/s
* PCIe 3.0 x16 effective  ~12 GB/s per direction
* 100 GbE                 ~12.5 GB/s per machine, shared by its GPUs
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.utils.validation import check_positive

#: Simulated bytes per feature, hidden, partial, intermediate or gradient
#: element: every float the simulated cluster stores or moves is charged at
#: this size.  Eight (float64, the host numerics' dtype), not the paper's
#: FP32 four; DESIGN.md §2 lists the substitution.
ELEMENT_BYTES = 8.0
#: Simulated bytes per node id or edge endpoint of a shipped computation
#: graph (int64, as DGL ships them).
ID_BYTES = 8.0


@dataclass(frozen=True)
class DeviceSpec:
    """One GPU's compute/memory characteristics."""

    name: str = "T4"
    peak_flops: float = 8.1e12
    #: Fraction of peak FLOPs that sparse-ish GNN kernels actually achieve.
    compute_efficiency: float = 0.22
    mem_bandwidth: float = 320e9
    memory_bytes: float = 16e9
    #: GPU-based neighbor-sampling throughput (edges/s), cf. gSampler-style
    #: on-GPU sampling the paper's implementation uses.
    sampling_edges_per_sec: float = 2.5e8
    #: On-demand price of one device, in dollars per hour.  Feeds the
    #: planner's second objective (``CostEstimate.dollars``).
    dollars_per_hour: float = 0.526

    def dense_seconds(self, flops: float) -> float:
        """Simulated time for a dense kernel of ``flops`` floating ops."""
        return flops / (self.peak_flops * self.compute_efficiency)

    def memory_bound_seconds(self, bytes_touched: float) -> float:
        """Simulated time for a memory-bound kernel (SpMM, gather)."""
        return bytes_touched / self.mem_bandwidth

    @property
    def effective_flops(self) -> float:
        """Sustained GNN throughput — the partitioner's speed weight."""
        return self.peak_flops * self.compute_efficiency

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "DeviceSpec":
        return cls(**d)


#: Named device classes for the ``--cluster`` grammar and ``host_join``.
#: Prices follow on-demand AWS list prices (per GPU, instance price split
#: across its GPUs); throughputs follow public datasheets with the same
#: GNN-efficiency derating as the T4 baseline.
DEVICE_CLASSES: Dict[str, DeviceSpec] = {
    # The paper's platform: g4dn.metal T4s.
    "t4": DeviceSpec(),
    # p3 V100: ~2x the T4's sustained GNN throughput.
    "v100": DeviceSpec(
        name="V100",
        peak_flops=15.7e12,
        compute_efficiency=0.24,
        mem_bandwidth=900e9,
        memory_bytes=16e9,
        sampling_edges_per_sec=5.0e8,
        dollars_per_hour=3.06,
    ),
    # p4d A100: ~4x the T4's sustained GNN throughput.
    "a100": DeviceSpec(
        name="A100",
        peak_flops=19.5e12,
        compute_efficiency=0.37,
        mem_bandwidth=1555e9,
        memory_bytes=40e9,
        sampling_edges_per_sec=1.0e9,
        dollars_per_hour=4.10,
    ),
    # CPU-only worker modeled as a very slow "device": cheap, but it
    # samples and trains at a fraction of any GPU tier.
    "cpu": DeviceSpec(
        name="CPU",
        peak_flops=1.0e12,
        compute_efficiency=0.10,
        mem_bandwidth=80e9,
        memory_bytes=64e9,
        sampling_edges_per_sec=2.5e7,
        dollars_per_hour=0.17,
    ),
}


def device_class(name: str) -> DeviceSpec:
    """Look up a named device class (case-insensitive)."""
    try:
        return DEVICE_CLASSES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown device class {name!r} "
            f"(known: {', '.join(sorted(DEVICE_CLASSES))})"
        ) from None


@dataclass(frozen=True)
class LinkSpec:
    """A communication link: bandwidth (bytes/s) and per-message latency."""

    bandwidth: float
    latency: float = 0.0

    def seconds(self, nbytes: float, messages: int = 1) -> float:
        check_positive("bandwidth", self.bandwidth)
        return nbytes / self.bandwidth + messages * self.latency


@dataclass(frozen=True)
class MachineSpec:
    """One machine: its GPUs and intra-machine links."""

    num_gpus: int = 8
    device: DeviceSpec = field(default_factory=DeviceSpec)
    #: GPU <-> host link (UVA feature reads, GPU-GPU staging without NVLink).
    pcie: LinkSpec = field(default_factory=lambda: LinkSpec(bandwidth=12e9, latency=8e-6))
    #: Fast GPU <-> GPU link; ``None`` models the T4 platform (no NVLink),
    #: in which case peer-GPU traffic goes over PCIe.
    nvlink: Optional[LinkSpec] = None
    #: Local NVMe storage serving the out-of-core feature tier
    #: (``Tier.DISK``): sequential-read bandwidth plus a per-ranged-read
    #: setup latency (seek + submission).  g4dn.metal ships 2x 900 GB
    #: NVMe; ~2 GB/s effective and ~100 us per read request.
    disk: LinkSpec = field(default_factory=lambda: LinkSpec(bandwidth=2e9, latency=1e-4))
    #: CPU-based sampling throughput (edges/s) across the whole machine;
    #: used by the DistDGL-style baseline in the Fig. 7 sanity check.
    cpu_sampling_edges_per_sec: float = 2.5e7

    def gpu_peer_link(self) -> LinkSpec:
        """The link used for intra-machine GPU-to-GPU transfers."""
        return self.nvlink if self.nvlink is not None else self.pcie

    def to_dict(self) -> dict:
        return {
            "num_gpus": self.num_gpus,
            "device": self.device.to_dict(),
            "pcie": asdict(self.pcie),
            "nvlink": None if self.nvlink is None else asdict(self.nvlink),
            "disk": asdict(self.disk),
            "cpu_sampling_edges_per_sec": self.cpu_sampling_edges_per_sec,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MachineSpec":
        return cls(
            num_gpus=d["num_gpus"],
            device=DeviceSpec.from_dict(d["device"]),
            pcie=LinkSpec(**d["pcie"]),
            nvlink=None if d.get("nvlink") is None else LinkSpec(**d["nvlink"]),
            disk=LinkSpec(**d["disk"]),
            cpu_sampling_edges_per_sec=d["cpu_sampling_edges_per_sec"],
        )


@dataclass(frozen=True)
class ClusterSpec:
    """A cluster of machines plus the interconnect between them.

    Machines may carry different device classes (mixed fast/slow GPU
    tiers, CPU-only workers); ``device_weights`` exposes the resulting
    per-device speed profile to the partitioner and the planner.
    """

    machines: Tuple[MachineSpec, ...]
    network: LinkSpec = field(default_factory=lambda: LinkSpec(bandwidth=12.5e9, latency=3e-5))
    #: Per-GPU feature-cache capacity in bytes (paper default: 4 GB,
    #: rescaled by benchmarks to the analog datasets' feature sizes).
    gpu_cache_bytes: float = 0.0

    # ------------------------------------------------------------------ #
    @property
    def num_machines(self) -> int:
        return len(self.machines)

    @property
    def num_devices(self) -> int:
        return sum(m.num_gpus for m in self.machines)

    @property
    def gpus_per_machine(self) -> int:
        return self.machines[0].num_gpus

    def device_spec(self, device: int) -> DeviceSpec:
        return self.machines[self.machine_of(device)].device

    def machine_of(self, device: int) -> int:
        """Machine index hosting global device id ``device``."""
        remaining = device
        for m_idx, m in enumerate(self.machines):
            if remaining < m.num_gpus:
                return m_idx
            remaining -= m.num_gpus
        raise IndexError(f"device {device} out of range ({self.num_devices})")

    def machine_spec(self, device: int) -> MachineSpec:
        return self.machines[self.machine_of(device)]

    def devices_of_machine(self, machine: int) -> List[int]:
        start = sum(m.num_gpus for m in self.machines[:machine])
        return list(range(start, start + self.machines[machine].num_gpus))

    def inter_machine_link_per_gpu(self, device: int) -> LinkSpec:
        """Effective inter-machine link seen by one GPU (NIC is shared)."""
        m = self.machine_spec(device)
        return LinkSpec(
            bandwidth=self.network.bandwidth / max(m.num_gpus, 1),
            latency=self.network.latency,
        )

    # -- heterogeneity (DESIGN.md §5.17) -------------------------------- #
    @property
    def is_heterogeneous(self) -> bool:
        """True when at least two devices differ in spec or links."""
        first = self.machines[0]
        return any(
            m.device != first.device
            or m.pcie != first.pcie
            or m.nvlink != first.nvlink
            or m.disk != first.disk
            for m in self.machines[1:]
        )

    def device_weights(self) -> List[float]:
        """Per-device partition weights, normalized to sum to 1.

        Proportional to each device's sustained compute throughput
        (``effective_flops``): a device that trains twice as fast should
        own twice the nodes so every device finishes a batch together.
        """
        flops = [self.device_spec(d).effective_flops
                 for d in range(self.num_devices)]
        total = sum(flops)
        return [f / total for f in flops]

    def dollars_per_hour(self) -> float:
        """Aggregate on-demand price of the cluster's devices ($/hour)."""
        return sum(
            m.num_gpus * m.device.dollars_per_hour for m in self.machines
        )

    def to_dict(self) -> dict:
        return {
            "machines": [m.to_dict() for m in self.machines],
            "network": asdict(self.network),
            "gpu_cache_bytes": self.gpu_cache_bytes,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ClusterSpec":
        return cls(
            machines=tuple(MachineSpec.from_dict(m) for m in d["machines"]),
            network=LinkSpec(**d["network"]),
            gpu_cache_bytes=d["gpu_cache_bytes"],
        )

    def with_cache(self, gpu_cache_bytes: float) -> "ClusterSpec":
        """Copy of the spec with a different per-GPU cache capacity."""
        return ClusterSpec(
            machines=self.machines,
            network=self.network,
            gpu_cache_bytes=gpu_cache_bytes,
        )

    def with_network(self, network: LinkSpec) -> "ClusterSpec":
        """Copy of the spec with a different inter-machine interconnect."""
        return ClusterSpec(
            machines=self.machines,
            network=network,
            gpu_cache_bytes=self.gpu_cache_bytes,
        )

    def with_machine(self, index: int, machine: MachineSpec) -> "ClusterSpec":
        """Copy of the spec with machine ``index`` replaced.

        The replacement must keep the GPU count (device ids are positional);
        heterogeneous *performance* across machines is exactly what the
        fault layer injects.
        """
        if not 0 <= index < self.num_machines:
            raise IndexError(f"machine {index} out of range ({self.num_machines})")
        if machine.num_gpus != self.machines[index].num_gpus:
            raise ValueError(
                "replacement machine must keep the GPU count "
                f"({machine.num_gpus} != {self.machines[index].num_gpus})"
            )
        machines = list(self.machines)
        machines[index] = machine
        return ClusterSpec(
            machines=tuple(machines),
            network=self.network,
            gpu_cache_bytes=self.gpu_cache_bytes,
        )

    # -- elastic membership transforms (DESIGN.md §5.16) ---------------- #
    def without_machine(self, index: int) -> "ClusterSpec":
        """Copy of the spec with machine ``index`` removed (a host left).

        Device ids stay positional: the surviving machines' GPUs are
        re-indexed densely (``machine_of``/``devices_of_machine`` shift
        down), which is why a membership change forces a re-partition —
        the old node->device assignment points at ids that no longer mean
        the same hardware.
        """
        if not 0 <= index < self.num_machines:
            raise IndexError(f"machine {index} out of range ({self.num_machines})")
        if self.num_machines == 1:
            raise ValueError(
                "cannot remove the last machine: a cluster needs at least "
                "one host (schedule a recover/host_join first)"
            )
        machines = self.machines[:index] + self.machines[index + 1:]
        return ClusterSpec(
            machines=machines,
            network=self.network,
            gpu_cache_bytes=self.gpu_cache_bytes,
        )

    def with_joined_machine(
        self,
        machine: Optional[MachineSpec] = None,
        index: Optional[int] = None,
    ) -> "ClusterSpec":
        """Copy of the spec with one machine added (a host joined).

        ``machine`` defaults to a clone of ``machines[0]`` — a spot
        instance of the cluster's own tier; ``index`` is the insertion
        position (default: append).  Devices re-index positionally, so the
        join forces a re-partition just like a leave.
        """
        if machine is None:
            machine = self.machines[0]
        if index is None:
            index = self.num_machines
        if not 0 <= index <= self.num_machines:
            raise IndexError(
                f"join index {index} out of range (0..{self.num_machines})"
            )
        machines = self.machines[:index] + (machine,) + self.machines[index:]
        return ClusterSpec(
            machines=machines,
            network=self.network,
            gpu_cache_bytes=self.gpu_cache_bytes,
        )


def single_machine_cluster(
    num_gpus: int = 8,
    gpu_cache_bytes: float = 0.0,
    *,
    device: Optional[DeviceSpec] = None,
    nvlink: Optional[LinkSpec] = None,
) -> ClusterSpec:
    """The paper's single-machine testbed: one g4dn.metal with 8 T4 GPUs."""
    check_positive("num_gpus", num_gpus)
    machine = MachineSpec(
        num_gpus=num_gpus,
        device=device or DeviceSpec(),
        nvlink=nvlink,
    )
    return ClusterSpec(machines=(machine,), gpu_cache_bytes=gpu_cache_bytes)


def multi_machine_cluster(
    num_machines: int = 4,
    gpus_per_machine: int = 4,
    gpu_cache_bytes: float = 0.0,
    *,
    device: Optional[DeviceSpec] = None,
    network: Optional[LinkSpec] = None,
) -> ClusterSpec:
    """The paper's distributed testbed: 4 machines x 4 T4 GPUs, 100 GbE."""
    check_positive("num_machines", num_machines)
    check_positive("gpus_per_machine", gpus_per_machine)
    machine = MachineSpec(num_gpus=gpus_per_machine, device=device or DeviceSpec())
    return ClusterSpec(
        machines=tuple(machine for _ in range(num_machines)),
        network=network or LinkSpec(bandwidth=12.5e9, latency=3e-5),
        gpu_cache_bytes=gpu_cache_bytes,
    )


def parse_cluster_spec(
    spec: str,
    gpu_cache_bytes: float = 0.0,
    *,
    network: Optional[LinkSpec] = None,
) -> ClusterSpec:
    """Build a (possibly mixed) cluster from a compact spec string.

    Grammar: comma-separated machine groups, each
    ``<machines>x<gpus>:<class>`` — e.g. ``"1x4:a100,2x4:t4"`` is one
    4xA100 machine plus two 4xT4 machines.  ``<machines>x`` defaults to 1
    and ``:<class>`` defaults to ``t4``, so ``"2x8"`` and ``"8:v100"``
    are both valid.  Classes come from :data:`DEVICE_CLASSES`.
    """
    machines: List[MachineSpec] = []
    for group in spec.split(","):
        group = group.strip()
        if not group:
            raise ValueError(f"empty machine group in cluster spec {spec!r}")
        if ":" in group:
            shape, cls_name = group.split(":", 1)
        else:
            shape, cls_name = group, "t4"
        if "x" in shape:
            count_s, gpus_s = shape.split("x", 1)
        else:
            count_s, gpus_s = "1", shape
        try:
            count, gpus = int(count_s), int(gpus_s)
        except ValueError:
            raise ValueError(
                f"bad machine group {group!r} in cluster spec {spec!r} "
                "(expected <machines>x<gpus>:<class>)"
            ) from None
        check_positive("machines", count)
        check_positive("gpus", gpus)
        device = device_class(cls_name)
        machines.extend(
            MachineSpec(num_gpus=gpus, device=device) for _ in range(count)
        )
    return ClusterSpec(
        machines=tuple(machines),
        network=network or LinkSpec(bandwidth=12.5e9, latency=3e-5),
        gpu_cache_bytes=gpu_cache_bytes,
    )
