"""Simulated multi-GPU cluster.

The paper's testbed (AWS g4dn.metal: 8x NVIDIA T4 per machine on PCIe 3.0,
4 machines on 100 Gbps Ethernet) is substituted by *logical devices*:
strategies execute real numerics in-process while an analytical timeline
model charges simulated seconds per device and phase, using the public
hardware constants of the paper's platform.  The paper's findings are about
relative costs (shuffle volume vs cache hits vs compute), which depend on
bandwidth/throughput *ratios* that this model preserves.
"""

from repro.cluster.spec import (
    DEVICE_CLASSES,
    ELEMENT_BYTES,
    ID_BYTES,
    ClusterSpec,
    DeviceSpec,
    LinkSpec,
    MachineSpec,
    device_class,
    multi_machine_cluster,
    parse_cluster_spec,
    single_machine_cluster,
)
from repro.cluster.timeline import PHASES, Timeline
from repro.cluster.comm import Communicator
from repro.cluster.faults import FAULT_KINDS, FaultEvent, FaultSchedule

__all__ = [
    "ELEMENT_BYTES",
    "ID_BYTES",
    "DeviceSpec",
    "LinkSpec",
    "MachineSpec",
    "ClusterSpec",
    "single_machine_cluster",
    "multi_machine_cluster",
    "parse_cluster_spec",
    "device_class",
    "DEVICE_CLASSES",
    "Timeline",
    "PHASES",
    "Communicator",
    "FaultEvent",
    "FaultSchedule",
    "FAULT_KINDS",
]
