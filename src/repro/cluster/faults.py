"""Deterministic fault injection over the simulated cluster.

Faults are *spec transforms*: a :class:`FaultSchedule` maps an epoch index
to the :class:`~repro.cluster.spec.ClusterSpec` in effect for that epoch,
by cumulatively applying every :class:`FaultEvent` whose epoch has
arrived.  The execution engine never knows a fault happened — it simply
charges simulated time against the degraded spec — which is what lets the
drift detector discover the change from telemetry alone, the way a real
deployment would.

Faults take effect at epoch boundaries only (the bulk-synchronous engine
has no mid-epoch reconfiguration point, and the re-planner also operates
between epochs).  Kinds:

``link_degrade``
    Scale the inter-machine network bandwidth by ``factor`` (< 1 degrades;
    e.g. 0.125 models a 100 GbE link collapsing to ~12.5 Gbps).
``straggler``
    Scale one machine's GPU throughput (compute efficiency and sampling
    rate) by ``factor``.
``cache_shrink``
    Scale the per-GPU feature-cache capacity by ``factor``.
``host_leave``
    Remove machine ``machine`` from the cluster (a spot instance was
    reclaimed).  Membership changes shrink the device set, so the run
    loop must re-partition and may re-plan (DESIGN.md §5.16); ``factor``
    is ignored.
``host_join``
    Add one machine.  ``device_class`` names the joiner's device tier
    (``t4``/``v100``/``a100``/``cpu``, see
    :data:`~repro.cluster.spec.DEVICE_CLASSES`); without it the joiner
    clones machine 0's spec.  ``machine`` is the optional insertion index
    (default: append); ``factor`` additionally scales the joiner's GPU
    throughput (< 1 models a slower spot tier).  A joiner of a different
    class makes the cluster heterogeneous, so the elastic re-partition
    cuts speed-proportional parts (DESIGN.md §5.17).
``recover``
    Discard every earlier fault: the cluster returns to its base spec —
    including membership (left hosts return, joined hosts leave).

A schedule is a plain event list: the same events always produce the
same degraded specs, and therefore the same re-plan epochs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.cluster.spec import ClusterSpec, LinkSpec, device_class

FAULT_KINDS = (
    "link_degrade",
    "straggler",
    "cache_shrink",
    "host_leave",
    "host_join",
    "recover",
)

#: Kinds that change cluster *membership* (device count), forcing the run
#: loop through the elastic transition (re-partition + optional re-plan).
MEMBERSHIP_KINDS = ("host_leave", "host_join")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, applied from ``epoch`` onwards.

    ``factor`` multiplies the affected quantity; ``machine`` selects the
    straggler target (required for ``straggler``, ignored otherwise).
    """

    epoch: int
    kind: str
    factor: float = 1.0
    machine: Optional[int] = None
    #: named device tier of a ``host_join`` joiner (``None`` = clone
    #: machine 0); validated against the device-class registry
    device_class: Optional[str] = None

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise ValueError(f"fault epoch must be >= 0, got {self.epoch}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.kind not in ("recover", "host_leave") and not 0.0 < self.factor:
            raise ValueError(f"fault factor must be positive, got {self.factor}")
        if self.kind in ("straggler", "host_leave") and self.machine is None:
            raise ValueError(
                f"{self.kind} faults need a target machine index"
            )
        if self.device_class is not None:
            if self.kind != "host_join":
                raise ValueError(
                    f"device_class only applies to host_join events, "
                    f"not {self.kind!r}"
                )
            device_class(self.device_class)  # raises on unknown names

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"epoch": self.epoch, "kind": self.kind}
        if self.kind not in ("recover", "host_leave"):
            out["factor"] = self.factor
        if self.machine is not None:
            out["machine"] = self.machine
        if self.device_class is not None:
            out["device_class"] = self.device_class
        return out

    # ------------------------------------------------------------------ #
    def apply(self, cluster: ClusterSpec) -> ClusterSpec:
        """Spec with this fault applied."""
        if self.kind == "link_degrade":
            net = cluster.network
            return cluster.with_network(
                LinkSpec(bandwidth=net.bandwidth * self.factor, latency=net.latency)
            )
        if self.kind == "straggler":
            mspec = cluster.machines[self.machine]
            dev = mspec.device
            slow = dataclasses.replace(
                dev,
                compute_efficiency=dev.compute_efficiency * self.factor,
                sampling_edges_per_sec=dev.sampling_edges_per_sec * self.factor,
            )
            return cluster.with_machine(
                self.machine, dataclasses.replace(mspec, device=slow)
            )
        if self.kind == "cache_shrink":
            return cluster.with_cache(cluster.gpu_cache_bytes * self.factor)
        if self.kind == "host_leave":
            if not 0 <= self.machine < cluster.num_machines:
                raise ValueError(
                    f"host_leave targets machine {self.machine} but the "
                    f"cluster has {cluster.num_machines} machine(s)"
                )
            return cluster.without_machine(self.machine)
        if self.kind == "host_join":
            template = cluster.machines[0]
            if self.device_class is not None:
                # The joiner brings its own device tier (keeping the
                # cluster's GPU-per-machine shape and machine-level links).
                template = dataclasses.replace(
                    template, device=device_class(self.device_class)
                )
            if self.factor != 1.0:
                dev = template.device
                scaled = dataclasses.replace(
                    dev,
                    compute_efficiency=dev.compute_efficiency * self.factor,
                    sampling_edges_per_sec=dev.sampling_edges_per_sec * self.factor,
                )
                template = dataclasses.replace(template, device=scaled)
            return cluster.with_joined_machine(machine=template, index=self.machine)
        raise AssertionError(f"unhandled fault kind {self.kind!r}")


class FaultSchedule:
    """An epoch-indexed sequence of cluster faults."""

    def __init__(self, events: Sequence[FaultEvent] = ()):
        self.events: List[FaultEvent] = sorted(
            events, key=lambda e: (e.epoch, e.kind, e.machine or 0)
        )

    def __bool__(self) -> bool:
        return bool(self.events)

    # ------------------------------------------------------------------ #
    def events_at(self, epoch: int) -> List[FaultEvent]:
        """Events that newly take effect exactly at ``epoch``."""
        return [e for e in self.events if e.epoch == epoch]

    def cluster_at(self, base: ClusterSpec, epoch: int) -> ClusterSpec:
        """The spec in effect for ``epoch``: all due faults, cumulatively.

        A ``recover`` event resets to ``base`` before later faults apply.
        """
        cluster = base
        for event in self.events:
            if event.epoch > epoch:
                break
            cluster = base if event.kind == "recover" else event.apply(cluster)
        return cluster

    # ------------------------------------------------------------------ #
    # (de)serialization — the ``events`` half of the CLI's ``--inject`` file
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {"events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultSchedule":
        return cls([FaultEvent(**entry) for entry in payload.get("events", ())])
