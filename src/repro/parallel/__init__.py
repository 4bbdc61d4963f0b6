"""Host-side execution backends (serial / shared-memory worker processes).

See DESIGN.md §5.10: backends move *host wall-clock* work (sampling and
batch prefetch; features are gathered on the main process either way)
without touching the simulation —
losses, parameters, and simulated Timeline charges are bit-identical
across backends.  §5.11 adds the fault-tolerance layer on top: worker
supervision (:mod:`repro.parallel.supervisor`), deterministic host-fault
injection (:mod:`repro.parallel.chaos`), and graceful degradation back
to the serial backend.
"""

from repro.parallel.backend import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
    resolve_backend,
    shutdown,
)
from repro.parallel.chaos import (
    HOST_FAULT_KINDS,
    HostFaultEvent,
    HostFaultSchedule,
    split_injections,
)
from repro.parallel.supervisor import (
    FailureBudgetExceeded,
    FaultPolicy,
    HeartbeatBoard,
    SupervisionError,
    WorkerCrash,
    WorkerSet,
    WorkerTimeout,
    WorkerSupervisor,
)

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "make_backend",
    "resolve_backend",
    "shutdown",
    "HOST_FAULT_KINDS",
    "HostFaultEvent",
    "HostFaultSchedule",
    "split_injections",
    "FaultPolicy",
    "WorkerSet",
    "WorkerSupervisor",
    "HeartbeatBoard",
    "SupervisionError",
    "WorkerCrash",
    "WorkerTimeout",
    "FailureBudgetExceeded",
]
