"""Task configuration (:class:`APTConfig`) plus experiment-scale constants.

:class:`APTConfig` is the validated home of everything that used to be a
keyword argument of ``APT.__init__``: the sampling setup, the partition
mode, the seeds, and the online-adaptivity knobs (telemetry, drift
threshold, re-plan candidates).  ``APT(dataset, model, cluster, config)``
is the only surface; ``APT`` accepts no other keyword arguments.

Every option has one place to be set: its field (or the CLI flag that
fills it).  Two ``REPRO_*`` environment variables remain, both read here
and each because a CI leg runs a whole suite under it:
``REPRO_EXECUTION_BACKEND`` and ``REPRO_NUM_WORKERS`` (pinned by
``tests/test_env_knobs.py``).

The experiment-scale constants below are shared by benchmarks and
examples.  The analog datasets are ~1000x smaller than the paper's graphs,
so byte budgets are expressed as *fractions of the dataset's feature
matrix* using the paper's ratios: the default 4 GB per-GPU cache covers
7.6% / 6.4% / 3.1% of the PS / FS / IM feature matrices (Table 2), and the
same fraction of the analog's features reproduces the same cache-hit
economics.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.featurestore.store import DISK_PROMOTE_MB
from repro.graph.datasets import GraphDataset

#: Strategies the planner may choose from (paper's candidate set).
PLAN_STRATEGIES = ("gdp", "nfp", "snp", "dnp")


@dataclass
class APTConfig:
    """Validated configuration of one APT training task.

    Groups the former ``APT.__init__`` kwargs (task shape, partitioning,
    seeding, engine modes) with the online-adaptivity subsystem's knobs.
    Validation happens at construction *and* can be re-run with
    :meth:`validate` after field mutation (``APT`` re-validates before
    every plan/run).
    """

    # ---- task shape -------------------------------------------------- #
    #: node-wise sampling fanouts, input layer first
    fanouts: Tuple[int, ...] = (10, 10, 10)
    #: seeds per synchronized step, summed over GPUs
    global_batch_size: int = 1024
    #: ``"metis"``, ``"streaming"`` (coarsen-once, bounded memory — the
    #: out-of-core default), ``"random"``, or an explicit node->device array
    partition: Union[str, np.ndarray] = "metis"
    seed: int = 0
    # ---- engine modes ------------------------------------------------ #
    cpu_sampling: bool = False
    overlap: bool = False
    # ---- execution backend (host wall-clock only, DESIGN.md §5.10) --- #
    #: ``"serial"`` (default) runs every per-device loop inline;
    #: ``"process"`` fans sampling out to forked worker processes with
    #: pipelined batch prefetch.  Bit-identical losses / parameters /
    #: simulated Timeline either way — only host seconds change.  The env
    #: var ``REPRO_EXECUTION_BACKEND`` overrides the default (CI runs the
    #: whole suite through the process backend this way).
    execution_backend: str = field(
        default_factory=lambda: os.environ.get("REPRO_EXECUTION_BACKEND", "serial")
    )
    #: worker processes of the process backend; 0 = auto (min(4, cores)).
    num_workers: int = field(
        default_factory=lambda: int(os.environ.get("REPRO_NUM_WORKERS", "0"))
    )
    #: global batches sampled ahead of the training loop (process backend);
    #: 0 disables pipelining but keeps the worker-pool sampling path.
    prefetch_depth: int = 2
    # ---- out-of-core feature tier (DESIGN.md §5.14) ------------------- #
    #: byte budget (MiB) of CPU-resident hot rows promoted out of the disk
    #: tier for memmap-backed datasets; 0 disables promotion entirely.
    #: In-RAM datasets ignore this field.
    disk_promote_mb: int = DISK_PROMOTE_MB
    # ---- fault tolerance (process backend + checkpointing) ----------- #
    #: supervision knobs of the process backend — a
    #: :class:`~repro.parallel.supervisor.FaultPolicy` or a dict of its
    #: fields; ``None`` uses the policy's defaults.
    fault_policy: Optional[Any] = None
    #: deliberate host-fault schedule for the process backend — a
    #: :class:`~repro.parallel.chaos.HostFaultSchedule`, a dict, or a
    #: ``kind@task[:seconds]`` grammar string; ``None`` injects none.
    host_chaos: Optional[Any] = None
    #: directory for epoch-granular run checkpoints; ``None`` disables
    #: checkpointing (see ``repro run --checkpoint-dir`` / ``--resume``).
    checkpoint_dir: Optional[str] = None
    #: epochs between checkpoints (the last epoch is always saved)
    checkpoint_every: int = 1
    #: checkpoints retained per directory (keep-last-N pruning)
    checkpoint_keep: int = 3
    #: survive ``host_leave``/``host_join`` membership changes: quiesce the
    #: backend, checkpoint, re-partition for the new device set and, in a
    #: run with ``replan``, re-plan against the new cluster.  ``False``
    #: (``repro run --no-elastic``) makes a membership change raise
    #: instead of training on a stale partition.  See DESIGN.md §5.16.
    elastic: bool = True
    # ---- online adaptivity ------------------------------------------- #
    #: attach a TelemetryCollector to every run (pure observation)
    telemetry: bool = True
    #: re-plan mid-run when observed phase times drift off the estimates
    replan: bool = False
    #: relative-error trigger of the drift detector (see repro.obs.drift)
    drift_threshold: float = 0.35
    #: candidate strategies for (re-)planning
    strategies: Tuple[str, ...] = PLAN_STRATEGIES

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------ #
    def validate(self) -> "APTConfig":
        """Check every field; returns self so calls chain."""
        self.fanouts = tuple(int(f) for f in self.fanouts)
        if not self.fanouts or any(f <= 0 for f in self.fanouts):
            raise ValueError(f"fanouts must be positive ints, got {self.fanouts}")
        if int(self.global_batch_size) <= 0:
            raise ValueError(
                f"global_batch_size must be positive, got {self.global_batch_size}"
            )
        self.global_batch_size = int(self.global_batch_size)
        if isinstance(self.partition, str):
            if self.partition not in ("metis", "streaming", "random"):
                raise ValueError(
                    f"partition must be 'metis', 'streaming', 'random', or an "
                    f"explicit node->device array, got {self.partition!r}"
                )
        else:
            self.partition = np.asarray(self.partition, dtype=np.int64)
            if self.partition.ndim != 1:
                raise ValueError("explicit partition must be a 1-D node->device array")
        self.seed = int(self.seed)
        if float(self.drift_threshold) <= 0.0:
            raise ValueError(
                f"drift_threshold must be positive, got {self.drift_threshold}"
            )
        self.strategies = tuple(str(s).lower() for s in self.strategies)
        unknown = []
        for s in self.strategies:
            if s in PLAN_STRATEGIES + ("hyb",):
                continue
            if s.startswith("layerwise:"):
                # Lazy import: config stays importable without the engine.
                from repro.engine.layerwise import parse_layerwise

                parse_layerwise(s)  # raises ValueError when malformed
                continue
            unknown.append(s)
        if not self.strategies or unknown:
            raise ValueError(
                f"strategies must be a non-empty subset of "
                f"{PLAN_STRATEGIES + ('hyb',)} plus 'layerwise:...' specs, "
                f"got {self.strategies}"
            )
        if self.execution_backend not in ("serial", "process"):
            raise ValueError(
                f"execution_backend must be 'serial' or 'process', got "
                f"{self.execution_backend!r}"
            )
        self.num_workers = self._int_field(
            "num_workers",
            self.num_workers,
            minimum=0,
            maximum=1024,
            hint="0 = auto (min(4, cores)); set via --workers or "
            "REPRO_NUM_WORKERS",
        )
        self.prefetch_depth = self._int_field(
            "prefetch_depth",
            self.prefetch_depth,
            minimum=0,
            maximum=256,
            hint="0 disables pipelining; each unit is one more global "
            "batch sampled ahead in a worker — set via --prefetch-depth",
        )
        self.disk_promote_mb = self._int_field(
            "disk_promote_mb",
            self.disk_promote_mb,
            minimum=0,
            maximum=1_048_576,
            hint="MiB of hot disk-tier rows kept CPU-resident; 0 disables "
            "promotion; set via --disk-promote-mb",
        )
        self.elastic = bool(self.elastic)
        self._validate_fault_fields()
        return self

    @staticmethod
    def _int_field(name: str, value: Any, *, minimum: int, maximum: int,
                   hint: str) -> int:
        """Reject non-integers and out-of-range values *at construction*,
        with a message that names the field, the limits, and the knobs —
        instead of an opaque failure deep inside pool startup."""
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(
                f"{name} must be an integer in [{minimum}, {maximum}], "
                f"got {value!r} ({type(value).__name__}); {hint}"
            )
        value = int(value)
        if not minimum <= value <= maximum:
            raise ValueError(
                f"{name} must be in [{minimum}, {maximum}], got {value}; "
                f"{hint}"
            )
        return value

    def _validate_fault_fields(self) -> None:
        """Coerce ``fault_policy`` / ``host_chaos`` / checkpoint knobs."""
        if self.fault_policy is not None:
            from repro.parallel.supervisor import FaultPolicy

            if isinstance(self.fault_policy, dict):
                self.fault_policy = FaultPolicy(**self.fault_policy)
            elif not isinstance(self.fault_policy, FaultPolicy):
                raise ValueError(
                    f"fault_policy must be a FaultPolicy or a dict of its "
                    f"fields, got {type(self.fault_policy).__name__}"
                )
            self.fault_policy.validate()
        if self.host_chaos is not None:
            from repro.parallel.chaos import HostFaultSchedule

            if isinstance(self.host_chaos, str):
                self.host_chaos = HostFaultSchedule.parse(self.host_chaos)
            elif isinstance(self.host_chaos, dict):
                self.host_chaos = HostFaultSchedule.from_dict(self.host_chaos)
            elif not isinstance(self.host_chaos, HostFaultSchedule):
                raise ValueError(
                    f"host_chaos must be a HostFaultSchedule, a dict, or a "
                    f"'kind@task[:seconds]' string, got "
                    f"{type(self.host_chaos).__name__}"
                )
        if self.checkpoint_dir is not None:
            self.checkpoint_dir = str(self.checkpoint_dir)
        self.checkpoint_every = self._int_field(
            "checkpoint_every",
            self.checkpoint_every,
            minimum=1,
            maximum=1_000_000,
            hint="epochs between checkpoints; set via --checkpoint-every",
        )
        self.checkpoint_keep = self._int_field(
            "checkpoint_keep",
            self.checkpoint_keep,
            minimum=1,
            maximum=1_000_000,
            hint="checkpoints retained per directory; set via "
            "--checkpoint-keep",
        )

    def replace(self, **changes: Any) -> "APTConfig":
        """Validated copy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict (explicit partitions summarized, not embedded)."""
        out = {
            f.name: getattr(self, f.name) for f in dataclasses.fields(self)
        }
        if isinstance(self.partition, np.ndarray):
            out["partition"] = f"<explicit:{self.partition.size} nodes>"
        out["fanouts"] = list(self.fanouts)
        out["strategies"] = list(self.strategies)
        if self.fault_policy is not None:
            out["fault_policy"] = self.fault_policy.to_dict()
        if self.host_chaos is not None:
            out["host_chaos"] = self.host_chaos.to_dict()
        return out

#: Serve-side cache policies (see repro.serve.cache).
SERVE_CACHE_POLICIES = ("adaptive", "static")


@dataclass
class ServeConfig:
    """Validated configuration of one serving session (``repro serve``).

    Groups the dynamic-batching policy, the cache-adaptation knobs, and
    the drift detector's trigger — the serving analogue of
    :class:`APTConfig`'s online-adaptivity section.  See DESIGN.md §5.13.
    """

    #: dynamic batching: close a batch at this many requests ...
    max_batch_size: int = 32
    #: ... or this many simulated seconds after its first request.
    max_wait_s: float = 0.002
    #: ``"adaptive"`` re-keys the GPU feature cache from observed request
    #: hotness when drift fires; ``"static"`` keeps the training census
    #: keying for the whole session (the fixed baseline).
    cache_policy: str = "adaptive"
    #: relative-error trigger of the serve-side drift detector
    drift_threshold: float = 0.35
    #: batches per drift-detection window
    drift_window: int = 8

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "ServeConfig":
        if int(self.max_batch_size) <= 0:
            raise ValueError(
                f"max_batch_size must be positive, got {self.max_batch_size}"
            )
        self.max_batch_size = int(self.max_batch_size)
        if float(self.max_wait_s) < 0.0:
            raise ValueError(
                f"max_wait_s must be >= 0, got {self.max_wait_s}"
            )
        self.max_wait_s = float(self.max_wait_s)
        if self.cache_policy not in SERVE_CACHE_POLICIES:
            raise ValueError(
                f"cache_policy must be one of {SERVE_CACHE_POLICIES}, got "
                f"{self.cache_policy!r}"
            )
        if float(self.drift_threshold) <= 0.0:
            raise ValueError(
                f"drift_threshold must be positive, got {self.drift_threshold}"
            )
        if int(self.drift_window) <= 0:
            raise ValueError(
                f"drift_window must be positive, got {self.drift_window}"
            )
        self.drift_window = int(self.drift_window)
        return self

    def replace(self, **changes: Any) -> "ServeConfig":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        return {
            f.name: getattr(self, f.name) for f in dataclasses.fields(self)
        }


#: Feature-matrix sizes of the paper's datasets (Table 2), in GB.
PAPER_FEATURE_GB = {"ps": 52.9, "fs": 62.6, "im": 128.0}

#: The paper's default per-GPU cache (Section 5.1).
PAPER_CACHE_GB = 4.0

#: The paper's per-GPU minibatch size; benchmarks scale it down with the
#: graphs so each epoch still spans several global batches.
PAPER_BATCH_PER_GPU = 1024
SCALED_BATCH_PER_GPU = 256

#: Paper-default sampling fanouts (input layer first).
DEFAULT_FANOUTS = (10, 10, 10)


def scaled_gpu_cache_bytes(
    dataset: GraphDataset, cache_gb: float = PAPER_CACHE_GB
) -> float:
    """Per-GPU cache bytes covering the same feature fraction as the paper.

    ``cache_gb`` is interpreted against the *paper's* feature size for the
    dataset's analog family ("ps"/"fs"/"im"); unknown names fall back to the
    PS ratio.
    """
    paper_gb = PAPER_FEATURE_GB.get(dataset.name, PAPER_FEATURE_GB["ps"])
    fraction = cache_gb / paper_gb
    return fraction * dataset.feature_bytes
