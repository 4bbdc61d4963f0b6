"""Epoch-granular run checkpoints for :class:`~repro.core.apt.APT`.

This module persists a *run* — everything the APT epoch loop
(:class:`~repro.core.run.TrainingRun`) needs to continue bit-identically
after the process dies mid-training:

* model parameters and optimizer state (moments, step count, lr);
* the simulated :class:`~repro.cluster.timeline.Timeline` ledger and the
  :class:`~repro.engine.context.VolumeRecorder` accumulators of the live
  trainer (restored only when the resumed epoch's effective cluster equals
  the saved one — an uninterrupted run rebuilds both on cluster change),
  plus the ledgers of the trainer segments already closed, so a resumed
  run exports the same Chrome trace as the uninterrupted one;
* the in-flight :class:`~repro.core.report.RunReport` parts (epoch
  results, re-plan events, fault records, strategy-by-epoch) and the live
  :class:`~repro.obs.telemetry.TelemetryCollector`;
* the adaptive-loop registers (current strategy, active cost estimate,
  drift history, re-plan cooldown);
* the :class:`~repro.sampling.cache.SampleCache` entry keys (metadata:
  the cache itself re-fills deterministically — entries are pure
  functions of ``(sampler, seeds, epoch)`` — so keys are recorded for
  observability, not restored).

Everything else the loop touches is a pure function of the config
(counter-based sampler, per-epoch shuffle RNG, fault schedules, profiling
noise), so no live RNG state needs saving — the seeds in the manifest's
config snapshot *are* the RNG streams.

Layout: each checkpoint is one directory ``<root>/epoch-NNNNNN/`` holding
``manifest.json`` (human-readable: version, epochs completed, config
snapshot + digest) and ``state.pkl`` (the state above).  Writes go to a
temp directory renamed into place, so a checkpoint either exists fully or
not at all — a ``kill -9`` mid-save leaves the previous checkpoint as the
latest valid one.  ``keep`` bounds disk use; the newest ``keep``
checkpoints survive pruning.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointManager",
    "config_digest",
    "recorder_state",
    "restore_recorder",
    "state_digest",
]

CHECKPOINT_VERSION = 1

_MANIFEST = "manifest.json"
_STATE = "state.pkl"
_PREFIX = "epoch-"

#: Config fields that steer *host execution only* — backend choice,
#: supervision, chaos, checkpoint cadence, observability.  Two runs whose
#: configs differ only here produce bit-identical losses/params/Timeline
#: (the backend equivalence contract), so resume accepts the mismatch.
_HOST_ONLY_FIELDS = frozenset(
    {
        "execution_backend",
        "num_workers",
        "prefetch_depth",
        "fault_policy",
        "host_chaos",
        "checkpoint_dir",
        "checkpoint_every",
        "checkpoint_keep",
        "telemetry",
    }
)

#: Failure modes of one on-disk checkpoint that the default-path ``load``
#: may *skip past* (falling back to an older checkpoint): truncated or
#: unreadable files, a bad pickle, a digest/version/manifest mismatch.
_RECOVERABLE_ERRORS = (
    OSError,
    ValueError,
    KeyError,
    EOFError,
    pickle.UnpicklingError,
)


def state_digest(raw: bytes) -> str:
    """Digest of the pickled state bytes (corruption detection)."""
    return hashlib.blake2b(raw, digest_size=16).hexdigest()


def config_digest(config_dict: Dict[str, Any]) -> str:
    """Digest of the result-determining config fields.

    Host-only fields (see ``_HOST_ONLY_FIELDS``) are excluded: resuming a
    serial run on the process backend is legal, resuming with different
    fanouts is not.
    """
    relevant = {
        k: v for k, v in config_dict.items() if k not in _HOST_ONLY_FIELDS
    }
    payload = json.dumps(relevant, sort_keys=True, default=str)
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


# ---------------------------------------------------------------------- #
# VolumeRecorder state transfer (in place — strategies may hold the
# recorder through their context, so the object is never replaced)
# ---------------------------------------------------------------------- #
def recorder_state(recorder) -> Dict[str, Any]:
    return {
        "load_rows": [dict(rows) for rows in recorder.load_rows],
        "hidden_bytes": recorder.hidden_bytes.copy(),
        "structure_send_bytes": recorder.structure_send_bytes.copy(),
        "n_dst": int(recorder.n_dst),
        "n_virtual": int(recorder.n_virtual),
        "shuffle_messages": recorder.shuffle_messages.copy(),
        "disk_ranged_reads": recorder.disk_ranged_reads.copy(),
        "peak_intermediate_bytes": recorder.peak_intermediate_bytes.copy(),
        "layer1_flops": recorder.layer1_flops.copy(),
        "relayout_bytes": recorder.relayout_bytes.copy(),
        "relayout_layer_bytes": dict(recorder.relayout_layer_bytes),
        "access_frequency": (
            recorder.access_frequency.copy()
            if recorder.access_frequency is not None
            else None
        ),
    }


def restore_recorder(recorder, state: Dict[str, Any]) -> None:
    if len(state["load_rows"]) != recorder.num_devices:
        raise ValueError(
            f"recorder state is for {len(state['load_rows'])} devices, "
            f"this recorder has {recorder.num_devices}"
        )
    # Older checkpoints predate the disk tier: normalize missing per-tier
    # keys to zero rather than rejecting the state.
    from repro.featurestore.store import Tier

    recorder.load_rows = [
        {t: float(rows.get(t, 0.0)) for t in Tier} for rows in state["load_rows"]
    ]
    recorder.hidden_bytes[...] = state["hidden_bytes"]
    recorder.structure_send_bytes[...] = state["structure_send_bytes"]
    recorder.n_dst = int(state["n_dst"])
    recorder.n_virtual = int(state["n_virtual"])
    recorder.shuffle_messages[...] = state["shuffle_messages"]
    if "disk_ranged_reads" in state:
        recorder.disk_ranged_reads[...] = state["disk_ranged_reads"]
    else:
        recorder.disk_ranged_reads[...] = 0.0
    recorder.peak_intermediate_bytes[...] = state["peak_intermediate_bytes"]
    recorder.layer1_flops[...] = state["layer1_flops"]
    # Older checkpoints predate layerwise re-layout accounting.
    if "relayout_bytes" in state:
        recorder.relayout_bytes[...] = state["relayout_bytes"]
        recorder.relayout_layer_bytes = {
            int(k): float(v) for k, v in state["relayout_layer_bytes"].items()
        }
    else:
        recorder.relayout_bytes[...] = 0.0
        recorder.relayout_layer_bytes = {}
    recorder.access_frequency = (
        state["access_frequency"].copy()
        if state["access_frequency"] is not None
        else None
    )


# ---------------------------------------------------------------------- #
@dataclass
class Checkpoint:
    """One loaded checkpoint: the JSON manifest + the pickled state."""

    path: str
    manifest: Dict[str, Any]
    state: Dict[str, Any]

    @property
    def epochs_completed(self) -> int:
        return int(self.manifest["epochs_completed"])


class CheckpointManager:
    """Atomic save/load/prune of run checkpoints under one directory."""

    def __init__(self, directory: str, keep: int = 3):
        self.directory = str(directory)
        if int(keep) < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.keep = int(keep)
        #: corrupt checkpoints the default-path :meth:`load` skipped —
        #: ``{"path": ..., "error": ...}`` entries, newest first.  The run
        #: loop surfaces these as ``checkpoint_corrupt`` telemetry.
        self.warnings: List[Dict[str, str]] = []
        os.makedirs(self.directory, exist_ok=True)

    # ------------------------------------------------------------------ #
    def checkpoints(self) -> List[str]:
        """Paths of every complete checkpoint, oldest first."""
        found = []
        for name in sorted(os.listdir(self.directory)):
            path = os.path.join(self.directory, name)
            if (
                name.startswith(_PREFIX)
                and os.path.isfile(os.path.join(path, _MANIFEST))
                and os.path.isfile(os.path.join(path, _STATE))
            ):
                found.append(path)
        return found

    def latest(self) -> Optional[str]:
        """Path of the newest complete checkpoint, or ``None``."""
        found = self.checkpoints()
        return found[-1] if found else None

    def latest_epoch(self) -> Optional[int]:
        """Epochs the newest complete checkpoint covers, or ``None``."""
        latest = self.latest()
        if latest is None:
            return None
        try:
            return int(os.path.basename(latest)[len(_PREFIX):])
        except ValueError:
            return None

    # ------------------------------------------------------------------ #
    def save(
        self,
        *,
        epochs_completed: int,
        config_dict: Dict[str, Any],
        run_args: Dict[str, Any],
        state: Dict[str, Any],
    ) -> str:
        """Write one checkpoint atomically; returns its directory path.

        The temp-dir + ``os.replace`` dance guarantees a reader (including
        a resumed process after ``kill -9`` mid-save) never observes a
        half-written checkpoint.
        """
        name = f"{_PREFIX}{int(epochs_completed):06d}"
        final = os.path.join(self.directory, name)
        tmp = os.path.join(self.directory, f".tmp-{name}-{os.getpid()}")
        if os.path.isdir(tmp):
            shutil.rmtree(tmp)
        os.makedirs(tmp)
        raw = pickle.dumps(state, protocol=4)
        manifest = {
            "version": CHECKPOINT_VERSION,
            "epochs_completed": int(epochs_completed),
            "config": config_dict,
            "config_digest": config_digest(config_dict),
            "state_digest": state_digest(raw),
            "run_args": dict(run_args),
        }
        with open(os.path.join(tmp, _MANIFEST), "w") as fh:
            json.dump(manifest, fh, indent=2, default=str)
        with open(os.path.join(tmp, _STATE), "wb") as fh:
            fh.write(raw)
        if os.path.isdir(final):
            # Re-saving the same epoch (e.g. a resumed run re-running it):
            # drop the stale copy; the replace below is still atomic.
            shutil.rmtree(final)
        os.replace(tmp, final)
        self.prune()
        return final

    def prune(self) -> None:
        """Delete all but the newest ``keep`` checkpoints (+ stale temps)."""
        for path in self.checkpoints()[: -self.keep]:
            shutil.rmtree(path, ignore_errors=True)
        for name in os.listdir(self.directory):
            if name.startswith(".tmp-") and not name.endswith(
                f"-{os.getpid()}"
            ):
                shutil.rmtree(
                    os.path.join(self.directory, name), ignore_errors=True
                )

    # ------------------------------------------------------------------ #
    def load(self, path: Optional[str] = None) -> Checkpoint:
        """Load ``path`` (default: the newest *valid* checkpoint).

        An explicit ``path`` is loaded strictly (corruption raises).  On
        the default path, a checkpoint that fails to load — truncated
        files, a ``state_digest`` mismatch, a bad manifest — is skipped
        with a :attr:`warnings` entry and the walk falls back to the next
        older one; the newest failure is re-raised only when *no*
        checkpoint in the directory is valid.
        """
        if path is not None:
            return self._load_one(path)
        found = self.checkpoints()
        if not found:
            raise FileNotFoundError(
                f"no checkpoint found under {self.directory!r}"
            )
        first_error: Optional[BaseException] = None
        for candidate in reversed(found):
            try:
                return self._load_one(candidate)
            except _RECOVERABLE_ERRORS as exc:
                self.warnings.append(
                    {"path": candidate, "error": str(exc)}
                )
                if first_error is None:
                    first_error = exc
        raise first_error

    def _load_one(self, path: str) -> Checkpoint:
        """Strictly load one checkpoint directory; raises on corruption."""
        with open(os.path.join(path, _MANIFEST)) as fh:
            manifest = json.load(fh)
        version = int(manifest.get("version", -1))
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint {path!r} has version {version}, this build "
                f"reads version {CHECKPOINT_VERSION}"
            )
        with open(os.path.join(path, _STATE), "rb") as fh:
            raw = fh.read()
        saved = manifest.get("state_digest")
        if saved is not None and state_digest(raw) != saved:
            raise ValueError(
                f"checkpoint {path!r} failed its state-digest check "
                f"(state.pkl is corrupt or was modified after the save)"
            )
        state = pickle.loads(raw)
        return Checkpoint(path=path, manifest=manifest, state=state)

    def verify_config(self, checkpoint: Checkpoint,
                      config_dict: Dict[str, Any]) -> None:
        """Reject resuming under a config that changes the results."""
        saved = checkpoint.manifest.get("config_digest")
        current = config_digest(config_dict)
        if saved != current:
            raise ValueError(
                f"checkpoint {checkpoint.path!r} was written under a "
                f"different result-determining config (saved digest "
                f"{saved}, current {current}); resume with the original "
                f"fanouts/batch size/seed/partition/strategy settings "
                f"(host-side fields like the execution backend may differ)"
            )
