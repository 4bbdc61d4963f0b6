"""Per-device, per-phase simulated-time accounting.

The paper decomposes epoch time as ``T = T_build + T_load + T_shuffle +
T_train`` (Eq. 2) and reports stacked breakdowns of *sampling / loading /
training* in Figs. 8-11 (graph-structure shuffling is folded into sampling,
hidden-embedding shuffling into training).  :class:`Timeline` mirrors that:

* strategies charge simulated seconds to ``(device, phase)`` buckets;
* a per-minibatch barrier models bulk-synchronous execution — the epoch
  advances by the *slowest* device's batch time, so load imbalance (e.g.
  SNP/DNP's partition-skewed seed assignment) costs real simulated time;
* per-phase epoch totals are the sum over batches of the per-batch
  max-over-devices, so the stacked breakdown adds up to the wall time.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

#: Phase keys.  ``sample`` includes graph-structure shuffling (T_build);
#: ``load`` is input-feature loading (T_load); ``train`` is model compute
#: (T_train); ``shuffle`` is hidden-embedding exchange (T_shuffle).
PHASES = ("sample", "load", "train", "shuffle")
_PHASE_INDEX = {p: i for i, p in enumerate(PHASES)}


def _phase_index(phase: str) -> int:
    try:
        return _PHASE_INDEX[phase]
    except KeyError:
        raise ValueError(f"unknown phase {phase!r}; expected one of {PHASES}") from None


#: Reporting groups used by the paper's stacked bars.
PAPER_BREAKDOWN = {
    "sampling": ("sample",),
    "loading": ("load",),
    "training": ("train", "shuffle"),
}


#: phases that belong to the data-preparation pipeline stage when
#: prefetch overlap is modeled (sampling + feature loading of batch i+1
#: can run while batch i trains).
PREP_PHASES = ("sample", "load")


class Timeline:
    """Simulated-time ledger for one epoch (or more) of execution.

    Parameters
    ----------
    num_devices:
        Logical GPU count.
    overlap:
        Model prefetch pipelining: with ``overlap=True`` a batch costs
        ``max(prep, compute)`` per device instead of ``prep + compute``,
        where prep = sampling + loading and compute = training + hidden
        shuffling — the steady-state throughput of a two-stage pipeline
        (DGL-style prefetching dataloaders).  Default off, matching the
        paper's additive Eq. 2 decomposition.
    telemetry:
        Optional :class:`~repro.obs.telemetry.TelemetryCollector` that each
        barrier emits a ``batch`` event into.  Pure observation — the
        collector never feeds back into any charged time.

    Every barrier also keeps a snapshot of the batch's per-device phase
    deltas (one ``devices x 4`` float copy), so any finished run can be
    exported with :func:`chrome_trace` — there is no flag to forget.
    """

    def __init__(
        self,
        num_devices: int,
        overlap: bool = False,
        telemetry=None,
    ):
        if num_devices <= 0:
            raise ValueError(f"num_devices must be positive, got {num_devices}")
        self.num_devices = int(num_devices)
        self.overlap = bool(overlap)
        self.telemetry = telemetry
        #: per-batch ``(barrier start, per-device phase deltas)`` snapshots
        self._trace_batches: list = []
        # Whole-run phase totals per device.
        self._device_phase = np.zeros((self.num_devices, len(PHASES)))
        # Current-batch deltas per device.
        self._batch_delta = np.zeros((self.num_devices, len(PHASES)))
        # Synchronized epoch totals.
        self._wall = 0.0
        self._phase_wall = np.zeros(len(PHASES))
        self._batches = 0
        self._prep_idx = np.array([PHASES.index(p) for p in PREP_PHASES])
        self._compute_idx = np.array(
            [i for i in range(len(PHASES)) if i not in self._prep_idx]
        )

    # ------------------------------------------------------------------ #
    def charge(self, device, phase: str, seconds) -> None:
        """Charge ``seconds`` of simulated time to one device and phase, or
        to an array of devices with one entry each: each entry one add to
        its cell, in order, as one scalar call per entry.  Distinct devices
        take one fancy-index add per ledger; repeated ones ``np.add.at``,
        whose adds to a repeated cell keep the entries' order."""
        p = _phase_index(phase)
        if isinstance(device, (int, np.integer)):
            if seconds < 0:
                raise ValueError(f"cannot charge negative time: {seconds}")
            self._device_phase[device, p] += seconds
            self._batch_delta[device, p] += seconds
            return
        seconds = np.asarray(seconds, dtype=np.float64)
        lowest = np.fmin.reduce(seconds, axis=None, initial=0.0)  # NaN skipped
        if lowest < 0:
            raise ValueError(f"cannot charge negative time: {lowest}")
        ids = device.tolist() if isinstance(device, np.ndarray) else device
        distinct = len(set(ids)) == len(ids)
        device = np.asarray(device, dtype=np.int64)
        for ledger in (self._device_phase, self._batch_delta):
            cells = ledger[:, p]
            if distinct:
                cells[device] += seconds
            else:
                np.add.at(cells, device, seconds)

    def charge_all(self, phase: str, seconds: float) -> None:
        """Charge the same time to every device (symmetric collectives)."""
        p = _phase_index(phase)
        self._device_phase[:, p] += seconds
        self._batch_delta[:, p] += seconds

    def end_batch(self) -> float:
        """Apply the bulk-synchronous barrier; returns this batch's time.

        The batch costs the maximum per-device total; each phase's wall
        contribution is that phase's maximum across devices, so the stacked
        per-phase breakdown sums to (an upper estimate within the batch of)
        the wall time.  With ``overlap=True`` the per-device total is
        ``max(prep, compute)`` (prefetch pipelining).
        """
        self._trace_batches.append((self._wall, self._batch_delta.copy()))
        if self.overlap:
            prep = self._batch_delta[:, self._prep_idx].sum(axis=1)
            compute = self._batch_delta[:, self._compute_idx].sum(axis=1)
            batch_wall = float(np.maximum(prep, compute).max())
        else:
            batch_wall = float(self._batch_delta.sum(axis=1).max())
        if self.telemetry is not None:
            straggler = int(self._batch_delta.sum(axis=1).argmax())
            self.telemetry.emit(
                "batch",
                sim_time=self._wall + batch_wall,
                device=straggler,
                batch=self._batches,
                wall=batch_wall,
            )
            self.telemetry.count("batches")
        self._wall += batch_wall
        self._phase_wall += self._batch_delta.max(axis=0)
        self._batch_delta[:] = 0.0
        self._batches += 1
        return batch_wall

    # ------------------------------------------------------------------ #
    @property
    def wall_seconds(self) -> float:
        """Synchronized total time (sum of per-batch maxima)."""
        return self._wall

    @property
    def num_batches(self) -> int:
        return self._batches

    def phase_seconds(self, phase: str) -> float:
        """Synchronized time attributed to ``phase``."""
        return float(self._phase_wall[_phase_index(phase)])

    def device_phase_seconds(self, device: int, phase: str) -> float:
        return float(self._device_phase[device, _phase_index(phase)])

    def device_busy_seconds(self) -> List[float]:
        """Per-device busy seconds accumulated so far (all phases)."""
        return [
            sum(self.device_phase_seconds(d, p) for p in PHASES)
            for d in range(self.num_devices)
        ]

    def utilization(self) -> Dict[str, object]:
        """Per-device busy seconds, their share of the barrier wall clock,
        and the max/min imbalance (DESIGN.md §5.17)."""
        busy = self.device_busy_seconds()
        wall = self._wall
        return {
            "wall_seconds": wall,
            "busy_seconds": busy,
            "utilization": [b / wall if wall > 0 else 0.0 for b in busy],
            **busy_imbalance(busy),
        }

    def breakdown(self) -> Dict[str, float]:
        """Per-phase synchronized times keyed by phase name."""
        return {p: float(self._phase_wall[i]) for i, p in enumerate(PHASES)}

    def paper_breakdown(self) -> Dict[str, float]:
        """The paper's three-way split: sampling / loading / training."""
        return {
            label: sum(self.phase_seconds(p) for p in phases)
            for label, phases in PAPER_BREAKDOWN.items()
        }

    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, object]:
        """Everything accumulated so far, for checkpoint/resume.

        Restoring this onto a fresh :class:`Timeline` of the same device
        count continues the ledger exactly where it stopped — resumed runs
        charge identical simulated time (``tests/core/test_checkpoint.py``).
        """
        return {
            "device_phase": self._device_phase.copy(),
            "batch_delta": self._batch_delta.copy(),
            "wall": float(self._wall),
            "phase_wall": self._phase_wall.copy(),
            "batches": int(self._batches),
            "trace_batches": [
                (start, delta.copy()) for start, delta in self._trace_batches
            ],
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        device_phase = np.asarray(state["device_phase"], dtype=float)
        if device_phase.shape != self._device_phase.shape:
            raise ValueError(
                f"timeline state is for {device_phase.shape[0]} devices, "
                f"this timeline has {self.num_devices}"
            )
        self._device_phase[...] = device_phase
        self._batch_delta[...] = np.asarray(state["batch_delta"], dtype=float)
        self._wall = float(state["wall"])
        self._phase_wall[...] = np.asarray(state["phase_wall"], dtype=float)
        self._batches = int(state["batches"])
        self._trace_batches = [
            (float(start), np.asarray(delta, dtype=float).copy())
            for start, delta in state.get("trace_batches", [])
        ]

    @classmethod
    def from_state_dict(cls, state: Dict[str, object]) -> "Timeline":
        """A ledger rebuilt from :meth:`state_dict` alone (a resumed run's
        already-closed trainer segments)."""
        timeline = cls(len(state["device_phase"]))
        timeline.load_state_dict(state)
        return timeline

def busy_imbalance(busy: Sequence[float]) -> Dict[str, float]:
    """Max and min of per-device busy seconds and their ratio.

    A ratio near 1 means speed-proportional balance; a large one means the
    slowest device gated the barrier (DESIGN.md §5.17).
    """
    max_busy, min_busy = max(busy), min(busy)
    return {
        "max_busy": max_busy,
        "min_busy": min_busy,
        "imbalance_ratio": max_busy / min_busy if min_busy > 0 else 0.0,
    }


def chrome_trace(segments: Sequence[Timeline]) -> list:
    """Chrome-trace events of consecutive timelines laid end to end.

    A run whose trainer was rebuilt (fault, strategy switch, membership
    change) has one :class:`Timeline` per trainer segment; each starts
    where the previous one's wall clock stopped and batches keep counting
    across segments.  Each simulated GPU is one "thread"; within a batch,
    a device's phases are laid out in the canonical order (sample, load,
    train, shuffle) starting at the batch's barrier-aligned start time.
    Durations are simulated seconds expressed in microseconds (the trace
    format's unit).
    """
    events = []
    offset = 0.0
    batch_idx = 0
    for timeline in segments:
        for start, deltas in timeline._trace_batches:
            for dev in range(timeline.num_devices):
                cursor = offset + start
                for p_idx, phase in enumerate(PHASES):
                    dur = float(deltas[dev, p_idx])
                    if dur <= 0.0:
                        continue
                    events.append(
                        {
                            "name": phase,
                            "cat": f"batch{batch_idx}",
                            "ph": "X",
                            "ts": cursor * 1e6,
                            "dur": dur * 1e6,
                            "pid": 0,
                            "tid": dev,
                        }
                    )
                    cursor += dur
            batch_idx += 1
        offset += timeline.wall_seconds
    return events
