"""Deterministic *host*-fault injection for the process backend.

:mod:`repro.cluster.faults` degrades the **simulated** cluster — links,
stragglers, caches — and the engine re-plans around it.  This module is its
host-level mirror: a :class:`HostFaultSchedule` injects real failures into
the worker pool of the :class:`~repro.parallel.backend.ProcessPoolBackend`
so the supervision layer (:mod:`repro.parallel.supervisor`) can be driven
deterministically in tests and CI.  Kinds:

``kill``
    The worker that picks up task *n* dies abruptly (``os._exit``), as if
    OOM-killed.  Exercises dead-worker detection and respawn.
``hang``
    The worker sleeps ``seconds`` before sampling task *n*.  With
    ``seconds`` past the task deadline this exercises hang detection and
    resubmission; below it, merely a straggling worker.

Schedules mirror the :class:`~repro.cluster.faults.FaultSchedule` API:
plain event lists, keyed by *task sequence number* (the backend's
deterministic submission order) instead of epoch.  A single ``--inject``
file may carry both a simulated ``events`` section and a host-level
``host_events`` section; see :func:`split_injections`.
``APTConfig.host_chaos`` also takes the compact grammar
``kind@task[:seconds]``, e.g. ``kill@1;hang@4:0.3``.

A chaos directive fires only on a task's *first* attempt: recovery
resubmissions run clean, so every schedule converges to the same
bit-identical run an undisturbed backend produces (pinned by
``tests/parallel/test_chaos.py``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Union

from repro.cluster.faults import FaultSchedule

#: Host-fault kinds (mirrors ``repro.cluster.faults.FAULT_KINDS``).
HOST_FAULT_KINDS = ("kill", "hang")


@dataclass(frozen=True)
class HostFaultEvent:
    """One scheduled host fault, fired on the first attempt of ``task``.

    ``task`` is the backend's lifetime task sequence number (0-based, in
    submission order — deterministic for a deterministic training loop).
    The directive rides in that task's payload, so it fires in whichever
    idle worker the supervisor hands the task to.  ``seconds`` is the
    ``hang`` duration (ignored otherwise).
    """

    task: int
    kind: str
    seconds: float = 0.25

    def __post_init__(self) -> None:
        if self.task < 0:
            raise ValueError(f"fault task index must be >= 0, got {self.task}")
        if self.kind not in HOST_FAULT_KINDS:
            raise ValueError(
                f"unknown host fault kind {self.kind!r}; "
                f"expected one of {HOST_FAULT_KINDS}"
            )
        if self.kind == "hang" and not self.seconds > 0.0:
            raise ValueError(
                f"hang duration must be positive seconds, got {self.seconds}"
            )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"task": self.task, "kind": self.kind}
        if self.kind == "hang":
            out["seconds"] = self.seconds
        return out


class HostFaultSchedule:
    """A task-indexed sequence of host faults."""

    def __init__(self, events: Sequence[HostFaultEvent] = ()):
        self.events: List[HostFaultEvent] = sorted(
            events, key=lambda e: (e.task, e.kind)
        )

    def __bool__(self) -> bool:
        return bool(self.events)

    def directives_at(self, task: int) -> List[HostFaultEvent]:
        """Events firing at ``task``."""
        return [event for event in self.events if event.task == task]

    # ------------------------------------------------------------------ #
    # (de)serialization — shares the CLI ``--inject`` file with
    # repro.cluster.faults under the ``host_events`` key.
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {"host_events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "HostFaultSchedule":
        return cls(
            [HostFaultEvent(**entry) for entry in payload.get("host_events", ())]
        )

    @classmethod
    def parse(cls, text: str) -> "HostFaultSchedule":
        """Parse the compact ``kind@task[:seconds]`` grammar, items
        separated by ``;`` or ``,``."""
        events = []
        for item in str(text).replace(",", ";").split(";"):
            item = item.strip()
            if not item:
                continue
            try:
                kind, _, rest = item.partition("@")
                task_s, _, seconds_s = rest.partition(":")
                events.append(
                    HostFaultEvent(
                        task=int(task_s),
                        kind=kind.strip().lower(),
                        **({"seconds": float(seconds_s)} if seconds_s else {}),
                    )
                )
            except (ValueError, TypeError) as exc:
                raise ValueError(
                    f"bad chaos item {item!r} (expected kind@task[:seconds], "
                    f"kind one of {HOST_FAULT_KINDS}): {exc}"
                ) from None
        return cls(events)


def split_injections(source: Union[str, os.PathLike]):
    """Load one ``--inject`` payload (inline JSON or a file path) into its
    simulated and host halves.

    Returns ``(FaultSchedule | None, HostFaultSchedule | None)`` — either
    section may be absent; any other top-level key is an error.

    The epoch-keyed ``events`` section also carries the elastic membership
    kinds (``host_leave``/``host_join`` — a machine leaves or joins the
    cluster at an epoch boundary, see DESIGN.md §5.16); the task-keyed
    ``host_events`` section stays about *process* faults inside a fixed
    membership (kill/hang).
    """
    text = str(source)
    if not text.lstrip().startswith("{"):
        with open(text) as fh:
            text = fh.read()
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("an --inject payload must be a JSON object")
    unknown = sorted(set(payload) - {"events", "host_events"})
    if unknown:
        raise ValueError(
            f"unknown top-level key(s) {unknown}; an --inject payload has "
            f"only 'events' and 'host_events'"
        )
    faults = FaultSchedule.from_dict(payload) if payload.get("events") else None
    chaos = (
        HostFaultSchedule.from_dict(payload) if payload.get("host_events") else None
    )
    return faults, chaos
