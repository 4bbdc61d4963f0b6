"""Seeded, deterministic *host*-fault injection for the process backend.

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

Schedules mirror the :class:`~repro.cluster.faults.FaultSchedule` API —
events are keyed by *task sequence number* (the backend's deterministic
submission order) instead of epoch, carry the same ``seed``/``jitter``
semantics (jitter perturbs ``hang`` durations), and round-trip through the
same JSON grammar.  A single ``--inject`` file may carry both a simulated
``events`` section and a host-level ``host_events`` section; see
:func:`split_injections`.  The ``REPRO_CHAOS`` environment variable arms a
schedule for any process-backend run (CI's chaos leg), using either a JSON
payload/path or the compact grammar ``kind@task[:seconds]``, e.g.
``kill@1;hang@4:0.3``.

A chaos directive fires only on a task's *first* attempt: recovery
resubmissions run clean, so every seeded schedule converges to the same
bit-identical run an undisturbed backend produces (pinned by
``tests/parallel/test_chaos.py``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.cluster.faults import FaultSchedule, _read_json
from repro.utils.random import rng_from

#: Host-fault kinds (mirrors ``repro.cluster.faults.FAULT_KINDS``).
HOST_FAULT_KINDS = ("kill", "hang")

#: Environment variable CI uses to arm a schedule for every process run.
CHAOS_ENV = "REPRO_CHAOS"


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
    """A task-indexed, seeded sequence of host faults."""

    def __init__(
        self,
        events: Sequence[HostFaultEvent] = (),
        *,
        seed: int = 0,
        jitter: float = 0.0,
    ):
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self.events: List[HostFaultEvent] = sorted(
            events, key=lambda e: (e.task, e.kind)
        )
        self.seed = int(seed)
        self.jitter = float(jitter)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    # ------------------------------------------------------------------ #
    def effective_seconds(self, index: int) -> float:
        """Event ``index``'s hang duration after the seeded jitter draw.

        Depends only on ``(seed, index)`` — never on call order — so any
        two walks of the schedule agree exactly (the
        :meth:`FaultSchedule.effective_factor` contract).
        """
        event = self.events[index]
        if self.jitter == 0.0 or event.kind != "hang":
            return event.seconds
        rng = rng_from(self.seed, 0xC4A05, index)
        return event.seconds * (1.0 + rng.uniform(-self.jitter, self.jitter))

    def directives_at(self, task: int) -> List[Tuple[HostFaultEvent, float]]:
        """Events firing at ``task``, with their jittered durations."""
        return [
            (event, self.effective_seconds(index))
            for index, event in enumerate(self.events)
            if event.task == task
        ]

    # ------------------------------------------------------------------ #
    # (de)serialization — shares the CLI ``--inject`` file with
    # repro.cluster.faults under the ``host_events`` key.
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "jitter": self.jitter,
            "host_events": [e.to_dict() for e in self.events],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "HostFaultSchedule":
        events = [HostFaultEvent(**entry) for entry in payload.get("host_events", ())]
        return cls(
            events,
            seed=int(payload.get("seed", 0)),
            jitter=float(payload.get("jitter", 0.0)),
        )

    @classmethod
    def from_json(cls, source: Union[str, os.PathLike]) -> "HostFaultSchedule":
        """Parse a schedule from a JSON string or a file path."""
        return cls.from_dict(_read_json(source))

    @classmethod
    def parse(cls, source: Union[str, os.PathLike]) -> "HostFaultSchedule":
        """Parse JSON (inline or path) or the compact ``kind@task[:s]``
        grammar, items separated by ``;`` or ``,``."""
        text = str(source).strip()
        if not text:
            return cls()
        if text.lstrip().startswith("{") or os.path.exists(text):
            return cls.from_json(text)
        events = []
        for item in text.replace(",", ";").split(";"):
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

    @classmethod
    def from_env(cls, env: str = CHAOS_ENV) -> Optional["HostFaultSchedule"]:
        """Schedule armed via the environment, or ``None`` when unset."""
        value = os.environ.get(env, "").strip()
        if not value:
            return None
        return cls.parse(value)


def split_injections(source: Union[str, os.PathLike]):
    """Load one ``--inject`` payload into its simulated and host halves.

    Returns ``(FaultSchedule | None, HostFaultSchedule | None)`` — either
    section may be absent.  The two schedules share the payload's
    ``seed``/``jitter``.

    The epoch-keyed ``events`` section also carries the elastic membership
    kinds (``host_leave``/``host_join`` — a machine leaves or joins the
    cluster at an epoch boundary, see DESIGN.md §5.16); the task-keyed
    ``host_events`` section stays about *process* faults inside a fixed
    membership (kill/hang).
    """
    payload = _read_json(source)
    faults = FaultSchedule.from_dict(payload) if payload.get("events") else None
    chaos = (
        HostFaultSchedule.from_dict(payload) if payload.get("host_events") else None
    )
    return faults, chaos
