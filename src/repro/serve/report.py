"""The :class:`ServeReport` one serving session produces.

Shares :class:`~repro.core.report.ReportBase`'s schema-versioned JSON
envelope with training's ``RunReport`` (``kind="serve"`` vs ``"run"``), so
both reports round-trip through the exact same ``to_dict()`` / ``save()``
/ ``load()`` API — the satellite contract of PR 6, pinned by
``tests/serve/test_report.py``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.report import ReportBase


def latency_percentiles(latencies: np.ndarray) -> Dict[str, float]:
    """The serving percentiles every summary reports (seconds)."""
    lat = np.asarray(latencies, dtype=np.float64)
    if lat.size == 0:
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    return {
        "p50": float(np.percentile(lat, 50)),
        "p90": float(np.percentile(lat, 90)),
        "p99": float(np.percentile(lat, 99)),
        "mean": float(lat.mean()),
        "max": float(lat.max()),
    }


@dataclass(frozen=True)
class Response:
    """One answered request: the predicted class and its latency."""

    request_id: int
    node: int
    prediction: int
    latency_s: float


@dataclass
class ServeReport(ReportBase):
    """Everything one :class:`~repro.serve.engine.ServeEngine` run produced."""

    kind = "serve"

    strategy: str = ""
    #: batching policy + queue counters (RequestQueue.to_dict())
    queue: Dict[str, Any] = field(default_factory=dict)
    num_requests: int = 0
    num_batches: int = 0
    #: simulated second the last batch finished
    sim_seconds: float = 0.0
    #: answered requests per simulated second
    throughput_rps: float = 0.0
    #: end-to-end request latency percentiles (queue wait + service)
    latency: Dict[str, float] = field(default_factory=dict)
    #: pure service-time percentiles per batch (no queueing)
    service: Dict[str, float] = field(default_factory=dict)
    #: hotness-cache state + hit accounting (HotnessCache.to_dict() + hits)
    cache: Dict[str, Any] = field(default_factory=dict)
    #: drift-triggered re-plan records ({"batch", "drift", "hot_size"})
    replans: List[Dict[str, Any]] = field(default_factory=list)
    #: latency-objective planner estimates, when serving was auto-planned
    predicted: Optional[Dict[str, Any]] = None
    #: TelemetryCollector.summary() of the session (None when disabled)
    telemetry: Optional[Dict[str, Any]] = None
    #: JSON-safe ServeConfig snapshot
    config: Optional[Dict[str, Any]] = None
    #: digest over every response's (request_id, node, prediction) — equal
    #: digests mean bit-identical served outputs (the determinism pin)
    responses_digest: str = ""
    #: the individual responses (not serialized: payloads stay compact)
    responses: List[Response] = field(default_factory=list, repr=False)

    # ------------------------------------------------------------------ #
    @staticmethod
    def digest_responses(responses: List[Response]) -> str:
        h = hashlib.blake2b(digest_size=16)
        for r in responses:
            h.update(
                f"{r.request_id}:{r.node}:{r.prediction}\n".encode()
            )
        return h.hexdigest()

    def summary(self) -> str:
        """Human-readable session report: latency and service percentiles,
        throughput, cache hits, re-plans and the responses digest."""
        lat, svc, cfg = self.latency, self.service, self.config
        policy = f"{cfg['max_batch_size']}:{cfg['max_wait_s'] * 1e3:g}"
        return "\n".join([
            f"served {self.num_requests} requests in {self.num_batches} "
            f"batches with {self.strategy} (policy {policy}, "
            f"cache {cfg['cache_policy']}):",
            f"  latency  p50={lat['p50'] * 1e3:.3f}ms "
            f"p90={lat['p90'] * 1e3:.3f}ms p99={lat['p99'] * 1e3:.3f}ms",
            f"  service  p50={svc['p50'] * 1e3:.3f}ms "
            f"p99={svc['p99'] * 1e3:.3f}ms; "
            f"throughput {self.throughput_rps:.0f} req/s (simulated)",
            f"  cache hit fraction {self.cache['hit_fraction']:.3f}; "
            f"{len(self.replans)} drift-triggered re-plan(s)",
            f"  responses digest {self.responses_digest}",
        ])

    def payload_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "strategy": self.strategy,
            "queue": dict(self.queue),
            "num_requests": self.num_requests,
            "num_batches": self.num_batches,
            "sim_seconds": self.sim_seconds,
            "throughput_rps": self.throughput_rps,
            "latency": dict(self.latency),
            "service": dict(self.service),
            "cache": dict(self.cache),
            "replans": list(self.replans),
            "responses_digest": self.responses_digest,
        }
        if self.predicted is not None:
            out["predicted"] = self.predicted
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry
        if self.config is not None:
            out["config"] = self.config
        return out
