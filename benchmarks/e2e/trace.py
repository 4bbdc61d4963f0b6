"""Per-layer spans recorded from outside the program under test.

The traced pass wraps the *public* entry points of each layer under
``src/repro/`` (methods are patched on their classes; module-level
functions that callers import by name are patched on the importing
module's binding) and times every call.  No file under ``src/`` changes,
and :meth:`Tracer.uninstall` restores every original, so untraced and
traced repetitions can alternate inside one process.

A span is ``[name, start, end, parent, tag]``; ``name`` is
``<layer>.<operation>`` and ``tag`` identifies the set-up pass or
repetition it belongs to.  A span's *self time* is its duration minus the
part of that interval its child spans cover, so the self times of all
spans under one root add up to the root's duration: every host second of
a timed call is attributed to exactly one layer (or to
``trace.unattributed_share`` when no wrapped call was running).

Only coarse entry points are wrapped (at most a few tens of thousands of
calls per run); ``trace.overhead_share`` reports what that costs.
Worker-process time of the process backend is not traced — it comes from
the ``pipeline`` telemetry of the returned report.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (module, class-or-None, attribute, span name) of every wrapped call.
#: A ``None`` class patches the module-level binding of that module.
_TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    # graph — partitioners are imported by name into repro.core.apt
    ("repro.core.apt", None, "metis_like_partition", "graph.partition"),
    ("repro.core.apt", None, "streaming_partition", "graph.partition"),
    ("repro.core.apt", None, "random_partition", "graph.partition"),
    # sampling
    ("repro.sampling.neighbor", "NeighborSampler", "sample", "sampling.sample"),
    ("repro.sampling.cache", "SampleCache", "sample", "sampling.cache"),
    # featurestore
    ("repro.featurestore.store", "UnifiedFeatureStore", "read", "featurestore.read"),
    ("repro.featurestore.store", "UnifiedFeatureStore", "begin_shared_gather",
     "featurestore.read"),
    ("repro.featurestore.store", "UnifiedFeatureStore", "charge_load",
     "featurestore.charge_load"),
    # tensor
    ("repro.tensor.tensor", "Tensor", "backward", "tensor.backward"),
    ("repro.tensor.optim", "Adam", "step", "tensor.optim"),
    ("repro.tensor.module", "Module", "zero_grad", "tensor.optim"),
    # cluster
    ("repro.cluster.comm", "Communicator", "alltoall_bytes", "cluster.alltoall"),
    ("repro.cluster.comm", "Communicator", "alltoall_tensors", "cluster.alltoall"),
    ("repro.cluster.comm", "Communicator", "alltoall_many", "cluster.alltoall"),
    ("repro.cluster.comm", "Communicator", "scatter_reduce", "cluster.scatter_reduce"),
    ("repro.cluster.comm", "Communicator", "allreduce_gradient_sync",
     "cluster.allreduce"),
    ("repro.cluster.comm", "Communicator", "allgather_bytes", "cluster.allgather"),
    # engine
    ("repro.engine.trainer", "ParallelTrainer", "run_global_batch", "engine.batch"),
    # core
    ("repro.core.dryrun", "DryRun", "run", "core.dryrun"),
    ("repro.core.costmodel", "CostModel", "__init__", "core.costmodel"),
    ("repro.core.costmodel", "CostModel", "estimate", "core.costmodel"),
    ("repro.core.costmodel", "CostModel", "latency_estimate", "core.costmodel"),
    ("repro.core.planner", "Planner", "select", "core.planner_search"),
    ("repro.core.planner", "Planner", "search_layerwise", "core.planner_search"),
    ("repro.core.checkpoint", "CheckpointManager", "save", "core.checkpoint_save"),
    ("repro.core.checkpoint", "CheckpointManager", "load", "core.checkpoint_load"),
    # parallel — make_backend is gated below so the serial backend records
    # nothing (every parallel.* metric stays zero on train_serial)
    ("repro.parallel.backend", None, "export_task_data", "parallel.shm_export"),
    ("repro.parallel.backend", "ProcessPoolBackend", "sample_device_chunks",
     "parallel.wait"),
    ("repro.parallel.backend", "ProcessPoolBackend", "take_gather",
     "parallel.take_gather"),
    ("repro.parallel.backend", "ProcessPoolBackend", "close", "parallel.close"),
    # serve
    ("repro.serve.engine", "ServeEngine", "__init__", "serve.engine_init"),
    ("repro.serve.engine", "ServeEngine", "_infer", "serve.infer"),
    ("repro.serve.queue", "RequestQueue", "form_batches", "serve.form_batches"),
)

#: strategy classes whose prepare / plan_batch / execute_batch / upper_forward
#: are wrapped
_STRATEGY_CLASSES = (
    ("repro.engine.gdp", "GDPStrategy"),
    ("repro.engine.nfp", "NFPStrategy"),
    ("repro.engine.snp", "SNPStrategy"),
    ("repro.engine.dnp", "DNPStrategy"),
    ("repro.engine.layerwise", "LayerwiseStrategy"),
)


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: seconds of each span's interval covered by its direct children
        self._covered: List[float] = []
        self._stack: List[int] = []
        self.tag = "setup0"
        #: counts taken at the same boundaries as the spans, per tag
        self.counts: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        #: feature stores built while tracing; their ``disk_stats`` are
        #: read (and the references dropped) by :meth:`uninstall`
        self._stores: List[object] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._by_tag_cache: Tuple[int, Dict] = (-1, {})

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    @contextmanager
    def span(self, name: str):
        """Record one span around the benchmark's own call into a layer."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.tag])
        self._covered.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = perf_counter()
        span = self.spans[index]
        span[2] = end
        self._stack.pop()
        if span[3] >= 0:
            self._covered[span[3]] += end - span[1]

    def _wrap(
        self,
        fn: Callable,
        name: Optional[str],
        when: Optional[Callable[..., bool]] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recorded as a span called ``name`` (no span when None).

        ``when(*args)`` false → the call runs unrecorded (its time stays in
        the parent's self time); ``after(tracer, result, *args)`` takes
        counts at the boundary."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return fn(*args, **kwargs)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                index = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(index)
            if after is not None:
                after(self, result, *args)
            return result

        return traced

    # ------------------------------------------------------------------ #
    # install / uninstall
    # ------------------------------------------------------------------ #
    def _patch(self, owner: object, attr: str, name: Optional[str], **kw) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, **kw))

    def install(self) -> None:
        """Wrap every target; idempotent per install/uninstall pair."""
        if self._patches:
            return
        for module_name, cls_name, attr, name in _TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            self._patch(owner, attr, name, after=_AFTER.get(name))
        store = importlib.import_module("repro.featurestore.store")
        self._patch(store.UnifiedFeatureStore, "__init__", None,
                    after=lambda tracer, _r, new_store, *a: tracer._stores.append(
                        new_store))
        # make_backend is looked up in repro.core.apt's namespace
        apt_module = importlib.import_module("repro.core.apt")
        self._patch(
            apt_module, "make_backend", "parallel.pool_start",
            when=lambda config, dataset: (
                getattr(config, "execution_backend", "serial") == "process"
            ),
        )
        numerics_on = lambda self_, ctx, *a, **k: bool(ctx.numerics)  # noqa: E731
        for module_name, cls_name in _STRATEGY_CLASSES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            for attr in ("prepare", "plan_batch"):
                if attr in cls.__dict__:
                    self._patch(cls, attr, f"engine.{attr}")
            for attr in ("execute_batch", "upper_forward"):
                # Timing-only execution does no tensor math: leave that
                # time with the caller (engine.batch / core.dryrun).
                if attr in cls.__dict__:
                    self._patch(cls, attr, "tensor.forward", when=numerics_on)
        # Strategy.upper_forward is inherited by the four single strategies.
        base = importlib.import_module("repro.engine.base").Strategy
        self._patch(base, "upper_forward", "tensor.forward", when=numerics_on)

    def uninstall(self) -> None:
        """Restore every original and close the pass: hot-row promotions
        are read off the feature stores the pass built."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for store in self._stores:
            self.counts[self.tag]["promotions"] += store.disk_stats["promotions"]
        self._stores.clear()

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def by_tag(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """``tag -> span name -> {self_s, total_s, calls}``."""
        if self._by_tag_cache[0] == len(self.spans):
            return self._by_tag_cache[1]
        out: Dict[str, Dict[str, Dict[str, float]]] = defaultdict(
            lambda: defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        )
        for span, covered in zip(self.spans, self._covered):
            name, start, end, _parent, tag = span
            cell = out[tag][name]
            cell["self_s"] += (end - start) - covered
            cell["total_s"] += end - start
            cell["calls"] += 1
        self._by_tag_cache = (len(self.spans), out)
        return out

    def median(self, names: Iterable[str], field: str = "self_s") -> float:
        """Median over the tags that saw any of ``names`` of their summed
        ``field`` (0.0 when no tag did)."""
        names = tuple(names)
        values = []
        for cells in self.by_tag().values():
            hit = [cells[n][field] for n in names if n in cells]
            if hit:
                values.append(sum(hit))
        return statistics.median(values) if values else 0.0

    def count(self, key: str) -> float:
        """Median over tags of one boundary count."""
        values = [c[key] for c in self.counts.values() if key in c]
        return statistics.median(values) if values else 0.0

    def durations(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def span_cost_seconds(self, calls: int = 20_000) -> float:
        """Host seconds one recorded span adds to the call it wraps,
        measured on a no-op (spans recorded here are discarded)."""

        def noop():
            return None

        wrapped = self._wrap(noop, "trace.calibration")
        mark = len(self.spans)
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter() - t0
        t0 = perf_counter()
        for _ in range(calls):
            wrapped()
        cost = (perf_counter() - t0 - bare) / calls
        del self.spans[mark:], self._covered[mark:]
        return max(cost, 0.0)

    def unattributed_share(self) -> float:
        """Self time of the benchmark's own root spans ÷ their duration:
        the share of timed host seconds no wrapped call covered."""
        self_s = total_s = 0.0
        for span, covered in zip(self.spans, self._covered):
            if span[3] < 0 and span[0].startswith("run."):
                total_s += span[2] - span[1]
                self_s += (span[2] - span[1]) - covered
        return self_s / total_s if total_s > 0 else 0.0

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def write(self, path_prefix: str, workload: str) -> Tuple[str, str]:
        """Write ``<prefix>.spans.json`` and ``<prefix>.chrome.json``."""
        origin = self.spans[0][1] if self.spans else 0.0
        spans_path = f"{path_prefix}.spans.json"
        with open(spans_path, "w") as fh:
            json.dump(
                {
                    "workload": workload,
                    "fields": ["name", "layer", "start_s", "end_s", "parent", "tag"],
                    "spans": [
                        [s[0], s[0].split(".", 1)[0], s[1] - origin, s[2] - origin,
                         s[3], s[4]]
                        for s in self.spans
                    ],
                },
                fh,
            )
        layers = sorted({s[0].split(".", 1)[0] for s in self.spans})
        tid = {layer: i for i, layer in enumerate(layers)}
        events: List[dict] = [
            {"ph": "M", "pid": 0, "tid": i, "name": "thread_name",
             "args": {"name": layer}}
            for layer, i in tid.items()
        ]
        events.append({"ph": "M", "pid": 0, "name": "process_name",
                       "args": {"name": f"{workload} (host clock)"}})
        for s in self.spans:
            layer = s[0].split(".", 1)[0]
            events.append({
                "ph": "X", "pid": 0, "tid": tid[layer], "name": s[0], "cat": layer,
                "ts": (s[1] - origin) * 1e6, "dur": (s[2] - s[1]) * 1e6,
                "args": {"tag": s[4]},
            })
        chrome_path = f"{path_prefix}.chrome.json"
        with open(chrome_path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return spans_path, chrome_path


# ---------------------------------------------------------------------- #
# counts taken at span boundaries
# ---------------------------------------------------------------------- #
def _after_charge_load(tracer, report, *args) -> None:
    counts = tracer.counts[tracer.tag]
    for tier, rows in report.rows.items():
        counts[f"rows.{tier.value}"] += rows
    for tier, nbytes in report.bytes.items():
        if tier.value == "disk":
            counts["disk_bytes"] += nbytes
    counts["disk_ranged_reads"] += report.ranged_reads


def _after_sample(tracer, minibatch, *args) -> None:
    tracer.counts[tracer.tag]["sample_calls"] += 1


_AFTER: Dict[str, Callable] = {
    "featurestore.charge_load": _after_charge_load,
    "sampling.sample": _after_sample,
}
