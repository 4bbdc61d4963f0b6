"""The five end-to-end workloads and the process that runs one of them.

``run.py`` starts this module once per workload, in a child process of its
own, so that ``peak_rss_mb`` belongs to one workload and nothing a
workload leaves behind can reach the next.  The program under test is
driven through its public API only and receives nothing but inputs
generated from ``--seed``.

Every workload has the same shape:

``build()``
    one-time set-up (dataset, cluster, partition, checkpoint, request
    stream).  Run three to seven times from scratch (``SETUP_PASSES``) —
    once before the repetitions, the rest after ``peak_rss_mb`` is read;
    ``setup_s`` takes the median.
``repeat(rec)``
    one repetition: untimed per-repetition set-up (a fresh ``APT`` so the
    sample cache is cold — its seconds go to ``setup_s`` too), then the
    timed calls, each under its own part name.  Repetitions continue until
    ``--seconds`` have passed (never fewer than ``MIN_REPS``).  Every
    repetition does identical work, so simulated results must repeat
    exactly and the host clock gets one sample per part per repetition.

Two clocks, always labelled: ``*_host_s`` is host wall-clock of this
NumPy program; ``*_sim_*`` are simulated seconds from ``Timeline`` and are
deterministic under a fixed seed.

**Host seconds are scaled to a reference machine.**  The sandbox this
benchmark was built on runs the same code 0.8x-1.45x as fast from one
stretch of ten seconds to a few minutes to the next, which no statistic
over repetitions inside a run removes.  A small fixed kernel
(:func:`reference_seconds`, benchmark-owned, touching nothing under
``src/``) is therefore timed before and after every set-up pass and every
timed call, and the end-to-end ``setup_s`` / ``work_host_s`` are the raw
seconds times ``REF_NOMINAL_S / reference seconds``: seconds on a machine
that runs the kernel in ``REF_NOMINAL_S``.  The kernel does the program's
own kind of work - many short NumPy calls on small arrays - because that
is what the slow stretches slow most: over seven minutes of alternating
kernel readings and ``serve()`` calls, 20-second medians of the raw
seconds spread by 15 % (standard deviation of the logarithm); divided by
a tight interpreter loop + large matmul + 10 MB gather (the first kernel
tried) by 4.5 %, by this kernel 2.6 %; on ``run_strategy`` 6.9 %, 2.6 % and
1.1 %.  The raw samples and the kernel's own seconds are printed next to
the scaled numbers; per-layer times are raw.

**What ``--seed`` draws.**  The training-seed set, model initialisation,
the request stream and ``APTConfig.seed`` (sampling, batch shuffling;
except on ``plan``, where it would also seed the partitioner).  Graph
topology, features and the partition are fixed per workload: the
heavy-tailed generators make edge counts differ by tens of percent between
seeds, which would be a different amount of work, not spread, and the
partitioner's own time changes by a factor of two with its seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib.util
import json
import math
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster import multi_machine_cluster, single_machine_cluster
from repro.config import APTConfig, ServeConfig, scaled_gpu_cache_bytes
from repro.core import APT
from repro.graph import (
    metis_like_partition,
    open_streaming_dataset,
    ps_like,
    streaming_partition,
    write_streaming_dataset,
)
from repro.models import GraphSAGE
from repro.serve import BatchingPolicy, LoadGenerator, ServeEngine


def _load_tracer():
    """``benchmarks/e2e/trace.py`` by path: a plain ``import trace`` would
    depend on sys.path order to win over the standard library's ``trace``."""
    spec = importlib.util.spec_from_file_location(
        "e2e_trace", pathlib.Path(__file__).with_name("trace.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


Tracer = _load_tracer()

STRATEGIES = ("gdp", "nfp", "snp", "dnp")
TIERS = ("gpu_cache", "peer_gpu", "local_cpu", "remote_cpu", "disk")
PHASES = ("sample", "load", "train", "shuffle")

#: from-scratch set-up passes per run (median → ``setup_s``): at least
#: the first number, then more while they have taken under ``SETUP_FILL_S``
#: seconds together (short set-ups are the noisy ones), at most the second
SETUP_PASSES = (3, 7)
SETUP_FILL_S = 2.0
#: repetitions below which a run never stops; the traced pass alternates
#: untraced/traced repetitions and needs two of each
MIN_REPS = {False: 3, True: 4}

#: Workload sizes.  Shapes (cluster, model depth, fanouts, policy) follow
#: ISSUE.md; sizes are scaled so one repetition takes 0.6-3 host seconds on
#: a 2-core box and a run of ``run_seconds`` holds six (training) to
#: twenty-odd (serve) of them: the medians need that many samples to sit
#: still on a machine whose speed changes every few seconds.
SIZES: Dict[str, Dict[str, dict]] = {
    "plan": {
        "full": dict(nodes=22_000, train_fraction=0.25, batch=512, hidden=32),
        "smoke": dict(nodes=3_000, train_fraction=0.5, batch=256, hidden=16),
    },
    "train": {
        "full": dict(nodes=12_000, train_fraction=0.25, batch=256, hidden=32,
                     epochs=2),
        "smoke": dict(nodes=3_000, train_fraction=0.4, batch=128, hidden=16,
                      epochs=2),
    },
    "serve": {
        "full": dict(nodes=12_000, feature_dim=64, requests=2_000, rate=3000.0),
        "smoke": dict(nodes=3_000, feature_dim=32, requests=400, rate=3000.0),
    },
    "train_ooc": {
        "full": dict(nodes=120_000, feature_dim=64, train_fraction=0.1,
                     batch=256, hidden=16, epochs=2),
        "smoke": dict(nodes=6_000, feature_dim=32, train_fraction=0.2,
                      batch=128, hidden=16, epochs=2),
    },
}


#: seed of graph topology and features (the dataset factories' own default)
TOPOLOGY_SEED = 1

#: the reference machine runs :func:`reference_seconds`' kernel in this time
REF_NOMINAL_S = 0.02

_REF_RNG = np.random.default_rng(0)
_REF_VECTORS = [_REF_RNG.random(64) for _ in range(64)]
_REF_PICK = _REF_RNG.integers(0, 64, 32)
_REF_IDS = _REF_RNG.integers(0, 20_000, 3_000)
_REF_ROWS = _REF_RNG.random((20_000, 64))
_REF_HIDDEN = _REF_RNG.random((300, 64))
_REF_WEIGHT = _REF_RNG.random((64, 32))


def _reference_kernel() -> None:
    """The program's own kind of work, fixed: thousands of short NumPy
    calls on tiny arrays (per-call overhead), then the routines sampling,
    gathers and a GraphSAGE layer are made of, on a few thousand elements."""
    for j in range(3_000):
        a = _REF_VECTORS[j & 63]
        b = a + a
        np.concatenate((b[_REF_PICK], a)).sum()
    ids = _REF_IDS
    for _ in range(30):
        unique, inverse = np.unique(ids, return_inverse=True)
        order = np.argsort(ids, kind="stable")
        np.cumsum(ids[order] & 7)
        np.searchsorted(unique, ids[:500])
        degree = np.bincount(inverse, minlength=len(unique))
        np.concatenate((np.repeat(unique[:300], 4), unique[:100]))
        h = np.maximum(_REF_HIDDEN @ _REF_WEIGHT, 0.0)
        h = h / (1.0 + np.abs(h))
        np.where(degree > 1)[0]
        _REF_ROWS[unique[:300]].mean(axis=0) + h.sum()


def reference_seconds(samples: int = 3) -> float:
    """Median seconds of the fixed reference kernel (see module docstring)."""

    def once() -> float:
        t0 = perf_counter()
        _reference_kernel()
        return perf_counter() - t0

    return statistics.median(once() for _ in range(samples))


class Reference:
    """Readings of the reference kernel; one taken less than ``FRESH_S``
    ago is reused, so back-to-back timed calls share the reading between
    them."""

    FRESH_S = 0.1

    def __init__(self) -> None:
        self.readings: List[float] = []
        self._at = -1.0

    def read(self) -> float:
        if not self.readings or perf_counter() - self._at > self.FRESH_S:
            self.readings.append(reference_seconds())
            self._at = perf_counter()
        return self.readings[-1]


def reseeded(dataset, seed: int):
    """``dataset`` with its training-seed set redrawn from ``seed``."""
    rng = np.random.default_rng([seed, 0x5EED])
    train_seeds = np.sort(
        rng.choice(dataset.num_nodes, size=len(dataset.train_seeds), replace=False)
    ).astype(np.int64)
    return dataclasses.replace(dataset, train_seeds=train_seeds)


def peak_rss_mb() -> float:
    """``VmHWM`` of this process in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _digest(obj) -> str:
    """Digest of a JSON-able structure; floats enter by their exact bits."""

    def canon(x):
        if isinstance(x, float):
            return x.hex()
        if isinstance(x, dict):
            return {k: canon(v) for k, v in sorted(x.items())}
        if isinstance(x, (list, tuple)):
            return [canon(v) for v in x]
        return x

    return hashlib.blake2b(
        json.dumps(canon(obj), sort_keys=True).encode(), digest_size=16
    ).hexdigest()


class Workload:
    """Base: bookkeeping shared by the five workloads."""

    name = ""
    size_key = ""
    #: what one attempted operation is
    op = ""
    #: remarks printed with the results
    notes: Tuple[str, ...] = ()

    def __init__(self, seed: int, smoke: bool, workdir: pathlib.Path):
        self.seed = int(seed)
        self.workdir = workdir
        self.sizes = dict(SIZES[self.size_key]["smoke" if smoke else "full"])
        self.tracer: Optional[Tracer] = None
        #: spans are recorded only while the current pass is traced
        self.tracing = False
        self.reference = Reference()

    # -- helpers -------------------------------------------------------- #
    def span(self, name: str):
        return self.tracer.span(name) if self.tracing else nullcontext()

    @contextmanager
    def untimed(self, rec: dict):
        """Per-repetition set-up; its seconds count towards ``setup_s``."""
        ref = self.reference.read()
        t0 = perf_counter()
        yield
        seconds = perf_counter() - t0
        rec["prepare_s"] += seconds
        rec["prepare_scaled_s"] += seconds * REF_NOMINAL_S / ref

    @contextmanager
    def timed(self, rec: dict, part: str, ops: int):
        """One timed call = ``ops`` attempted operations, bracketed by two
        readings of the reference kernel.  An exception fails them all and
        the repetition carries on."""
        rec["attempted"] += ops
        ref_before = self.reference.read()
        t0 = perf_counter()
        try:
            with self.span(f"run.{part}"):
                yield
        except Exception as exc:  # benchmark boundary: record and go on
            traceback.print_exc()
            rec["failed"] += ops
            rec["failures"].append(f"{part}: {type(exc).__name__}: {exc}")
        finally:
            seconds = (perf_counter() - t0) / self.divisor(part)
            ref = 0.5 * (ref_before + self.reference.read())
            rec["timed"][part] = seconds
            rec["scaled"][part] = seconds * REF_NOMINAL_S / ref

    def fail(self, rec: dict, message: str, ops: int = 1) -> None:
        rec["failed"] += ops
        rec["failures"].append(message)

    @staticmethod
    def tally(rec: dict, telemetry: dict, phases: Dict[str, float]) -> None:
        """Add what one returned report says about itself to the
        repetition's counts: telemetry counters, event count, simulated
        seconds per phase."""
        counts = rec["counts"]
        for key, value in telemetry["counters"].items():
            counts[key] += float(value)
        counts["obs.events"] += telemetry["num_events"]
        for phase, seconds in phases.items():
            counts[f"sim_phase_s.{phase}"] += seconds

    @staticmethod
    def tally_cache(rec: dict, apt: APT) -> None:
        """Add the lifetime requests of ``apt``'s sample cache."""
        stats = apt.sample_cache.stats
        rec["counts"]["sample_cache.requests"] += stats.requests
        rec["counts"]["sample_cache.served"] += stats.hits + stats.restrictions

    def divisor(self, part: str) -> float:
        """Turns a timed call's seconds into the reported unit (epochs per
        ``run_strategy`` call for the training workloads)."""
        return 1.0

    # -- to implement --------------------------------------------------- #
    def build(self) -> None:
        raise NotImplementedError

    def repeat(self, rec: dict) -> None:
        raise NotImplementedError

    def cleanup(self) -> None:
        """Release what ``build`` opened (files under the work dir)."""


# ---------------------------------------------------------------------- #
# plan
# ---------------------------------------------------------------------- #
class PlanWorkload(Workload):
    name = "plan"
    size_key = "plan"
    op = "planner call"

    def build(self) -> None:
        s = self.sizes
        with self.span("graph.generate"):
            self.ds = reseeded(
                ps_like(s["nodes"], train_fraction=s["train_fraction"],
                        seed=TOPOLOGY_SEED),
                self.seed,
            )
        self.cluster = multi_machine_cluster(
            2, 4, gpu_cache_bytes=scaled_gpu_cache_bytes(self.ds)
        )

    def repeat(self, rec: dict) -> None:
        s = self.sizes
        with self.untimed(rec):
            model = GraphSAGE(
                self.ds.feature_dim, s["hidden"], self.ds.num_classes, 3,
                seed=self.seed,
            )
            # APTConfig.seed is fixed here: it seeds the partitioner inside
            # prepare(), whose own time is 0.13 or 0.25 s depending on it
            # (setup_s two-valued), and plan(objective="cost") re-partitions
            # device subsets, so a precomputed partition cannot be handed in.
            apt = APT(
                self.ds, model, self.cluster,
                APTConfig(fanouts=(10, 10, 10), global_batch_size=s["batch"],
                          seed=TOPOLOGY_SEED),
            )
            apt.prepare()
        plans = {}
        with self.timed(rec, "plan", 1):
            plans["plan"] = apt.plan().plan
        with self.timed(rec, "plan_layerwise", 1):
            plans["plan_layerwise"] = apt.plan_layerwise().plan
        with self.timed(rec, "plan_cost", 1):
            plans["plan_cost"] = apt.plan(objective="cost").plan
        measured = {}
        with self.timed(rec, "sweep", 1):
            measured = apt.compare_all(num_epochs=1, numerics=False)

        sim = rec["sim"]
        candidates = 0
        for part, plan in plans.items():
            totals = {n: float(e.total) for n, e in plan.estimates.items()}
            candidates += len(totals)
            sim[f"{part}.chosen"] = plan.chosen
            sim[f"{part}.estimates"] = totals
            if plan.chosen not in totals or not all(
                math.isfinite(v) for v in totals.values()
            ):
                self.fail(rec, f"{part}: chosen {plan.chosen!r} not among "
                               f"finite estimates {totals}")
        rec["counts"]["core.plan_candidates"] = candidates
        if "plan" in plans and set(plans["plan"].estimates) != set(STRATEGIES):
            self.fail(rec, "plan() did not return the four strategy estimates")

        if len(measured) == len(STRATEGIES) and "plan" in plans:
            epoch = {n: float(r.epoch_seconds) for n, r in measured.items()}
            sim["measured_epoch_sim_s"] = epoch
            if not all(math.isfinite(v) and v > 0 for v in epoch.values()):
                self.fail(rec, f"sweep: non-finite simulated epochs {epoch}")
                return
            plan = plans["plan"]
            sim["work_sim_s"] = epoch[plan.chosen]
            sim["plan_regret"] = epoch[plan.chosen] / min(epoch.values())
            # Fig. 12 methodology: the cost model estimates only the
            # strategy-specific terms; the common training compute is
            # measured once on GDP and added to every estimate.
            common = float(measured["gdp"].breakdown["training"])
            errs = {
                n: abs(float(plan.estimates[n].total) + common - epoch[n]) / epoch[n]
                for n in STRATEGIES
            }
            sim["costmodel_rel_err"] = errs
            sim["costmodel_max_rel_err"] = max(errs.values())
            for report in measured.values():
                self.tally(rec, report.telemetry, report.result.epochs[-1].phases)
        self.tally_cache(rec, apt)


# ---------------------------------------------------------------------- #
# train_serial / train_process
# ---------------------------------------------------------------------- #
class TrainWorkload(Workload):
    size_key = "train"
    op = "epoch"
    backend = "serial"
    strategies: Tuple[str, ...] = STRATEGIES

    def build(self) -> None:
        s = self.sizes
        with self.span("graph.generate"):
            self.ds = reseeded(
                ps_like(s["nodes"], train_fraction=s["train_fraction"],
                        seed=TOPOLOGY_SEED),
                self.seed,
            )
        self.cluster = single_machine_cluster(
            8, gpu_cache_bytes=self.ds.feature_bytes * 0.02
        )
        # Partition once here and hand every repetition's APT the array:
        # prepare() then costs nothing and repetitions spend their time in
        # the timed region.  The partition belongs to the fixed topology:
        # the partitioner's own time doubles with some seeds.
        with self.span("graph.partition"):
            self.parts = metis_like_partition(
                self.ds.graph, self.cluster.num_devices, seed=TOPOLOGY_SEED
            )

    def config(self, **extra) -> APTConfig:
        return APTConfig(
            fanouts=(8, 8),
            global_batch_size=self.sizes["batch"],
            partition=self.parts,
            seed=self.seed,
            execution_backend=self.backend,
            # main + workers <= nproc
            num_workers=max(1, (os.cpu_count() or 2) - 1),
            prefetch_depth=1,
            **extra,
        )

    def divisor(self, part: str) -> float:
        return float(self.sizes["epochs"])

    def repeat(self, rec: dict) -> None:
        s = self.sizes
        epochs = s["epochs"]
        losses: Dict[str, List[float]] = {}
        for name in self.strategies:
            with self.untimed(rec):
                model = GraphSAGE(
                    self.ds.feature_dim, s["hidden"], self.ds.num_classes, 2,
                    seed=self.seed,
                )
                apt = APT(self.ds, model, self.cluster, self.config())
                apt.prepare()
            report = None
            with self.timed(rec, name, epochs):
                report = apt.run_strategy(name, epochs)
            if report is None:
                continue
            self.collect(rec, name, report, apt)
            losses[name] = rec["sim"][f"{name}.losses"]
            self.check_losses(rec, name, losses[name])
            self.check_report(rec, report)
        # Paper Fig. 6: all strategies apply the same sequence of updates.
        # Each strategy sums per-device losses in its own order, so the
        # lists agree to rounding (1e-9 relative), not to the last bit.
        reference = losses.get("gdp")
        for name, values in losses.items():
            if reference is None or not np.allclose(
                values, reference, rtol=1e-9, atol=0.0
            ):
                self.fail(rec, f"{name}: losses {values} differ from gdp "
                               f"{reference}")
        sim = rec["sim"]
        if len(losses) == len(self.strategies):
            sim["work_sim_s"] = sum(
                sim[f"{n}.epoch_sim_s"][-1] for n in self.strategies
            )

    def check_report(self, rec: dict, report) -> None:
        """Workload-specific checks on one returned report."""

    def check_losses(self, rec: dict, name: str, values: List[float]) -> None:
        bad = sum(1 for v in values if not math.isfinite(v))
        if bad:
            self.fail(rec, f"{name}: non-finite loss in {values}", ops=bad)
        elif values[-1] >= values[0]:
            self.fail(rec, f"{name}: last-epoch loss {values[-1]} not below "
                           f"first {values[0]}")

    def collect(self, rec: dict, name: str, report, apt) -> None:
        sim, counts = rec["sim"], rec["counts"]
        sim[f"{name}.losses"] = [float(e.mean_loss) for e in report.result.epochs]
        sim[f"{name}.epoch_sim_s"] = [
            float(e.wall_seconds) for e in report.result.epochs
        ]
        self.tally(rec, report.telemetry, report.result.epochs[-1].phases)
        self.tally_cache(rec, apt)
        for event in report.collector.events_of("pipeline"):
            counts["pipeline.epochs"] += 1
            counts["pipeline.utilization_sum"] += float(
                event.data["worker_utilization"]
            )


class TrainSerialWorkload(TrainWorkload):
    name = "train_serial"
    backend = "serial"


class TrainProcessWorkload(TrainWorkload):
    name = "train_process"
    backend = "process"


# ---------------------------------------------------------------------- #
# serve
# ---------------------------------------------------------------------- #
class ServeWorkload(Workload):
    name = "serve"
    size_key = "serve"
    op = "request"
    notes = [
        "serve: offline replay — arrivals are simulated timestamps, so on the "
        "host clock this is a closed loop of one caller",
    ]

    def build_apt(self, checkpoint_dir: Optional[str] = None) -> APT:
        model = GraphSAGE(
            self.ds.feature_dim, 32, self.ds.num_classes, 2, seed=self.seed
        )
        return APT(
            self.ds, model, self.cluster,
            APTConfig(fanouts=(8, 8), global_batch_size=256, seed=self.seed,
                      partition=self.parts, checkpoint_dir=checkpoint_dir),
        )

    def build(self) -> None:
        s = self.sizes
        with self.span("graph.generate"):
            self.ds = reseeded(
                ps_like(s["nodes"], feature_dim=s["feature_dim"],
                        seed=TOPOLOGY_SEED),
                self.seed,
            )
        self.cluster = single_machine_cluster(
            4, gpu_cache_bytes=self.ds.feature_bytes * 0.04
        )
        with self.span("graph.partition"):
            self.parts = metis_like_partition(
                self.ds.graph, self.cluster.num_devices, seed=TOPOLOGY_SEED
            )
        self.ckdir = self.workdir / "checkpoint"
        shutil.rmtree(self.ckdir, ignore_errors=True)
        self.build_apt(str(self.ckdir)).run_strategy("gdp", 1)
        span = s["requests"] / s["rate"]
        # drifting Zipf: the hot set moves twice over the session
        self.requests = LoadGenerator(
            self.ds.num_nodes, seed=self.seed, rate=s["rate"], zipf_a=1.4,
            drift_every=span / 3.0,
            drift_shift=max(self.ds.num_nodes // 5, 1),
        ).generate(s["requests"])

    def cleanup(self) -> None:
        shutil.rmtree(self.ckdir, ignore_errors=True)

    def repeat(self, rec: dict) -> None:
        policy = BatchingPolicy.parse("8:1")
        with self.untimed(rec):
            engine = ServeEngine(
                self.build_apt(),
                config=ServeConfig(
                    max_batch_size=policy.max_batch_size,
                    max_wait_s=policy.max_wait_s,
                    cache_policy="adaptive",
                    drift_window=4,
                ),
                checkpoint_dir=str(self.ckdir),
            )
        n = len(self.requests)
        report = None
        with self.timed(rec, "serve", n):
            report = engine.serve(self.requests)
        if report is None:
            return
        # exactly one in-range response per request
        answered = {}
        for r in report.responses:
            answered[r.request_id] = answered.get(r.request_id, 0) + 1
        wrong = sum(1 for q in self.requests if answered.get(q.request_id, 0) != 1)
        wrong += sum(
            1 for r in report.responses
            if not (0 <= r.prediction < self.ds.num_classes
                    and math.isfinite(r.latency_s) and r.latency_s >= 0.0)
        )
        if wrong or len(report.responses) != n:
            self.fail(rec, f"serve: {wrong} missing/duplicate/out-of-range "
                           f"responses of {n}", ops=max(wrong, 1))
        sim, counts = rec["sim"], rec["counts"]
        sim["work_sim_s"] = float(report.latency["p99"])
        sim["p50_sim_s"] = float(report.latency["p50"])
        sim["responses_digest"] = report.responses_digest
        sim["num_batches"] = int(report.num_batches)
        self.tally(rec, report.telemetry, engine.ctx.timeline.breakdown())
        self.tally_cache(rec, engine.apt)
        counts["serve.batches"] = report.num_batches
        counts["serve.cache_hit_ratio"] = float(report.cache["hit_fraction"])
        counts["serve.cache_refreshes"] = float(report.cache.get("refreshes", 0))
        counts["serve.replans"] = len(report.replans)


# ---------------------------------------------------------------------- #
# train_ooc
# ---------------------------------------------------------------------- #
class TrainOocWorkload(TrainWorkload):
    name = "train_ooc"
    size_key = "train_ooc"
    strategies = ("gdp",)

    def build(self) -> None:
        s = self.sizes
        self.dsdir = self.workdir / "dataset"
        shutil.rmtree(self.dsdir, ignore_errors=True)
        # The dataset is written by a process of its own, so the generator's
        # memory is not part of this workload's peak_rss_mb.
        with self.span("graph.io_write"):
            subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--write-dataset",
                 str(self.dsdir), "--seed", str(TOPOLOGY_SEED),
                 "--nodes", str(s["nodes"]), "--feature-dim", str(s["feature_dim"]),
                 "--train-fraction", str(s["train_fraction"])],
                check=True,
            )
        self.feature_file_mb = (
            (self.dsdir / "features.dat").stat().st_size / 2**20
        )
        with self.span("graph.io_open"):
            opened = open_streaming_dataset(self.dsdir)
        self.ds = reseeded(opened, self.seed)
        self.cluster = multi_machine_cluster(
            2, 2, gpu_cache_bytes=self.ds.feature_bytes * 0.05
        )
        with self.span("graph.partition"):
            self.parts = streaming_partition(
                self.ds.graph, self.cluster.num_devices, seed=TOPOLOGY_SEED
            )

    def cleanup(self) -> None:
        self.ds = None
        shutil.rmtree(self.dsdir, ignore_errors=True)

    def config(self, **extra) -> APTConfig:
        return super().config(disk_promote_mb=1, **extra)

    def check_report(self, rec: dict, report) -> None:
        counters = report.telemetry["counters"]
        disk = counters.get("load_rows.disk", 0.0)
        tiers = sum(counters.get(f"load_rows.{t}", 0.0) for t in TIERS)
        requested = counters.get("gather.requested_rows", 0.0)
        if disk <= 0:
            self.fail(rec, "train_ooc: no rows came from the disk tier")
        if tiers != requested:
            self.fail(rec, f"train_ooc: per-tier rows {tiers} != rows "
                           f"requested {requested}")
        rec["sim"]["feature_file_mb"] = self.feature_file_mb


WORKLOADS = {
    w.name: w
    for w in (PlanWorkload, TrainSerialWorkload, TrainProcessWorkload,
              ServeWorkload, TrainOocWorkload)
}


# ---------------------------------------------------------------------- #
# running one workload
# ---------------------------------------------------------------------- #
def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool,
    workdir: pathlib.Path, out: Optional[pathlib.Path],
) -> dict:
    wl: Workload = WORKLOADS[name](seed, smoke, workdir)
    tracer = Tracer() if trace else None
    wl.tracer = tracer

    def traced_pass(tag: str, fn, *args) -> None:
        """``fn(*args)`` with every layer wrapped, spans tagged ``tag``."""
        tracer.tag = tag
        tracer.install()
        wl.tracing = True
        try:
            fn(*args)
        finally:
            tracer.uninstall()
            wl.tracing = False

    # Every set-up pass and timed call sits between two readings of the
    # reference kernel, which turn raw seconds into seconds on the
    # reference machine.
    builds: List[dict] = []
    reps: List[dict] = []

    def setup_pass() -> None:
        gc.collect()
        ref_before = wl.reference.read()
        t0 = perf_counter()
        if trace:
            traced_pass(f"setup{len(builds)}", wl.build)
        else:
            wl.build()
        raw = perf_counter() - t0
        ref = 0.5 * (ref_before + wl.reference.read())
        builds.append({"raw_s": raw, "scaled_s": raw * REF_NOMINAL_S / ref})

    try:
        setup_pass()  # the one the repetitions run on
        min_reps = 2 if smoke else MIN_REPS[trace]
        loop_start = perf_counter()
        while len(reps) < min_reps or perf_counter() - loop_start < seconds:
            i = len(reps)
            # untraced, traced, traced, untraced, ...: drift over the run
            # hits both kinds alike
            traced = trace and i % 4 in (1, 2)
            rec = {"traced": traced, "prepare_s": 0.0, "prepare_scaled_s": 0.0,
                   "timed": {}, "scaled": {}, "sim": {},
                   "counts": defaultdict(float),
                   "attempted": 0, "failed": 0, "failures": []}
            gc.collect()
            if traced:
                traced_pass(f"rep{i}", wl.repeat, rec)
            else:
                wl.repeat(rec)
            reps.append(rec)
        # One set-up and the repetitions, as a user's process would hold
        # them; the further set-up passes below only time set-up (each
        # builds its dataset while the previous one is still referenced).
        rss_mb = peak_rss_mb()
        least, most = (1, 1) if smoke else SETUP_PASSES
        while len(builds) < least or (
            len(builds) < most and sum(b["raw_s"] for b in builds) < SETUP_FILL_S
        ):
            setup_pass()
    finally:
        wl.cleanup()

    # Every repetition did the same work from the same seed: simulated
    # results must repeat exactly.
    digests = [_digest(r["sim"]) for r in reps]
    failures = [f for r in reps for f in r["failures"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if len(set(digests)) != 1:
        failed += 1
        failures.append(f"simulated results differ between repetitions: {digests}")
    sim = reps[0]["sim"]
    if "work_sim_s" not in sim:
        failed += 1
        failures.append("no simulated result (a timed call failed)")

    untraced = [r for r in reps if not r["traced"]]
    parts = list(reps[0]["timed"])
    samples = {
        part: [r["timed"][part] for r in untraced if part in r["timed"]]
        for part in parts
    }
    scaled = {
        part: [r["scaled"][part] for r in untraced if part in r["scaled"]]
        for part in parts
    }
    end_to_end = {
        "setup_s": _median([b["scaled_s"] for b in builds])
        + _median([r["prepare_scaled_s"] for r in untraced]),
        "work_host_s": sum(_median(v) for v in scaled.values()),
        "work_sim_s": float(sim.get("work_sim_s", 0.0)),
        "peak_rss_mb": rss_mb,
    }

    result = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "trace": trace,
        "sizes": wl.sizes,
        "op": wl.op,
        "notes": list(wl.notes),
        "reps": len(reps),
        "traced_reps": len(reps) - len(untraced),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "timings": {
            "setup.build_s": [b["raw_s"] for b in builds],
            "setup.per_rep_s": [r["prepare_s"] for r in untraced],
            **{f"host.{part}_s": v for part, v in samples.items()},
            "reference_kernel_s": wl.reference.readings,
        },
        "raw": {
            "setup_s": _median([b["raw_s"] for b in builds])
            + _median([r["prepare_s"] for r in untraced]),
            "work_host_s": sum(_median(v) for v in samples.values()),
        },
        "deterministic": {
            "digest": digests[0],
            **{k: sim[k] for k in ("plan_regret", "costmodel_max_rel_err",
                                   "responses_digest") if k in sim},
        },
        "end_to_end": end_to_end,
    }
    if trace:
        result["per_layer"] = per_layer_metrics(wl, tracer, reps, samples)
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
            result["trace_files"] = list(tracer.write(str(out / name), name))
    return result


def per_layer_metrics(wl: Workload, tracer: Tracer, reps: List[dict],
                      samples: Dict[str, List[float]]) -> Dict[str, float]:
    """The per-layer table: span self times (median over traced passes),
    counts taken at the span boundaries, and counts the program reports
    about itself (telemetry counters, cache stats, reports) from the last
    traced repetition.  Layers a workload does not exercise read 0."""
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    counts = traced[-1]["counts"]
    sim = traced[-1]["sim"]
    c = lambda key: float(counts.get(key, 0.0))  # noqa: E731
    t = tracer
    m: Dict[str, float] = {}

    m["graph.partition_host_s"] = t.median(["graph.partition"], "total_s")
    m["graph.io_open_host_s"] = t.median(["graph.io_open"], "total_s")
    m["graph.io_write_host_s"] = t.median(["graph.io_write"], "total_s")
    m["graph.generate_host_s"] = t.median(["graph.generate"], "total_s")

    m["sampling.sample_self_s"] = t.median(["sampling.sample", "sampling.cache"])
    m["sampling.sample_calls"] = t.count("sample_calls")
    m["sampling.sampled_edges"] = c("sampled_edges")
    m["sampling.cache_hit_ratio"] = _ratio(
        c("sample_cache.served"), c("sample_cache.requests")
    )

    m["featurestore.read_self_s"] = t.median(["featurestore.read"])
    m["featurestore.charge_load_self_s"] = t.median(["featurestore.charge_load"])
    rows = {tier: t.count(f"rows.{tier}") for tier in TIERS}
    m["featurestore.rows_requested"] = sum(rows.values())
    for tier in TIERS:
        m[f"featurestore.rows.{tier}"] = rows[tier]
    m["featurestore.gpu_hit_ratio"] = _ratio(rows["gpu_cache"], sum(rows.values()))
    m["featurestore.disk_ranged_reads"] = t.count("disk_ranged_reads")
    m["featurestore.disk_bytes"] = t.count("disk_bytes")
    m["featurestore.promotions"] = t.count("promotions")
    m["featurestore.gather_dedup_ratio"] = _ratio(
        c("gather.unique_rows"), c("gather.requested_rows")
    )

    m["tensor.forward_self_s"] = t.median(["tensor.forward"])
    m["tensor.backward_self_s"] = t.median(["tensor.backward"])
    m["tensor.optim_self_s"] = t.median(["tensor.optim"])
    m["tensor.arena_hit_ratio"] = _ratio(
        c("arena.hits"), c("arena.hits") + c("arena.misses")
    )

    comm = ["cluster.alltoall", "cluster.scatter_reduce", "cluster.allreduce",
            "cluster.allgather"]
    m["cluster.comm_self_s"] = t.median(comm)
    for name in comm:
        m[f"cluster.comm_calls.{name.split('.')[1]}"] = t.median([name], "calls")
    m["cluster.comm_bytes"] = c("comm.pairwise_bytes") + c("comm.allreduce_bytes")
    for phase in PHASES:
        m[f"cluster.sim_phase_s.{phase}"] = c(f"sim_phase_s.{phase}")

    for name in STRATEGIES:
        m[f"engine.{name}.epoch_host_s"] = _median(samples.get(name, []))
        sims = sim.get(f"{name}.epoch_sim_s") or [
            sim.get("measured_epoch_sim_s", {}).get(name, 0.0)
        ]
        m[f"engine.{name}.epoch_sim_s"] = float(sims[-1])
    batch = sorted(t.durations("engine.batch"))
    m["engine.batch_host_s.p50"] = float(np.percentile(batch, 50)) if batch else 0.0
    m["engine.batch_host_s.p95"] = float(np.percentile(batch, 95)) if batch else 0.0
    m["engine.batch_self_s"] = t.median(["engine.batch"])
    m["engine.plan_batch_self_s"] = t.median(["engine.plan_batch"])
    m["engine.prepare_self_s"] = t.median(["engine.prepare"])

    m["core.plan_host_s"] = _median(samples.get("plan", []))
    m["core.plan_layerwise_host_s"] = _median(samples.get("plan_layerwise", []))
    m["core.plan_cost_host_s"] = _median(samples.get("plan_cost", []))
    m["core.sweep_host_s"] = _median(samples.get("sweep", []))
    m["core.dryrun_self_s"] = t.median(["core.dryrun"])
    m["core.costmodel_self_s"] = t.median(["core.costmodel"])
    m["core.planner_search_self_s"] = t.median(["core.planner_search"])
    m["core.plan_candidates"] = c("core.plan_candidates")
    m["core.plan_regret"] = float(sim.get("plan_regret", 0.0))
    m["core.costmodel_max_rel_err"] = float(sim.get("costmodel_max_rel_err", 0.0))
    for name in STRATEGIES:
        m[f"core.costmodel_rel_err.{name}"] = float(
            sim.get("costmodel_rel_err", {}).get(name, 0.0)
        )
    m["core.checkpoint_save_s"] = t.median(["core.checkpoint_save"], "total_s")
    m["core.checkpoint_load_s"] = t.median(["core.checkpoint_load"], "total_s")

    m["parallel.pool_start_s"] = t.median(["parallel.pool_start"])
    m["parallel.shm_export_s"] = t.median(["parallel.shm_export"], "total_s")
    m["parallel.wait_self_s"] = t.median(["parallel.wait"])
    m["parallel.take_gather_self_s"] = t.median(["parallel.take_gather"])
    m["parallel.close_s"] = t.median(["parallel.close"], "total_s")
    pipelined = c("parallel.prefetch_hits") + c("parallel.sync_batches") + c(
        "parallel.unplanned_batches"
    )
    m["parallel.prefetch_hit_ratio"] = _ratio(c("parallel.prefetch_hits"), pipelined)
    m["parallel.worker_busy_s"] = c("parallel.worker_busy_seconds")
    m["parallel.worker_utilization"] = _ratio(
        c("pipeline.utilization_sum"), c("pipeline.epochs")
    )
    m["parallel.sync_batches"] = c("parallel.sync_batches")
    m["parallel.retries"] = c("parallel.task_retries")

    m["serve.engine_init_s"] = t.median(["serve.engine_init"], "total_s")
    m["serve.form_batches_self_s"] = t.median(["serve.form_batches"])
    m["serve.infer_self_s"] = t.median(["serve.infer"])
    m["serve.batches"] = c("serve.batches")
    m["serve.cache_hit_ratio"] = c("serve.cache_hit_ratio")
    m["serve.cache_refreshes"] = c("serve.cache_refreshes")
    m["serve.replans"] = c("serve.replans")
    serve_host = _median(samples.get("serve", []))
    m["serve.req_per_host_s"] = _ratio(float(wl.sizes.get("requests", 0)), serve_host)
    is_serve = wl.name == "serve"
    m["serve.p50_sim_ms"] = float(sim.get("p50_sim_s", 0.0)) * 1e3
    m["serve.p99_sim_ms"] = float(sim["work_sim_s"]) * 1e3 if is_serve else 0.0

    m["obs.events"] = c("obs.events")
    timed_of = lambda rs: _median([sum(r["scaled"].values()) for r in rs])  # noqa: E731
    m["trace.overhead_share"] = _ratio(timed_of(traced), timed_of(untraced)) - 1.0
    # The same overhead from first principles (the difference above needs
    # many repetitions to resolve a few percent): spans recorded in traced
    # repetitions x the cost of one span / their timed seconds.
    rep_spans = sum(1 for s in t.spans if s[4].startswith("rep"))
    traced_s = sum(sum(r["timed"].values()) * wl.divisor("") for r in traced)
    m["trace.span_cost_share"] = _ratio(rep_spans * t.span_cost_seconds(), traced_s)
    m["trace.unattributed_share"] = t.unattributed_share()
    m["trace.spans"] = float(len(t.spans))
    return m


# ---------------------------------------------------------------------- #
# entry points of the child processes
# ---------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-dataset", type=pathlib.Path, default=None)
    parser.add_argument("--nodes", type=int)
    parser.add_argument("--feature-dim", type=int)
    parser.add_argument("--train-fraction", type=float)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", type=pathlib.Path)
    parser.add_argument("--out", type=pathlib.Path, default=None)
    parser.add_argument("--result", type=pathlib.Path)
    args = parser.parse_args(argv)

    if args.write_dataset is not None:
        write_streaming_dataset(
            args.write_dataset, num_nodes=args.nodes,
            feature_dim=args.feature_dim, num_classes=8, seed=args.seed,
            train_fraction=args.train_fraction,
        )
        return 0

    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
        args.workdir, args.out,
    )
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
