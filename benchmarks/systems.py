"""The system extensions' claims: host-clock backends, fault tolerance,
elasticity, heterogeneity, per-layer hybrids, out-of-core, serving.

Host-clock fields (seconds, speedup, recovery overhead, wall, RSS) vary run
to run; every other field is deterministic under the fixed seeds.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import resource
import tempfile
import time
import timeit
from typing import List

import numpy as np

from figures import (
    BATCH_PER_GPU,
    STRATEGIES,
    Case,
    build_apt,
    cluster_for,
    dataset,
    make_model,
    shared_sample_cache,
)
from repro.cluster import multi_machine_cluster, parse_cluster_spec
from repro.cluster.faults import FaultEvent, FaultSchedule
from repro.cluster.spec import LinkSpec, single_machine_cluster
from repro.config import PAPER_CACHE_GB, APTConfig, ServeConfig, scaled_gpu_cache_bytes
from repro.core import APT
from repro.core.checkpoint import CheckpointManager
from repro.featurestore import Tier
from repro.graph import (
    fs_like,
    metis_like_partition,
    open_streaming_dataset,
    ps_like,
    write_streaming_dataset,
)
from repro.graph.datasets import GraphDataset
from repro.models import GraphSAGE
from repro.parallel import FaultPolicy, HostFaultSchedule
from repro.serve import BatchingPolicy, LoadGenerator, ServeEngine
from repro.tensor import Tensor
from repro.tensor.sparse import (
    SegmentIndex,
    _rowsum_csr_direct,
    _rowsum_csr_public,
    gather_segment_sum,
)

#: the committed per-op seconds ``parallel``'s check compares against;
#: regenerate with ``cases.py --case parallel --output <this path>``
PARALLEL_BASELINE = pathlib.Path(__file__).resolve().parent / "parallel_baseline.json"


class Parallel(Case):
    """Host wall-clock of the execution backends.

    Runs the same simulated training workloads through the serial backend
    and the forked process-worker backend and records honest host
    seconds for both, plus a pipeline on/off ablation.  The two backends are
    bit-identical in simulation (losses, parameters, Timeline — pinned by
    ``tests/parallel``); this case only measures the host time the backend
    is allowed to change.

    Both backends do the same sampling work — one union sample per global
    batch, restricted per device (``repro.sampling.cache.
    sample_device_batches``) — so the process backend's only lever is
    **overlap**: with ``prefetch_depth > 0``, batch ``k+1`` is sampled in
    workers while batch ``k`` runs numerics on the main process, which pays
    only when the host has cores to spare.

    The check compares each workload's process-backend seconds against
    ``parallel_baseline.json`` (fails past ``THRESHOLD``) and requires the
    showcase to keep a serial/process speedup of at least
    ``MIN_SHOWCASE_SPEEDUP`` on the current machine: a floor under the
    process backend's overhead, not a promise that it wins.  Every op is
    timed as a median over ``PAIRS`` runs — alternating serial / process
    pairs, or process runs alone for the pipeline-off arm — so one slow
    stretch of the host cannot fail either gate.  ``--quick`` keeps every
    workload shape and run count and shrinks only epoch counts; per-epoch
    seconds are what gets recorded, so quick numbers stay comparable with a
    full-run baseline.
    """

    name = "parallel"
    STRATEGY_GPUS, STRATEGY_BATCH, STRATEGY_FANOUTS = 8, 1024, (10, 10)
    SHOWCASE_GPUS, SHOWCASE_BATCH, SHOWCASE_FANOUTS = 16, 2048, (10, 10, 10)
    #: regression factor against the baseline that fails the check
    THRESHOLD = 2.0
    #: ops faster than this are timing noise; ratios compare against the floor
    FLOOR_SECONDS = 1e-2
    #: workload whose serial-vs-process speedup the check enforces
    SHOWCASE_OP = "gdp_timing_pipelined"
    #: serial/process speedup floor of the showcase.  With both backends
    #: sampling each global batch once, the process backend has no spare
    #: core to overlap on a 2-vCPU host and still moves 16 device
    #: minibatches (about 2.6 MB) per global batch to the training process:
    #: six ``--quick`` runs there measured 0.45-0.59x, and a process backend
    #: a quarter slower than the slowest of those fails.
    MIN_SHOWCASE_SPEEDUP = 0.35
    #: runs per op: serial / process pairs, run in alternating order, whose
    #: medians time the showcase and every strategy (and process runs alone
    #: for the pipeline-off arm)
    PAIRS = 3

    @staticmethod
    def _build(ds, num_gpus, batch, fanouts, backend, prefetch_depth=2):
        cluster = single_machine_cluster(
            num_gpus=num_gpus, gpu_cache_bytes=ds.feature_bytes * 0.02
        )
        model = GraphSAGE(ds.feature_dim, 32, ds.num_classes, len(fanouts), seed=1)
        apt = APT(ds, model, cluster, APTConfig(
            fanouts=fanouts,
            global_batch_size=batch,
            seed=0,
            execution_backend=backend,
            num_workers=2,
            prefetch_depth=prefetch_depth,
        ))
        apt.prepare()
        return apt

    @staticmethod
    def _timed(build, strategy, epochs, numerics):
        """Host seconds per epoch of one run and its losses (pool startup
        amortized inside the run; a fresh APT, so the sample cache is
        cold)."""
        apt = build()
        t0 = time.perf_counter()
        report = apt.run_strategy(strategy, epochs, numerics=numerics)
        seconds = (time.perf_counter() - t0) / epochs
        return seconds, [e.mean_loss for e in report.result.epochs]

    def _paired(self, shape, strategy, epochs, numerics, prefetch_depth=2) -> dict:
        """The op of ``PAIRS`` serial / process runs, the side that runs
        first alternating: median seconds per epoch of each backend and the
        median per-pair speedup.  With numerics on, every pair's process
        losses must equal its serial ones."""
        pairs = []
        for k in range(self.PAIRS):
            runs = {
                backend: self._timed(
                    lambda: self._build(*shape, backend, prefetch_depth),
                    strategy, epochs, numerics,
                )
                for backend in ("serial", "process")[:: 1 if k % 2 == 0 else -1]
            }
            # bit-identity is part of the contract
            assert not numerics or runs["serial"][1] == runs["process"][1], (
                f"{strategy}: process losses diverged from serial"
            )
            pairs.append((runs["serial"][0], runs["process"][0]))
        return self._op(
            float(np.median([p for _, p in pairs])),
            float(np.median([s for s, _ in pairs])),
            speedup=float(np.median([s / p for s, p in pairs])),
            **self._meta(shape, numerics, epochs, prefetch_depth),
            pairs=[list(pair) for pair in pairs],
        )

    @staticmethod
    def _meta(shape, numerics, epochs, prefetch_depth) -> dict:
        _, gpus, batch, fanouts = shape
        return dict(gpus=gpus, batch=batch, fanouts=list(fanouts),
                    numerics=numerics, epochs=epochs, prefetch_depth=prefetch_depth)

    @staticmethod
    def _op(process_seconds, serial_seconds, speedup=None, **meta) -> dict:
        if speedup is None:
            speedup = (
                serial_seconds / process_seconds if process_seconds > 0 else float("inf")
            )
        return {
            "seconds": process_seconds,
            "serial_seconds": serial_seconds,
            "speedup": speedup,
            "meta": meta,
        }

    def run(self, quick: bool) -> dict:
        #: a half-train-fraction ps_like graph: 11 global batches of 2048 per
        #: epoch, hub-heavy frontiers — enough sampling work per epoch that
        #: pool startup and the census-primed epoch 0 stop dominating
        ds = ps_like(train_fraction=0.5)
        strategy_epochs = 2 if quick else 3
        epochs = 4 if quick else 10
        ops = {}
        # Showcase first: the numerics strategy runs churn a lot of transient
        # allocations, and running them first visibly slows the later
        # process-backend arms on small hosts.  Sampling-dominated and
        # timing-only.  The pipelined arm uses ``prefetch_depth=1`` — the
        # sweet spot on few-core hosts, where deeper queues only add
        # time-slicing contention.
        shape = (ds, self.SHOWCASE_GPUS, self.SHOWCASE_BATCH, self.SHOWCASE_FANOUTS)
        ops["gdp_timing_pipelined"] = self._paired(
            shape, "gdp", epochs, False, prefetch_depth=1
        )
        t_proc = float(np.median([
            self._timed(lambda: self._build(*shape, "process", prefetch_depth=0),
                        "gdp", epochs, False)[0]
            for _ in range(self.PAIRS)
        ]))
        ops["gdp_timing_pipeline_off"] = self._op(
            t_proc, ops["gdp_timing_pipelined"]["serial_seconds"],
            **self._meta(shape, False, epochs, 0),
        )
        # Serial vs process across the paper's four strategies (full numerics).
        shape = (ds, self.STRATEGY_GPUS, self.STRATEGY_BATCH, self.STRATEGY_FANOUTS)
        for strategy in STRATEGIES:
            ops[strategy] = self._paired(shape, strategy, strategy_epochs, True)
        return {
            "schema": 1,
            "strategy_epochs": strategy_epochs,
            "showcase_epochs": epochs,
            "ops": ops,
        }

    def table(self, result: dict) -> List[str]:
        return ["per-epoch host seconds, process backend vs serial"] + [
            f"  {name:<26} {op['seconds']:7.3f}s/epoch  serial "
            f"{op['serial_seconds']:7.3f}s  {op['speedup']:5.2f}x"
            for name, op in result["ops"].items()
        ]

    def check(self, result: dict) -> None:
        assert PARALLEL_BASELINE.exists(), f"no baseline at {PARALLEL_BASELINE}"
        baseline = json.loads(PARALLEL_BASELINE.read_text())["parallel"]["ops"]
        ops = result["ops"]
        missing = sorted(set(baseline) - set(ops))
        assert not missing, f"ops missing from this run: {missing}"
        ratios = {
            name: max(ops[name]["seconds"], self.FLOOR_SECONDS)
            / max(base["seconds"], self.FLOOR_SECONDS)
            for name, base in baseline.items()
        }
        regressed = {n: round(r, 2) for n, r in ratios.items() if r > self.THRESHOLD}
        assert not regressed, (
            f"slower than {self.THRESHOLD}x the baseline seconds: {regressed}"
        )
        speedup = ops[self.SHOWCASE_OP]["speedup"]
        assert not speedup < self.MIN_SHOWCASE_SPEEDUP, (
            f"{self.SHOWCASE_OP}: speedup {speedup:.2f}x below the "
            f"{self.MIN_SHOWCASE_SPEEDUP:.2f}x floor"
        )


class FaultTolerance(Case):
    """Recovery latency and overhead of the fault-tolerance layer.

    Measures, on the process execution backend (DESIGN.md §5.11):

    * **chaos overhead** — host seconds of a clean run vs the same run under
      a seeded ``HostFaultSchedule`` (worker killed, worker hung past the
      deadline, both in one run), with the results
      asserted bit-identical in both directions;
    * **recovery latency** — per-fault-kind host seconds added by detection
      plus retry (measured as single-fault runs against the clean run);
    * **checkpoint cost** — seconds to write and to load one epoch
      checkpoint, and the end-to-end overhead of checkpointing every epoch;
    * **resume correctness** — a run checkpointed at the midpoint and resumed
      in a fresh APT instance must reproduce the uninterrupted run's losses.

    The check fails if any run diverged from the clean run, if a scheduled
    fault never fired, or if a chaos run's recovery overhead exceeds
    ``MAX_OVERHEAD_S``.
    """

    name = "fault_tolerance"
    MAX_OVERHEAD_S = 30.0
    #: short deadline so hang recovery is measured in fractions of a second
    POLICY = dict(
        task_deadline_s=1.0,
        max_retries=3,
        failure_budget=32,
        backoff_base_s=0.01,
        backoff_max_s=0.1,
        drain_timeout_s=2.0,
    )
    SCHEDULES = {
        "kill": "kill@1",
        "hang": "hang@2:30.0",
        "mixed": "kill@0;hang@2:30.0",
    }

    def _run(self, ds, epochs, *, chaos=None, checkpoint_dir=None, resume=None):
        cluster = single_machine_cluster(
            num_gpus=8, gpu_cache_bytes=ds.feature_bytes * 0.02
        )
        model = GraphSAGE(ds.feature_dim, 32, ds.num_classes, 2, seed=1)
        # batch 256 over a 10% train fraction gives several worker tasks per
        # epoch, so every scheduled task index actually exists
        apt = APT(ds, model, cluster, APTConfig(
            fanouts=(10, 10),
            global_batch_size=256,
            seed=0,
            execution_backend="process",
            num_workers=2,
            prefetch_depth=2,
            fault_policy=FaultPolicy(**self.POLICY),
            host_chaos=chaos,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=1,
        ))
        apt.prepare()
        start = time.perf_counter()
        report = apt.run_strategy("dnp", epochs, resume=resume)
        wall = time.perf_counter() - start
        return wall, [e.mean_loss for e in report.result.epochs], report

    def run(self, quick: bool) -> dict:
        epochs = 2 if quick else 6
        ds = ps_like(6_000 if quick else 12_000)
        results: dict = {"quick": quick, "epochs": epochs}

        # Clean vs chaos wall seconds; identical losses both ways.
        clean_wall, clean_losses, _ = self._run(ds, epochs)
        results["clean"] = {"seconds": clean_wall, "losses": clean_losses}
        for name, grammar in self.SCHEDULES.items():
            chaos = HostFaultSchedule.parse(grammar)
            wall, losses, report = self._run(ds, epochs, chaos=chaos)
            results[f"chaos_{name}"] = {
                "schedule": grammar,
                "seconds": wall,
                "recovery_overhead_seconds": wall - clean_wall,
                "bit_identical": losses == clean_losses,
                "faults_fired": report.collector.counter_total("parallel.chaos_injected"),
                "retries": report.collector.counter_total("parallel.task_retries"),
            }

        # Checkpoint write/load latency and every-epoch overhead.
        with tempfile.TemporaryDirectory(prefix="bench-ck-") as ckdir:
            wall, losses, _ = self._run(ds, epochs, checkpoint_dir=ckdir)
            manager = CheckpointManager(ckdir)
            t0 = time.perf_counter()
            ck = manager.load()
            load_seconds = time.perf_counter() - t0
            results["checkpoint"] = {
                "seconds": wall,
                "overhead_seconds": wall - clean_wall,
                "overhead_per_epoch_seconds": (wall - clean_wall) / epochs,
                "load_seconds": load_seconds,
                "checkpoint_bytes": (
                    pathlib.Path(ck.path, "state.pkl").stat().st_size
                    + pathlib.Path(ck.path, "manifest.json").stat().st_size
                ),
                "bit_identical": losses == clean_losses,
            }

        # Interrupt-and-resume: first half checkpointed, second half resumed
        # in a fresh APT; the stitched run must reproduce the clean losses.
        half = max(epochs // 2, 1)
        with tempfile.TemporaryDirectory(prefix="bench-ck-") as ckdir:
            self._run(ds, half, checkpoint_dir=ckdir)
            t0 = time.perf_counter()
            _, losses, _ = self._run(ds, epochs, resume=ckdir)
            results["resume"] = {
                "resumed_epochs": epochs - half,
                "seconds": time.perf_counter() - t0,
                "bit_identical": losses == clean_losses,
            }
        return results

    def table(self, result: dict) -> List[str]:
        lines = ["chaos recovery:"]
        for name in self.SCHEDULES:
            e = result[f"chaos_{name}"]
            lines.append(
                f"  {name:8s} {e['seconds']:7.2f}s "
                f"(+{e['recovery_overhead_seconds']:5.2f}s vs clean, "
                f"{e['faults_fired']:.0f} fault(s) fired, identical={e['bit_identical']})"
            )
        ck, res = result["checkpoint"], result["resume"]
        return lines + [
            "checkpoint/resume:",
            f"  checkpointing every epoch: +{ck['overhead_seconds']:.2f}s total, "
            f"{ck['checkpoint_bytes'] / 1e6:.2f} MB/checkpoint, "
            f"load {ck['load_seconds'] * 1e3:.1f} ms",
            f"  resume of epochs {result['epochs'] - res['resumed_epochs']}.."
            f"{result['epochs']}: {res['seconds']:.2f}s, "
            f"identical={res['bit_identical']}",
        ]

    def check(self, result: dict) -> None:
        for name, entry in result.items():
            if not isinstance(entry, dict) or "bit_identical" not in entry:
                continue
            assert entry["bit_identical"], f"{name}: results diverged from the clean run"
            assert not entry.get("faults_fired") == 0.0, (
                f"{name}: no fault fired — schedule indices out of range?"
            )
            overhead = entry.get("recovery_overhead_seconds")
            assert not (overhead is not None and overhead > self.MAX_OVERHEAD_S), (
                f"{name}: recovery overhead {overhead:.1f}s > {self.MAX_OVERHEAD_S:.1f}s"
            )


class SegmentShapes(Case):
    """Shape -> path table behind ``repro.tensor.sparse._segment_sum_array``
    and the fused ``gather_segment_sum``.

    Times every candidate segment-sum kernel at the operand shapes the
    end-to-end workloads actually produce (recorded from ``benchmarks/e2e``:
    ``serve`` aggregates 1-36 rows of 32/64 columns, a per-device training
    block 100-900 rows of 32/128, GAT scores ``E x heads``) plus the
    200,000-row shape the earlier thresholds were tuned on, and checks each
    one bit-identical to sequential ``np.add.at``.  DESIGN.md 5.9 quotes
    this table; its timings gate nothing.  The check: at every shape the
    fused gather→sum node equals the composed chain (gather the messages,
    then ``np.add.at``) bit for bit, forward and ``x.grad`` — deterministic,
    so it holds in CI.

    Columns (best-of-7 microseconds per call, validated ids in every one):

    ``add.at``    ``np.add.at`` on the n-D operand — the reference
    ``colwise``   one 1-D ``np.add.at`` per column on an F-order copy (the
                  few-column path this table retired)
    ``public``    ``scipy.sparse.csr_matrix((ones, cols, indptr)) @ data``
    ``direct``    ``csr_matvecs`` on the same three arrays, index built per call
    ``shared``    the same, index built once and reused (``Block.dst_index()``)
    ``gather+direct``  the composed aggregation: gather the rows-many
                  messages out of a ``rows/2``-row table, then ``direct``
    ``fused``     ``gather_segment_sum`` forward on the same table and ids,
                  index built per call (its ``np.add.at`` path under the cutoff)
    """

    name = "segment_shapes"
    #: (rows, trailing shape, where the shape comes from)
    SHAPES = [
        (8, (64,), "serve, 512 elements"),
        (16, (64,), "serve, at the cutoff"),
        (24, (64,), "serve"),
        (64, (32,), "snp partial"),
        (400, (32,), "train block, hidden 32"),
        (500, (128,), "train block, features"),
        (150, (4,), "GAT scores, 4 heads"),
        (900, (4,), "GAT scores, 4 heads"),
        (900, (4, 8), "GAT messages"),
        (200_000, (4,), "former tuning shape, softmax"),
        (200_000, (32,), "former tuning shape"),
    ]
    COLUMNS = (
        "add.at", "colwise", "public", "direct", "shared", "gather+direct", "fused"
    )

    @staticmethod
    def add_at(data, ids, n):
        out = np.zeros((n,) + data.shape[1:], dtype=data.dtype)
        np.add.at(out, SegmentIndex(ids, n).ids, data)
        return out

    @staticmethod
    def colwise(data, ids, n):
        ids = SegmentIndex(ids, n).ids
        flat = np.asfortranarray(data.reshape(len(ids), -1))
        out = np.zeros((n, flat.shape[1]), dtype=data.dtype)
        buf = np.zeros(n, dtype=data.dtype)
        for j in range(flat.shape[1]):
            buf[:] = 0
            np.add.at(buf, ids, flat[:, j])
            out[:, j] = buf
        return out

    @staticmethod
    def public(data, ids, n):
        index = SegmentIndex(ids, n)
        return _rowsum_csr_public(index.indptr, index.cols, data.reshape(len(ids), -1))

    @staticmethod
    def direct(data, ids, n):
        index = SegmentIndex(ids, n)
        return _rowsum_csr_direct(index.indptr, index.cols, data.reshape(len(ids), -1))

    @classmethod
    def gather_direct(cls, table, src, ids, n):
        return cls.direct(table[SegmentIndex(src, len(table)).ids], ids, n)

    @staticmethod
    def fused(table, src, ids, n):
        return gather_segment_sum(Tensor(table), src, ids, n).data

    @classmethod
    def fused_bitwise(cls, table, src, ids, n, g) -> bool:
        """Forward and ``x.grad`` of the fused node equal the composed chain."""
        x = Tensor(table.copy(), requires_grad=True)
        out = gather_segment_sum(x, src, ids, n)
        out.backward(g)
        grad_ref = np.zeros_like(table)
        np.add.at(grad_ref, src, g[ids])
        return bool(
            np.array_equal(out.data, cls.add_at(table[src], ids, n))
            and np.array_equal(x.grad, grad_ref)
        )

    @staticmethod
    def best_us(fn, *args) -> float:
        once = max(timeit.timeit(lambda: fn(*args), number=1), 1e-7)
        number = int(min(max(2e-3 / once, 1), 2000))
        best = min(timeit.repeat(lambda: fn(*args), number=number, repeat=7))
        return best / number * 1e6

    def run(self, quick: bool) -> dict:
        rng = np.random.default_rng(0)
        fused_rng = np.random.default_rng(1)  # keeps the earlier columns' data
        kernels = (self.add_at, self.colwise, self.public, self.direct)
        rows_out = []
        for rows, trailing, source in self.SHAPES:
            n = max(1, rows // 4)
            data = rng.normal(size=(rows,) + trailing)
            for label in ("sorted", "unsorted"):
                ids = rng.integers(0, n, rows)
                if label == "sorted":
                    ids.sort()
                ref = self.add_at(data, ids, n)
                for fn in kernels[1:]:
                    assert np.array_equal(fn(data, ids, n).reshape(ref.shape), ref), fn
                index = SegmentIndex(ids, n)
                flat = data.reshape(rows, -1)
                cells = [self.best_us(fn, data, ids, n) for fn in kernels]
                cells.append(
                    self.best_us(_rowsum_csr_direct, index.indptr, index.cols, flat)
                )
                table = data[: max(1, rows // 2)]
                src = fused_rng.integers(0, len(table), rows)
                gathered = (table, src, ids, n)
                cells += [
                    self.best_us(fn, *gathered) for fn in (self.gather_direct, self.fused)
                ]
                g = fused_rng.normal(size=(n,) + trailing)
                rows_out.append({
                    "shape": "x".join(str(v) for v in (rows,) + trailing),
                    "ids": label,
                    "us": dict(zip(self.COLUMNS, cells)),
                    "fused_bitwise": self.fused_bitwise(*gathered, g),
                    "source": source,
                })
        return {"rows": rows_out}

    def table(self, result: dict) -> List[str]:
        header = "".join(f"{c:>14}" for c in self.COLUMNS)
        return [f"{'shape':<14}{'ids':<10}{header}  source"] + [
            f"{r['shape']:<14}{r['ids']:<10}"
            + "".join(f"{r['us'][c]:>14.1f}" for c in self.COLUMNS)
            + f"  {r['source']}"
            for r in result["rows"]
        ]

    def check(self, result: dict) -> None:
        differ = [
            f"{r['shape']} {r['ids']}" for r in result["rows"] if not r["fused_bitwise"]
        ]
        assert not differ, f"fused gather_segment_sum != composed chain at {differ}"


class Elastic(Case):
    """Elastic adaptivity — surviving (and exploiting) cluster membership changes.

    The scenario (DESIGN.md §5.16): training starts on two machines joined by
    a congested Ethernet (10% of nominal bandwidth), where the planner picks
    DNP — replicating features beats shipping them across the slow link.  At
    the fault epoch one machine is reclaimed (``host_leave``, the spot-instance
    story).  The elastic engine quiesces the backend, checkpoints, re-partitions
    for the surviving machine, and re-plans: with no cross-machine traffic
    left, GDP now wins, and the adaptive run hot-switches to it.

    The elastic adaptive run's simulated seconds beat every fixed strategy
    under the identical node-loss schedule, and it actually switches
    strategies at the membership change: fixed DNP pays replication
    overhead forever, fixed GDP crawls through the congested pre-fault
    epochs, NFP/SNP lose on both sides.
    """

    name = "elastic"
    MACHINES, GPUS = 2, 8
    ETHERNET_FACTOR = 0.1  # congested inter-machine link, part of the cluster
    LEAVE_MACHINE = 1

    def _apt(self, replan: bool) -> APT:
        ds = dataset("ps")
        cluster = cluster_for(ds, num_gpus=self.GPUS, num_machines=self.MACHINES)
        cluster = cluster.with_network(dataclasses.replace(
            cluster.network, bandwidth=cluster.network.bandwidth * self.ETHERNET_FACTOR
        ))
        apt = APT(ds, make_model("sage", ds, hidden=96), cluster, APTConfig(
            fanouts=(10, 10, 10),
            global_batch_size=cluster.num_devices * BATCH_PER_GPU,
            seed=0,
            replan=replan,
        ))
        apt.prepare()
        return apt

    def run(self, quick: bool) -> dict:
        epochs = 6 if quick else 12
        # Lose the machine a third of the way in: the congested pre-fault
        # phase separates adaptive from fixed GDP, the long post-fault tail
        # separates it from fixed DNP.
        fault_epoch = epochs // 3
        faults = FaultSchedule(
            [FaultEvent(epoch=fault_epoch, kind="host_leave", machine=self.LEAVE_MACHINE)]
        )
        results: dict = {
            "quick": quick,
            "epochs": epochs,
            "fault_epoch": fault_epoch,
            "scenario": (
                f"{self.MACHINES}x{self.GPUS // self.MACHINES} GPUs, Ethernet at "
                f"{self.ETHERNET_FACTOR:.0%}, machine {self.LEAVE_MACHINE} leaves at "
                f"epoch {fault_epoch}"
            ),
        }
        # Elastic adaptive: plan on the full cluster, hot-switch at the loss.
        apt = self._apt(replan=True)
        apt.plan()
        adaptive = apt.run(epochs, faults=faults, numerics=False)
        switch = next(
            (e for e in adaptive.collector.events if e.kind == "elastic_replan"), None
        )
        results["adaptive"] = {
            "seconds": adaptive.wall_seconds,
            "strategy_by_epoch": list(adaptive.strategy_by_epoch),
            "switched": bool(switch and switch.data["switched"]),
        }
        # Every fixed strategy survives the identical schedule, never switches.
        results["fixed"] = {}
        for name in STRATEGIES:
            rep = self._apt(replan=False).run_strategy(
                name, epochs, faults=faults, numerics=False
            )
            assert set(rep.strategy_by_epoch) == {name}
            results["fixed"][name] = {"seconds": rep.wall_seconds}
        best_fixed = min(results["fixed"], key=lambda n: results["fixed"][n]["seconds"])
        results["best_fixed"] = best_fixed
        results["speedup_vs_best_fixed"] = (
            results["fixed"][best_fixed]["seconds"] / results["adaptive"]["seconds"]
        )
        return results

    def table(self, result: dict) -> List[str]:
        adaptive = result["adaptive"]
        return (
            [result["scenario"],
             f"  adaptive      {adaptive['seconds'] * 1e3:9.3f}ms  "
             + " ".join(adaptive["strategy_by_epoch"])]
            + [
                f"  fixed {n:8s}{e['seconds'] * 1e3:9.3f}ms"
                for n, e in result["fixed"].items()
            ]
            + [f"  adaptive beats best fixed ({result['best_fixed']}) by "
               f"{result['speedup_vs_best_fixed']:.2f}x"]
        )

    def check(self, result: dict) -> None:
        adaptive = result["adaptive"]["seconds"]
        for name, entry in result["fixed"].items():
            assert not adaptive >= entry["seconds"], (
                f"elastic adaptive ({adaptive * 1e3:.3f}ms) does not beat "
                f"fixed {name} ({entry['seconds'] * 1e3:.3f}ms)"
            )
        assert result["adaptive"]["switched"], (
            "the adaptive run never hot-switched strategies"
        )


class Hetero(Case):
    """Heterogeneity-aware execution — speed-proportional partitioning + $-planning.

    The scenario (DESIGN.md §5.17): a 2-tier cluster — one machine of fast,
    expensive A100-class GPUs and one of slow, cheap T4s.  Three claims:

    1. **Speed-proportional partitioning wins.**  With equal-sized partitions
       the bulk-synchronous barrier waits for the slow tier every batch; with
       partitions proportional to device throughput every device finishes
       together.  Measured epoch time (partition-consuming strategy) must
       improve by at least 1.25x.
    2. **The cost model sees heterogeneity.**  The dry-run ranking over the
       four strategies must match the measured epoch-time ranking on the
       heterogeneous cluster.
    3. **The (time, $) Pareto planner finds cheaper points.**  Under a time
       budget of 1.5x the time-optimal plan, ``objective="cost"`` (which
       sweeps strategies x device subsets) must pick a plan strictly cheaper
       per epoch than the time-optimal one.
    """

    name = "hetero"
    CLUSTER_SPEC = "1x4:a100,1x4:t4"
    #: modern low-latency interconnect (IB/EFA class).  With the default
    #: 12.5 GB/s / 30 us NIC the epoch is network-bound and partition shape is
    #: irrelevant; the heterogeneity claim is about the *compute* barrier, so
    #: the scenario uses a fabric fast enough that compute dominates.
    NETWORK = LinkSpec(bandwidth=100e9, latency=2e-6)
    #: the partition-consuming strategy the headline comparison measures
    #: (snp's hidden-embedding shuffle grows with a device's seed share, which
    #: cancels the compute win; dnp keeps the shuffle partition-local)
    HEADLINE_STRATEGY = "dnp"
    SPEEDUP_GATE = 1.25
    BUDGET_FACTOR = 1.5

    def _cluster(self):
        cache = scaled_gpu_cache_bytes(dataset("ps"), PAPER_CACHE_GB)
        cluster = parse_cluster_spec(self.CLUSTER_SPEC, gpu_cache_bytes=cache)
        return cluster.with_network(self.NETWORK)

    def _apt(self, parts=None) -> APT:
        """APT on the 2-tier cluster.

        ``parts=None`` uses the built-in metis partitioner, which cuts
        speed-proportional parts on a heterogeneous cluster; passing an
        explicit (equal-sized) partition array bypasses the weighting.
        """
        ds = dataset("ps")
        cluster = self._cluster()
        apt = APT(ds, make_model("sage", ds, hidden=1024), cluster, APTConfig(
            fanouts=(20, 20, 20),
            global_batch_size=cluster.num_devices * 1024,
            partition=parts if parts is not None else "metis",
            seed=0,
        ))
        apt.sample_cache = shared_sample_cache()
        apt.prepare()
        return apt

    def run(self, quick: bool) -> dict:
        epochs = 1 if quick else 3
        ds = dataset("ps")
        results: dict = {
            "quick": quick,
            "epochs": epochs,
            "scenario": f"{self.CLUSTER_SPEC} on ps ({ds.num_nodes} nodes)",
        }

        # -- 1. equal-sized vs speed-proportional partitions ---------------- #
        equal_parts = metis_like_partition(ds.graph, self._cluster().num_devices, seed=0)
        headline: dict = {"strategy": self.HEADLINE_STRATEGY}
        for label, parts in (("equal", equal_parts), ("proportional", None)):
            rep = self._apt(parts=parts).run_strategy(
                self.HEADLINE_STRATEGY, epochs, numerics=False
            )
            headline[f"{label}_seconds"] = rep.wall_seconds
        headline["speedup"] = headline["equal_seconds"] / headline["proportional_seconds"]
        results["headline"] = headline

        # -- 2. dry-run ranking vs measured ranking ------------------------- #
        apt = self._apt()
        measured = {
            name: apt.compare_all(
                num_epochs=1, numerics=False, strategies=(name,)
            )[name].epoch_seconds
            for name in STRATEGIES
        }
        plan = apt.plan(strategies=STRATEGIES).plan
        dry_ranking = [n for n in plan.ranking if n in STRATEGIES]
        measured_ranking = sorted(measured, key=measured.get)
        results["ranking"] = {
            "dryrun": dry_ranking,
            "measured": measured_ranking,
            "measured_seconds": measured,
            "estimated_seconds": {n: plan.estimates[n].total for n in STRATEGIES},
            "match": dry_ranking == measured_ranking,
        }

        # -- 3. Pareto planning under a time budget ------------------------- #
        time_plan = apt.plan(strategies=STRATEGIES, objective="epoch").plan
        t_opt = time_plan.estimates[time_plan.chosen]
        budget = self.BUDGET_FACTOR * t_opt.total
        cost_plan = apt.plan(
            strategies=STRATEGIES, objective="cost", budget_seconds=budget
        ).plan
        c_opt = cost_plan.estimates[cost_plan.chosen]
        results["pareto"] = {
            "time_optimal": {
                "candidate": time_plan.chosen,
                "total": t_opt.total,
                "dollars": t_opt.dollars,
            },
            "budget_seconds": budget,
            "cost_choice": {
                "candidate": cost_plan.chosen,
                "total": c_opt.total,
                "dollars": c_opt.dollars,
                "subset": cost_plan.subsets.get(cost_plan.chosen),
            },
            "frontier": [
                {
                    "candidate": n,
                    "total": cost_plan.estimates[n].total,
                    "dollars": cost_plan.estimates[n].dollars,
                }
                for n in cost_plan.pareto
            ],
            "cheaper": c_opt.dollars < t_opt.dollars,
            "within_budget": c_opt.total <= budget,
        }
        return results

    def table(self, result: dict) -> List[str]:
        h, rk, p = result["headline"], result["ranking"], result["pareto"]
        t_opt, c_opt = p["time_optimal"], p["cost_choice"]
        return [
            result["scenario"],
            f"  partition comparison ({h['strategy']}, timing-only):",
            f"    {'equal':<13}{h['equal_seconds'] * 1e3:9.3f}ms",
            f"    {'proportional':<13}{h['proportional_seconds'] * 1e3:9.3f}ms",
            f"    proportional beats equal by {h['speedup']:.2f}x",
            f"  dry-run ranking:  {' > '.join(rk['dryrun'])}",
            f"  measured ranking: {' > '.join(rk['measured'])}",
            f"  time-optimal: {t_opt['candidate']} "
            f"({t_opt['total'] * 1e3:.3f}ms, ${t_opt['dollars']:.3e}/epoch)",
            f"  cost plan within {self.BUDGET_FACTOR}x budget: {c_opt['candidate']} "
            f"({c_opt['total'] * 1e3:.3f}ms, ${c_opt['dollars']:.3e}/epoch)",
        ]

    def check(self, result: dict) -> None:
        speedup = result["headline"]["speedup"]
        assert not speedup < self.SPEEDUP_GATE, (
            f"speed-proportional partitions beat equal-sized by only "
            f"{speedup:.2f}x (< {self.SPEEDUP_GATE}x gate)"
        )
        assert result["ranking"]["match"], (
            f"dry-run ranking {result['ranking']['dryrun']} != measured "
            f"ranking {result['ranking']['measured']}"
        )
        pareto = result["pareto"]
        assert pareto["cheaper"], (
            f"cost plan (${pareto['cost_choice']['dollars']:.3e}) is not "
            f"strictly cheaper than time-optimal "
            f"(${pareto['time_optimal']['dollars']:.3e})"
        )
        assert pareto["within_budget"], (
            f"cost plan ({pareto['cost_choice']['total'] * 1e3:.3f}ms) exceeds the "
            f"time budget ({pareto['budget_seconds'] * 1e3:.3f}ms)"
        )


class Hybrid(Case):
    """Per-layer hybrid composition: searched layouts beat every single strategy.

    The P3 regime (DESIGN.md §5.15): fat input features with a thin hidden
    dimension make the *first* layer's layout the expensive decision while the
    upper layers want something else entirely.  On community-structured
    analogs with 256-dim features and a 16-dim hidden layer, the beam search
    (`APT.plan_layerwise`) composes ``layerwise:gdp,snp`` — GDP's cached
    feature gather on layer 0, but seeds split by graph partition so the
    node-partitioned top layer is both re-layout-free and community-local —
    and that composition beats **every** single strategy end-to-end, in
    estimated and in measured (timing-only simulated) epoch seconds, with the
    dry-run cost ranking over the five candidates equal to the measured one.

    A 3-layer re-layout probe (``layerwise:gdp,snp,gdp``) additionally runs
    with numerics to pin that mismatched adjacent layouts charge real
    all-to-all re-layout bytes into the Timeline's shuffle term.
    """

    name = "hybrid"
    FEATURE_DIM = 256
    HIDDEN = 16

    def _apt(self, ds, layers=2) -> APT:
        cluster = cluster_for(ds, num_gpus=8, num_machines=1, cache_gb=0.5)
        parts = metis_like_partition(ds.graph, cluster.num_devices, seed=0)
        model = GraphSAGE(ds.feature_dim, self.HIDDEN, ds.num_classes, layers, seed=1)
        return build_apt(ds, model, cluster, parts, fanouts=(10,) * layers)

    def run(self, quick: bool) -> dict:
        n = 6_000 if quick else 12_000
        cases = []
        analogs = (("ps_fat_features", ps_like), ("fs_fat_features", fs_like))
        for label, factory in analogs:
            # Beam-search one fat-feature analog, then measure hybrid vs singles.
            ds = factory(n=n, feature_dim=self.FEATURE_DIM)
            apt = self._apt(ds)
            plan = apt.plan_layerwise().plan
            chosen = plan.chosen
            candidates = list(STRATEGIES)
            if chosen not in STRATEGIES:
                candidates.insert(0, chosen)
            results = apt.compare_all(num_epochs=1, numerics=False, strategies=candidates)
            measured = {s: r.epoch_seconds for s, r in results.items()}
            estimated = {s: plan.estimates[s].total for s in candidates}
            measured_order = sorted(measured, key=measured.get)
            estimated_order = sorted(estimated, key=estimated.get)
            best_single = min(STRATEGIES, key=measured.get)
            cases.append({
                "label": label,
                "num_nodes": ds.num_nodes,
                "feature_dim": ds.feature_dim,
                "hidden_dim": self.HIDDEN,
                "chosen": chosen,
                "layer_assignment": plan.layer_assignments.get(chosen, [chosen]),
                "search_ranking": list(plan.ranking),
                "measured_ms": {s: measured[s] * 1e3 for s in candidates},
                "estimated_ms": {s: estimated[s] * 1e3 for s in candidates},
                "measured_order": measured_order,
                "estimated_order": estimated_order,
                "best_single": best_single,
                "speedup_over_best_single": measured[best_single] / measured[chosen],
                "rankings_match": measured_order == estimated_order,
            })

        # 3-layer gdp->snp->gdp: mismatched adjacent layouts pay all-to-alls.
        report = self._apt(ps_like(n=n, feature_dim=64), layers=3).run_strategy(
            "layerwise:gdp,snp,gdp", 1
        )
        recorder = report.result.recorder
        probe = {
            "spec": "layerwise:gdp,snp,gdp",
            "relayout_bytes": float(recorder.total_relayout_bytes()),
            "relayout_layer_bytes": {
                str(k): float(v) for k, v in sorted(recorder.relayout_layer_bytes.items())
            },
            "hidden_bytes": float(recorder.total_hidden_bytes()),
            "loss": report.result.epochs[-1].mean_loss,
        }
        return {"quick": quick, "cases": cases, "relayout_probe": probe}

    def table(self, result: dict) -> List[str]:
        lines = []
        for c in result["cases"]:
            lines += [
                f"case {c['label']} ({c['num_nodes']} nodes, d={c['feature_dim']}, "
                f"h={c['hidden_dim']}):",
                f"  planner chose {c['chosen']} "
                f"(assignment {' -> '.join(c['layer_assignment'])})",
            ]
            lines += [
                f"    {s:24s} measured {c['measured_ms'][s]:8.3f} ms   "
                f"estimated {c['estimated_ms'][s]:8.3f} ms"
                for s in c["measured_order"]
            ]
            lines += [
                f"  predicted ranking: {' > '.join(c['estimated_order'])}",
                f"  measured ranking:  {' > '.join(c['measured_order'])}",
                f"  hybrid speedup over best single ({c['best_single']}): "
                f"{c['speedup_over_best_single']:.2f}x",
            ]
        probe = result["relayout_probe"]
        return lines + [
            f"re-layout probe ({probe['spec']}, "
            f"{result['cases'][0]['num_nodes']} nodes): "
            f"{probe['relayout_bytes'] / 1024:.1f} KiB shuffled across layout "
            f"boundaries {probe['relayout_layer_bytes']}"
        ]

    def check(self, result: dict) -> None:
        for case in result["cases"]:
            label, chosen = case["label"], case["chosen"]
            assert chosen.startswith("layerwise:"), (
                f"{label}: planner chose single {chosen!r}, not a composition"
            )
            for table in ("measured_ms", "estimated_ms"):
                hybrid = case[table][chosen]
                for s in STRATEGIES:
                    assert not case[table][s] <= hybrid, (
                        f"{label}: {s} beat the searched hybrid in {table} "
                        f"({case[table][s]:.3f} <= {hybrid:.3f} ms)"
                    )
            assert case["rankings_match"], (
                f"{label}: predicted ranking {' > '.join(case['estimated_order'])} "
                f"!= measured {' > '.join(case['measured_order'])}"
            )
        probe = result["relayout_probe"]
        assert not probe["relayout_bytes"] <= 0, "re-layout probe charged no bytes"
        assert not probe["hidden_bytes"] < probe["relayout_bytes"], (
            "re-layout bytes missing from the shuffle term's hidden-byte matrix"
        )


def _ooc_apt(ds: GraphDataset) -> APT:
    cluster = multi_machine_cluster(2, 2, gpu_cache_bytes=ds.feature_bytes * 0.05)
    model = GraphSAGE(ds.feature_dim, 16, ds.num_classes, 2, seed=1)
    apt = APT(ds, model, cluster, APTConfig(
        fanouts=(8, 8), global_batch_size=256, seed=0, disk_promote_mb=1,
    ))
    apt.prepare()
    return apt


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outofcore(Case):
    """Out-of-core scale: disk-tier planning that moves the planner.

    Builds the *same* training task twice — once with the feature matrix in
    RAM and once opened from an on-disk streaming dataset directory
    (memory-mapped features, disk tier active; DESIGN.md §5.14) — and
    compares:

    * **planner rankings** — the dry-run cost estimates include the disk
      tier's bandwidth and per-ranged-read latency terms, so strategies that
      re-read many feature rows (GDP, DNP) are penalized once features fall
      out of RAM and the ranking shifts toward feature-traffic-avoiding
      strategies (the headline table);
    * **losses** — out-of-core training must be numerically invisible:
      the memmap serves bit-identical bytes, so per-epoch losses match the
      in-RAM run exactly;
    * **disk accounting** — dry-runs and training record disk rows, bytes,
      and coalesced ranged-read counts.

    The check fails if losses diverge, if no disk traffic was recorded, if
    any strategy's estimated t_load got *cheaper* out of core, or if the
    disk-tier terms failed to move the planner (no ranking change and no
    meaningful t_load penalty).
    """

    name = "outofcore"

    @staticmethod
    def _plan_table(apt: APT) -> dict:
        plan = apt.plan().plan
        return {
            "chosen": plan.chosen,
            "ranking": list(plan.ranking),
            "estimates_ms": {
                name: {
                    "t_build": est.t_build * 1e3,
                    "t_load": est.t_load * 1e3,
                    "t_shuffle": est.t_shuffle * 1e3,
                    "total": est.total * 1e3,
                }
                for name, est in plan.estimates.items()
            },
        }

    def run(self, quick: bool) -> dict:
        num_nodes = 12_000 if quick else 40_000
        feature_dim = 32 if quick else 64
        with tempfile.TemporaryDirectory(prefix="bench-outofcore-") as workdir:
            ds_disk = open_streaming_dataset(write_streaming_dataset(
                pathlib.Path(workdir) / "ds", num_nodes=num_nodes,
                feature_dim=feature_dim, num_classes=8, seed=0,
            ))
            # The identical dataset with the feature matrix fully resident.
            ds_ram = GraphDataset(
                name=ds_disk.name,
                graph=ds_disk.graph,
                features=np.array(ds_disk.features),
                labels=ds_disk.labels,
                train_seeds=ds_disk.train_seeds,
                num_classes=ds_disk.num_classes,
                communities=ds_disk.communities,
            )
            apt_ram, apt_disk = _ooc_apt(ds_ram), _ooc_apt(ds_disk)
            plan_ram, plan_disk = self._plan_table(apt_ram), self._plan_table(apt_disk)
            rows = ranged = 0.0
            for name in STRATEGIES:
                stats = apt_disk.context.dryrun.run(name)  # memoized by plan()
                rows += stats.recorder.total_load_rows(Tier.DISK)
                ranged += float(np.sum(stats.recorder.disk_ranged_reads))
            losses_ram, losses_disk = (
                [e.mean_loss for e in apt.run_strategy("gdp", 2).result.epochs]
                for apt in (apt_ram, apt_disk)
            )
        return {
            "quick": quick,
            "comparison": {
                "num_nodes": num_nodes,
                "feature_dim": feature_dim,
                "plan_in_ram": plan_ram,
                "plan_out_of_core": plan_disk,
                "dryrun_disk": {"rows": rows, "ranged_reads": ranged},
                "losses_in_ram": losses_ram,
                "losses_out_of_core": losses_disk,
                "losses_identical": losses_ram == losses_disk,
            },
        }

    def table(self, result: dict) -> List[str]:
        comp = result["comparison"]
        ram, disk = comp["plan_in_ram"], comp["plan_out_of_core"]
        lines = [
            f"planner comparison ({comp['num_nodes']} nodes, d={comp['feature_dim']}):",
            f"  in-RAM ranking:      {' > '.join(ram['ranking'])}",
            f"  out-of-core ranking: {' > '.join(disk['ranking'])}",
        ]
        for name in STRATEGIES:
            r, d = ram["estimates_ms"][name], disk["estimates_ms"][name]
            lines.append(
                f"  {name}  t_load {r['t_load']:8.3f} -> {d['t_load']:8.3f} ms   "
                f"total {r['total']:8.3f} -> {d['total']:8.3f} ms"
            )
        return lines + [
            f"  gdp losses in-RAM {comp['losses_in_ram']} vs out-of-core "
            f"{comp['losses_out_of_core']} "
            f"({'bit-identical' if comp['losses_identical'] else 'DIVERGED'})"
        ]

    def check(self, result: dict) -> None:
        comp = result["comparison"]
        assert comp["losses_identical"], (
            f"out-of-core losses diverged: {comp['losses_in_ram']} vs "
            f"{comp['losses_out_of_core']}"
        )
        assert not comp["dryrun_disk"]["rows"] <= 0, "dry-runs recorded no disk-tier rows"
        assert not comp["dryrun_disk"]["ranged_reads"] <= 0, (
            "dry-runs recorded no coalesced ranged reads"
        )
        ram = comp["plan_in_ram"]["estimates_ms"]
        disk = comp["plan_out_of_core"]["estimates_ms"]
        eps = 1e-9
        for name in STRATEGIES:
            assert not disk[name]["t_load"] + eps < ram[name]["t_load"], (
                f"{name} t_load got cheaper out of core "
                f"({ram[name]['t_load']:.4f} -> {disk[name]['t_load']:.4f} ms)"
            )
        # The headline: disk-tier terms must actually move the planner — either
        # the ranking reorders, or at least one strategy pays a >=2x load
        # penalty (so a ranking held only because it was already load-dominant).
        reordered = comp["plan_in_ram"]["ranking"] != comp["plan_out_of_core"]["ranking"]
        max_penalty = max(
            disk[n]["t_load"] / max(ram[n]["t_load"], 1e-9) for n in STRATEGIES
        )
        assert not (not reordered and max_penalty < 2.0), (
            "disk-tier terms did not move the planner (ranking unchanged, "
            f"max t_load penalty {max_penalty:.2f}x)"
        )


class Outofcore1M(Case):
    """Out-of-core scale: a 1M-node, 128-dim epoch with bounded RSS.

    Generates a 1M-node streaming dataset (~1 GB of features, never fully
    resident), trains one GDP epoch end-to-end on it, and reports peak RSS
    against the feature file size.  Needs about 1 GB of free disk, so it
    runs only when named (``--case outofcore_1m``); ``--quick`` does not
    shrink it.
    """

    name = "outofcore_1m"
    explicit = True

    def run(self, quick: bool) -> dict:
        num_nodes, feature_dim = 1_000_000, 128
        with tempfile.TemporaryDirectory(prefix="bench-outofcore-") as workdir:
            rss_before_gen = _peak_rss_mb()
            out = write_streaming_dataset(
                pathlib.Path(workdir) / "big", num_nodes=num_nodes,
                feature_dim=feature_dim, num_classes=16, seed=0,
            )
            feature_file_mb = (out / "features.dat").stat().st_size / 2**20
            report = _ooc_apt(open_streaming_dataset(out)).run_strategy("gdp", 1)
            return {
                "num_nodes": num_nodes,
                "feature_dim": feature_dim,
                "feature_file_mb": feature_file_mb,
                "peak_rss_mb": _peak_rss_mb(),
                "rss_before_generation_mb": rss_before_gen,
                "losses": [e.mean_loss for e in report.result.epochs],
                "epoch_seconds_simulated": report.result.epochs[-1].wall_seconds,
            }

    def table(self, result: dict) -> List[str]:
        return [
            f"{result['num_nodes']}-node, {result['feature_dim']}-dim streaming dataset: "
            f"features.dat {result['feature_file_mb']:.0f} MiB on disk",
            f"  trained 1 epoch (loss {result['losses'][-1]:.4f}); peak RSS "
            f"{result['peak_rss_mb']:.0f} MiB vs {result['feature_file_mb']:.0f} MiB "
            "of features on disk",
        ]


class Serving(Case):
    """Serving latency/throughput frontier: adaptive plan vs fixed strategies.

    Replays one seeded, drifting Zipf request stream (hot set shifts twice
    over the session) against a trained checkpoint under every serving
    configuration (DESIGN.md §5.13):

    * **fixed** — each of the four strategies pinned, training-census cache
      keying for the whole session (``cache_policy="static"``);
    * **adaptive** — strategy chosen by the latency-objective planner
      (``plan(objective="latency")``), request-hotness cache re-keyed when
      the serve-side drift detector fires (``cache_policy="adaptive"``);
    * **frontier** — the adaptive configuration swept across dynamic-batching
      policies (``8:1`` ... ``64:8``), tracing the latency/throughput
      trade-off of the batch-size/wait knobs.

    Batch composition is part of the sampling key, so predictions are pinned
    *per batching policy*: every configuration serving the same policy —
    all four strategies, static or adaptive cache — must produce
    bit-identical answers (strategy and cache placement move simulated time,
    never values).  The adaptive configuration must beat at least one fixed
    strategy on p99 latency, and its drift detector must re-key the cache.
    """

    name = "serving"
    FRONTIER_POLICIES = ("8:1", "16:2", "32:4", "64:8")

    @staticmethod
    def _apt(ds, checkpoint_dir=None) -> APT:
        cluster = single_machine_cluster(
            num_gpus=4, gpu_cache_bytes=ds.feature_bytes * 0.04
        )
        model = GraphSAGE(ds.feature_dim, 32, ds.num_classes, 2, seed=1)
        return APT(ds, model, cluster, APTConfig(
            fanouts=(8, 8), global_batch_size=256, seed=0, checkpoint_dir=checkpoint_dir,
        ))

    def _serve(self, ds, ckdir, requests, *, strategy, cache_policy, policy="32:4"):
        parsed = BatchingPolicy.parse(policy)
        return ServeEngine(
            self._apt(ds),
            config=ServeConfig(
                max_batch_size=parsed.max_batch_size,
                max_wait_s=parsed.max_wait_s,
                cache_policy=cache_policy,
                drift_window=4,
                drift_threshold=0.10,
            ),
            strategy=strategy,
            checkpoint_dir=ckdir,
        ).serve(list(requests))

    @staticmethod
    def _entry(report, policy) -> dict:
        return {
            "strategy": report.strategy,
            "policy": policy,
            "p50_ms": report.latency["p50"] * 1e3,
            "p99_ms": report.latency["p99"] * 1e3,
            "mean_ms": report.latency["mean"] * 1e3,
            "throughput_rps": report.throughput_rps,
            "cache_hit_fraction": report.cache["hit_fraction"],
            "num_batches": report.num_batches,
            "digest": report.responses_digest,
        }

    def run(self, quick: bool) -> dict:
        num_requests = 384 if quick else 2048
        rate = 3000.0
        ds = ps_like(4_000 if quick else 12_000, feature_dim=64)
        requests = LoadGenerator(
            ds.num_nodes,
            seed=3,
            rate=rate,
            zipf_a=1.4,
            drift_every=num_requests / rate / 3.0,  # the hot set moves twice
            drift_shift=max(ds.num_nodes // 5, 1),
        ).generate(num_requests)
        results: dict = {
            "quick": quick,
            "num_requests": num_requests,
            "rate_rps": rate,
            "num_nodes": ds.num_nodes,
        }
        with tempfile.TemporaryDirectory(prefix="bench-serve-ck-") as ckdir:
            self._apt(ds, checkpoint_dir=ckdir).run_strategy("gdp", 1)
            results["fixed"] = {
                name: self._entry(self._serve(
                    ds, ckdir, requests, strategy=name, cache_policy="static"
                ), "32:4")
                for name in STRATEGIES
            }
            report = self._serve(
                ds, ckdir, requests, strategy=None, cache_policy="adaptive"
            )
            results["adaptive"] = dict(
                self._entry(report, "32:4"),
                predicted=report.predicted,
                replans=len(report.replans),
                cache_refreshes=report.cache["refreshes"],
            )
            results["frontier"] = [
                self._entry(self._serve(
                    ds, ckdir, requests, strategy=report.strategy,
                    cache_policy="adaptive", policy=policy,
                ), policy)
                for policy in self.FRONTIER_POLICIES
            ]
        return results

    def table(self, result: dict) -> List[str]:
        def row(label, e):
            return (
                f"  {label:>5s}  p50 {e['p50_ms']:7.2f} ms   "
                f"p99 {e['p99_ms']:7.2f} ms   {e['throughput_rps']:7.1f} req/s"
            )

        a = result["adaptive"]
        return (
            ["fixed strategies (static census cache):"]
            + [row(name, e) for name, e in result["fixed"].items()]
            + ["adaptive (latency-objective plan + hotness cache):",
               row(a["strategy"], a) + f"   ({a['replans']} replan(s), "
               f"{a['cache_refreshes']} cache refresh(es))",
               "batching-policy frontier (adaptive configuration):"]
            + [row(e["policy"], e) for e in result["frontier"]]
        )

    def check(self, result: dict) -> None:
        # Batch composition is part of the sampling key, so answers are pinned
        # *per batching policy*: every configuration serving the same policy —
        # all four strategies plus the adaptive cache — must agree exactly.
        entries = [*result["fixed"].values(), result["adaptive"], *result["frontier"]]
        by_policy: dict = {}
        for e in entries:
            by_policy.setdefault(e["policy"], set()).add(e["digest"])
        for policy, digests in sorted(by_policy.items()):
            assert not len(digests) != 1, (
                f"answers diverged across {policy} configurations "
                f"({len(digests)} digests)"
            )
        adaptive_p99 = result["adaptive"]["p99_ms"]
        fixed_p99 = {n: e["p99_ms"] for n, e in result["fixed"].items()}
        beaten = [n for n, p99 in fixed_p99.items() if adaptive_p99 < p99]
        assert beaten, (
            f"adaptive p99 {adaptive_p99:.2f} ms beats no fixed strategy ({fixed_p99})"
        )
        assert not result["adaptive"]["cache_refreshes"] < 1, (
            "drift never re-keyed the adaptive cache"
        )
