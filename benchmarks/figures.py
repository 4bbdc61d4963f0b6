"""The paper's §5 figures and tables, and the extensions measured beside them.

Conventions (``systems.py`` shares them):

* graphs are the scale-model analogs at ``BENCH_NODES`` nodes; per-GPU
  cache budgets cover the same *fraction* of the feature matrix as the
  paper's 4 GB covers of each dataset's features (see ``repro.config``);
* strategy epoch times are **simulated seconds** from the timing model
  (timing-only execution — numerics are exercised by the test suite and
  the two sanity cases);
* datasets, partitions and sweep points are memoized, so one run of the
  case list generates each analog once and measures each sweep point once
  (``table4_apt_speedup`` aggregates the Fig. 8 / Fig. 9 grids from that
  memo).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster import (
    ClusterSpec,
    LinkSpec,
    MachineSpec,
    multi_machine_cluster,
    single_machine_cluster,
)
from repro.cluster.faults import FaultEvent, FaultSchedule
from repro.config import PAPER_CACHE_GB, APTConfig, scaled_gpu_cache_bytes
from repro.core import APT, CostModel, Planner, access_frequency_census
from repro.engine.context import ExecutionContext
from repro.engine.trainer import evaluate_accuracy
from repro.graph import (
    CoarseningHierarchy,
    edge_cut_fraction,
    fs_like,
    im_like,
    metis_like_partition,
    ps_like,
)
from repro.graph.datasets import GraphDataset, small_dataset
from repro.graph.metrics import access_skewness_table
from repro.graph.partition import random_partition
from repro.models import GAT, GCN, GraphSAGE
from repro.sampling.cache import SampleCache
from repro.utils.random import rng_from

#: analog sizes used by all performance cases
BENCH_NODES = {"ps": 12_000, "fs": 12_000, "im": 15_000}
#: per-GPU minibatch (the paper uses 1024 at 1000x graph scale)
BATCH_PER_GPU = 128
DATASETS = ("ps", "fs", "im")
STRATEGIES = ("gdp", "nfp", "snp", "dnp")


class Case:
    """One claim of the evaluation; the subclass docstring states it.

    ``run(quick)`` measures and returns a JSON-able dict, ``check`` asserts
    the claim on that dict, ``table`` renders it as text lines.
    """

    name = ""
    #: run only when named with ``--case`` (too big for the default list)
    explicit = False

    def run(self, quick: bool) -> dict:
        raise NotImplementedError

    def check(self, result: dict) -> None:
        """Raise AssertionError unless the claim holds."""

    def table(self, result: dict) -> List[str]:
        return []


def approx(actual, expected, *, rel: float = 0.0, abs_tol: float = 0.0) -> bool:
    """``actual == pytest.approx(expected, rel=..., abs=...)``.

    Elementwise for sequences (equal lengths required); a value matches
    when equal or within ``max(rel * |expected|, abs_tol)``.
    """
    if isinstance(expected, (list, tuple)):
        return len(actual) == len(expected) and all(
            approx(a, e, rel=rel, abs_tol=abs_tol) for a, e in zip(actual, expected)
        )
    return actual == expected or abs(actual - expected) <= max(
        rel * abs(expected), abs_tol
    )


# ---------------------------------------------------------------------- #
# analogs, clusters, models
# ---------------------------------------------------------------------- #
@functools.lru_cache(maxsize=None)
def dataset(name: str) -> GraphDataset:
    """Memoized dataset analog at benchmark scale."""
    factory = {"ps": ps_like, "fs": fs_like, "im": im_like}[name]
    return factory(n=BENCH_NODES[name])


@functools.lru_cache(maxsize=None)
def partition(name: str, num_parts: int) -> np.ndarray:
    """Memoized METIS-like partition of a benchmark dataset."""
    return metis_like_partition(dataset(name).graph, num_parts, seed=0)


@functools.lru_cache(maxsize=None)
def shared_sample_cache() -> SampleCache:
    """One sampled-epoch cache shared by every APT ``build_apt`` makes.

    Sweep points that vary hidden dim, cache budget, or cluster shape
    revisit the same ``(graph, fanouts, seed, epoch)`` sampling work; the
    shared cache serves those epochs from memory (cache keys isolate any
    point that changes graph, fanouts, or seed).  Cached batches are
    bit-identical to fresh ones, so results are unchanged.
    """
    return SampleCache(max_bytes=512 * 1024 * 1024)


def cluster_for(
    ds: GraphDataset,
    *,
    num_gpus: int = 8,
    num_machines: int = 1,
    cache_gb: float = PAPER_CACHE_GB,
) -> ClusterSpec:
    """A cluster preset with the paper-equivalent cache fraction."""
    cache = scaled_gpu_cache_bytes(ds, cache_gb) if cache_gb > 0 else 0.0
    if num_machines == 1:
        return single_machine_cluster(num_gpus, gpu_cache_bytes=cache)
    return multi_machine_cluster(
        num_machines, num_gpus // num_machines, gpu_cache_bytes=cache
    )


def make_model(
    kind: str, ds: GraphDataset, hidden: int, num_layers: int = 3, heads: int = 4
):
    """Build GraphSAGE / GAT / GCN with the paper's defaults."""
    if kind == "sage":
        return GraphSAGE(ds.feature_dim, hidden, ds.num_classes, num_layers, seed=1)
    if kind == "gat":
        return GAT(ds.feature_dim, hidden, ds.num_classes, num_layers, heads, seed=1)
    if kind == "gcn":
        return GCN(ds.feature_dim, hidden, ds.num_classes, num_layers, seed=1)
    raise ValueError(f"unknown model kind {kind!r}")


def build_apt(
    ds: GraphDataset,
    model,
    cluster: ClusterSpec,
    parts: np.ndarray,
    *,
    fanouts: Sequence[int] = (10, 10, 10),
    **config,
) -> APT:
    """A prepared APT on the shared sample cache, ``BATCH_PER_GPU`` per device."""
    apt = APT(
        ds,
        model,
        cluster,
        APTConfig(
            fanouts=tuple(fanouts),
            global_batch_size=cluster.num_devices * BATCH_PER_GPU,
            partition=parts,
            seed=0,
            **config,
        ),
    )
    # Install before prepare(), which builds the dry-run on the cache.
    apt.sample_cache = shared_sample_cache()
    apt.prepare()
    return apt


# ---------------------------------------------------------------------- #
# sweeps: a grid of points, each measured once per process
# ---------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class Point:
    """One sweep point: an analog under one model, cluster and partition."""

    dataset: str
    model: str = "sage"
    hidden: int = 32
    heads: int = 4
    fanouts: Tuple[int, ...] = (10, 10, 10)
    gpus: int = 8
    machines: int = 1
    cache_gb: float = PAPER_CACHE_GB
    random_parts: bool = False
    #: replace the analog's features by ``input_dim``-wide ones (Fig. 1a)
    input_dim: Optional[int] = None

    def build(self, **config) -> APT:
        base = dataset(self.dataset)
        ds = base
        if self.input_dim is not None:
            rng = rng_from(99, self.input_dim)
            centers = rng.normal(size=(base.num_classes, self.input_dim))
            ds = base.with_features(
                centers[base.labels]
                + rng.normal(size=(base.num_nodes, self.input_dim))
            )
        # The paper's 4 GB cache is a *fixed* budget sized on the base
        # analog: growing the input dimension shrinks the fraction it holds.
        cluster = cluster_for(
            base, num_gpus=self.gpus, num_machines=self.machines,
            cache_gb=self.cache_gb,
        )
        parts = (
            random_partition(base.num_nodes, self.gpus, seed=0)
            if self.random_parts
            else partition(self.dataset, self.gpus)
        )
        model = make_model(self.model, ds, self.hidden, len(self.fanouts), self.heads)
        return build_apt(ds, model, cluster, parts, fanouts=self.fanouts, **config)


@functools.lru_cache(maxsize=None)
def measure(point: Point) -> Dict:
    """All four strategies (timing-only) plus the APT planner on one point.

    Returns per-strategy simulated epoch seconds, the paper-style
    breakdowns, the actual best, and APT's pick.
    """
    apt = point.build()
    results = apt.compare_all(num_epochs=1, numerics=False)
    record = {
        "times": {n: r.epoch_seconds for n, r in results.items()},
        "breakdowns": {n: r.breakdown for n, r in results.items()},
        "peak_intermediate_bytes": {
            n: float(r.recorder.peak_intermediate_bytes.max())
            for n, r in results.items()
        },
        "best": min(results, key=lambda n: results[n].epoch_seconds),
    }
    plan = apt.plan()
    record["apt_choice"] = plan.chosen
    record["estimates"] = {n: e.as_dict() for n, e in plan.estimates.items()}
    return record


def sweep(grid: Sequence[Tuple[Dict, Point]]) -> List[Dict]:
    """Measure each ``(labels, point)`` of a grid; records carry the labels."""
    return [dict(measure(point), **labels) for labels, point in grid]


def rows(records: List[Dict], label: str) -> List[str]:
    """One table row per record: ``label`` formatted with the record, then
    simulated ms per strategy, the actual best and APT's pick (``*`` if equal)."""
    out = []
    for r in records:
        cells = " ".join(f"{s}={r['times'][s] * 1e3:8.3f}ms" for s in STRATEGIES)
        best, choice = r["best"], r["apt_choice"]
        star = "*" if choice == best else ""
        out.append(f"{label.format(**r):<24} {cells}  best={best} apt={choice}{star}")
    return out


def selection_quality(records: List[Dict]) -> Dict[str, float]:
    """How well APT's choices track the oracle over a set of records."""
    ratios = [r["times"][r["apt_choice"]] / r["times"][r["best"]] for r in records]
    return {
        "optimal_picks": sum(r["apt_choice"] == r["best"] for r in records),
        "cases": len(records),
        "worst_ratio": max(ratios),
        "mean_ratio": float(np.mean(ratios)),
    }


class SweepCase(Case):
    """A grid of ``measure`` points scored by APT's selection quality."""

    label = ""

    def grid(self) -> List[Tuple[Dict, Point]]:
        raise NotImplementedError

    def run(self, quick: bool) -> dict:
        records = sweep(self.grid())
        return {"records": records, "apt": selection_quality(records)}

    def table(self, result: dict) -> List[str]:
        return rows(result["records"], self.label) + [f"APT selection: {result['apt']}"]


# ---------------------------------------------------------------------- #
# paper §5
# ---------------------------------------------------------------------- #
class Fig01Motivation(Case):
    """Paper Figure 1 — the motivating observation: no consistent winner.

    (a) GraphSAGE on the Papers analog, 8 GPUs, varying the *input feature
        dimension* {64, 128, 256} at hidden dim 32.  The paper shows GDP
        optimal at input dim 64 but >30% slower than DNP at 256.
    (b) GraphSAGE on the Friendster analog, varying the *hidden dimension*
        {8, 32, 128, 512}.  The paper shows SNP fastest at 8/32, DNP at 128,
        GDP at 512.
    """

    name = "fig01_motivation"

    def run(self, quick: bool) -> dict:
        return {
            "fig1a": sweep(
                [({"input_dim": d}, Point("ps", input_dim=d)) for d in (64, 128, 256)]
            ),
            "fig1b": sweep(
                [({"hidden": h}, Point("fs", hidden=h)) for h in (8, 32, 128, 512)]
            ),
        }

    def table(self, result: dict) -> List[str]:
        return (
            ["(a) PS, varying input dimension:"]
            + rows(result["fig1a"], "ps input_dim={input_dim}")
            + ["(b) FS, varying hidden dimension:"]
            + rows(result["fig1b"], "fs hidden={hidden}")
        )

    def check(self, result: dict) -> None:
        recs_a, recs_b = result["fig1a"], result["fig1b"]
        # (b) the winner changes across hidden dimensions ...
        winners_b = {rec["best"] for rec in recs_b}
        assert len(winners_b) >= 2, "Figure 1 needs a strategy crossover"
        # ... shuffling strategies win small hidden dims, GDP wins at 512.
        assert recs_b[0]["best"] in ("snp", "dnp")
        assert recs_b[-1]["best"] in ("gdp", "dnp")
        # (a) growing the input dimension erodes GDP's lead on PS.
        gdp_gap = [rec["times"]["gdp"] / min(rec["times"].values()) for rec in recs_a]
        assert gdp_gap[-1] >= gdp_gap[0] - 1e-9


class Fig06SanityAccuracy(Case):
    """Paper Figure 6 — sanity check: identical accuracy-vs-epoch curves.

    The four strategies are semantically equivalent: trained for the same
    number of epochs they produce the identical model, so their test-accuracy
    curves coincide — with each other and with the single-GPU baseline (DGL in
    the paper; here a 1-device GDP run, which executes the same global batches
    through the same kernels).  Runs with full numerics (real training).
    """

    name = "fig06_sanity_accuracy"
    EPOCHS = 8

    def run(self, quick: bool) -> dict:
        ds = small_dataset(n=2500, feature_dim=24, num_classes=6, seed=3)
        eval_seeds = np.setdiff1d(np.arange(ds.num_nodes), ds.train_seeds)[:1500]
        cache = 0.06 * ds.feature_bytes

        def curve(cluster, strategy):
            model = GraphSAGE(ds.feature_dim, 16, ds.num_classes, 2, seed=5)
            config = APTConfig(fanouts=(5, 5), global_batch_size=256, seed=0)
            apt = APT(ds, model, cluster, config)
            apt.prepare()
            out = []
            for epoch in range(self.EPOCHS):
                # One epoch at a time so we can evaluate between epochs.
                apt.run_strategy(strategy, 1, lr=5e-3, reset_model=(epoch == 0))
                ctx = ExecutionContext.build(ds, cluster, model, [5, 5])
                out.append(evaluate_accuracy(ctx, seeds=eval_seeds))
            return out

        cluster4 = single_machine_cluster(4, gpu_cache_bytes=cache)
        curves = {name: curve(cluster4, name) for name in STRATEGIES}
        # Single-GPU baseline ("DGL"): same task on one device.
        cluster1 = single_machine_cluster(1, gpu_cache_bytes=cache)
        curves["single_gpu"] = curve(cluster1, "gdp")
        return {"curves": curves}

    def table(self, result: dict) -> List[str]:
        curves = result["curves"]
        lines = [f"{'epoch':>6}" + "".join(f"{n:>12}" for n in curves)]
        for e in range(self.EPOCHS):
            lines.append(f"{e:>6}" + "".join(f"{curves[n][e]:>12.4f}" for n in curves))
        return lines

    def check(self, result: dict) -> None:
        curves = result["curves"]
        ref = curves["gdp"]
        # Strategies produce the *identical* accuracy curve.
        for name in STRATEGIES:
            assert approx(curves[name], ref, abs_tol=1e-12), name
        # The single-GPU baseline applies the same global-batch updates, so its
        # curve coincides too (our DDP emulation is exact).
        assert approx(curves["single_gpu"], ref, abs_tol=1e-12)
        # And training actually learns something.
        assert ref[-1] > ref[0] + 0.1
        assert ref[-1] > 0.6


class Fig07SanityTime(Case):
    """Paper Figure 7 — accuracy vs (simulated) time, against the baselines.

    * Single machine: APT's GDP vs a DGL-like configuration.  Following the
      paper, the DGL baseline disables the GPU feature cache; both use
      GPU-based sampling.  APT's GDP must be at least as fast to any accuracy.
    * Distributed (2x2): APT's GDP vs a DistDGL-like configuration that
      samples on the CPU — the paper attributes its win over DistDGL to
      GPU-based sampling.

    Also the paper's §5.1 overhead note: the strategy-selection dry-run
    costs a small fraction of training to convergence (25 s vs 449 s in
    the paper).
    """

    name = "fig07_sanity_time"
    EPOCHS = 6

    def run(self, quick: bool) -> dict:
        ds = small_dataset(n=2500, feature_dim=24, num_classes=6, seed=3)
        single = single_machine_cluster(4, gpu_cache_bytes=0.06 * ds.feature_bytes)
        multi = multi_machine_cluster(2, 2, gpu_cache_bytes=0.06 * ds.feature_bytes)

        def timed_curve(cluster, cpu_sampling=False):
            """Cumulative simulated seconds and loss per epoch for a GDP run."""
            model = GraphSAGE(ds.feature_dim, 16, ds.num_classes, 2, seed=5)
            apt = APT(ds, model, cluster, APTConfig(
                fanouts=(5, 5), global_batch_size=512, seed=0, cpu_sampling=cpu_sampling,
            ))
            apt.prepare()
            result = apt.run_strategy("gdp", self.EPOCHS, lr=5e-3)
            return {
                "cum_time": np.cumsum([e.wall_seconds for e in result.epochs]).tolist(),
                "loss": [e.mean_loss for e in result.epochs],
                "dryrun_seconds": sum(
                    s.t_build for s in apt.context.dryrun.run_all().values()
                ),
            }

        return {
            "apt_gdp": timed_curve(single),
            "dgl_like": timed_curve(single.with_cache(0.0)),
            "apt_gdp_dist": timed_curve(multi),
            "distdgl_like": timed_curve(multi, cpu_sampling=True),
        }

    def table(self, result: dict) -> List[str]:
        return [
            f"{name:<14} epoch-time={c['cum_time'][0] * 1e3:8.3f}ms "
            f"final-loss={c['loss'][-1]:.4f} "
            f"dryrun={c['dryrun_seconds'] * 1e3:.3f}ms"
            for name, c in result.items()
        ]

    def check(self, result: dict) -> None:
        curves = result
        # Same updates => same loss trajectory regardless of configuration.
        assert approx(
            curves["apt_gdp"]["loss"], curves["dgl_like"]["loss"], abs_tol=1e-12
        )
        assert approx(
            curves["apt_gdp_dist"]["loss"], curves["distdgl_like"]["loss"], abs_tol=1e-12
        )
        # Single machine: caching makes APT's GDP at least as fast as the
        # cache-less DGL-like baseline at every point of the curve.
        assert all(
            a <= d + 1e-12
            for a, d in zip(curves["apt_gdp"]["cum_time"], curves["dgl_like"]["cum_time"])
        )
        # Distributed: GPU sampling beats DistDGL-style CPU sampling.
        assert (
            curves["apt_gdp_dist"]["cum_time"][-1]
            < curves["distdgl_like"]["cum_time"][-1]
        )
        # Dry-run overhead (all four strategies) is a small fraction of a
        # training-to-convergence run.  The paper's 449 s GDP run spans ~50
        # epochs; we extrapolate one epoch's time accordingly (25/449 ~= 5.6%).
        epoch_time = curves["apt_gdp"]["cum_time"][-1] / self.EPOCHS
        dry_fraction = curves["apt_gdp"]["dryrun_seconds"] / (50 * epoch_time)
        assert dry_fraction < 0.15


class Table3Skewness(Case):
    """Paper Table 3 — node-access skewness under [10,10,10] fanout sampling.

    The paper ranks nodes by access frequency and reports the share of all
    accesses each rank band receives.  This is the calibration check for the
    dataset analogs: PS must be hub-dominated (top 1% ~ half of all accesses,
    bottom half ~ none), FS scattered (significant mass beyond the top 20%),
    IM in between.
    """

    name = "table3_skewness"
    PAPER = {
        "ps": {"<1%": 0.501, "1%~5%": 0.348, "5%~10%": 0.088, "10%~20%": 0.047,
               "20%~50%": 0.017, "50%~100%": 0.000},
        "fs": {"<1%": 0.177, "1%~5%": 0.294, "5%~10%": 0.191, "10%~20%": 0.188,
               "20%~50%": 0.135, "50%~100%": 0.016},
        "im": {"<1%": 0.311, "1%~5%": 0.390, "5%~10%": 0.197, "10%~20%": 0.093,
               "20%~50%": 0.009, "50%~100%": 0.000},
    }

    def run(self, quick: bool) -> dict:
        tables = {
            name: access_skewness_table(access_frequency_census(
                dataset(name), [10, 10, 10], 8 * BATCH_PER_GPU, sampler_seed=0
            ))
            for name in DATASETS
        }
        return {"ours": tables, "paper": self.PAPER}

    def table(self, result: dict) -> List[str]:
        ours, paper = result["ours"], result["paper"]
        lines = [
            f"{'band':<10}" + "".join(f"{n + ' (ours/paper)':>22}" for n in DATASETS)
        ]
        for band in ours["ps"]:
            lines.append(f"{band:<10}" + "".join(
                f"{ours[n][band] * 100:>10.1f}% /{paper[n][band] * 100:>6.1f}%"
                for n in DATASETS
            ))
        return lines

    def check(self, result: dict) -> None:
        tables = result["ours"]
        # 1. skew ordering ps > im > fs at the top 1%;
        assert tables["ps"]["<1%"] > tables["im"]["<1%"] > tables["fs"]["<1%"]
        # 2. PS and IM have a negligible cold tail, FS a substantial one;
        assert tables["ps"]["50%~100%"] < 0.02
        assert tables["im"]["50%~100%"] < 0.02
        assert tables["fs"]["50%~100%"] > 0.03
        # 3. PS's top 1% dominates (same order as the paper's 50.1%).
        assert tables["ps"]["<1%"] > 0.30


class Fig08aHiddenDim(SweepCase):
    """Paper Figure 8(a) — single machine, 8 GPUs, hidden dimension sweep.

    GraphSAGE on all three graphs with hidden dimensions {8, 32, 128, 512}.
    Paper findings this reproduces:

    * all strategies slow down as the hidden dimension grows, NFP fastest-
      growing (it shuffles one embedding per destination *per GPU*);
    * GDP becomes optimal for every graph at 512 (it never shuffles hidden
      embeddings);
    * at small hidden dims the scattered-access FS graph favors SNP.
    """

    name = "fig08a_hidden_dim"
    label = "{dataset} hidden={hidden}"

    def grid(self):
        return [({"dataset": n, "hidden": h}, Point(n, hidden=h))
                for n in DATASETS for h in (8, 32, 128, 512)]

    def check(self, result: dict) -> None:
        by_case = {(r["dataset"], r["hidden"]): r for r in result["records"]}
        # Epoch time increases with hidden dimension for every strategy.
        for name in DATASETS:
            for s in STRATEGIES:
                assert by_case[(name, 512)]["times"][s] > by_case[(name, 8)]["times"][s]
        # NFP's time grows fastest between 8 and 512.
        for name in DATASETS:
            growth = {
                s: by_case[(name, 512)]["times"][s] / by_case[(name, 8)]["times"][s]
                for s in STRATEGIES
            }
            assert max(growth, key=growth.get) == "nfp"
        # GDP is optimal (or within 5%) for every graph at hidden 512.
        for name in DATASETS:
            times = by_case[(name, 512)]["times"]
            assert times["gdp"] <= 1.05 * min(times.values())
        # FS favors SNP at hidden 8.
        assert by_case[("fs", 8)]["best"] == "snp"
        # APT picks optimal or near-optimal throughout.
        assert result["apt"]["worst_ratio"] < 1.3


class Fig08bFanout(SweepCase):
    """Paper Figure 8(b) — single machine, 8 GPUs, fanout sweep.

    Four fanout configurations: [10,5] and [15,10] for 2-layer GraphSAGE,
    [10,10,10] and [20,15,10] for 3-layer.  Paper findings:

    * with small fanouts (light sampling/training) GDP is usually optimal —
      the fixed overheads of shuffling subgraphs and embeddings dominate the
      other strategies;
    * with heavy fanouts the optimum is graph-dependent: PS (skewed accesses,
      cache-friendly) keeps favoring GDP while FS (scattered) favors SNP/DNP.
    """

    name = "fig08b_fanout"
    label = "{dataset} fanout={fanouts}"

    def grid(self):
        return [({"dataset": n, "fanouts": list(f)}, Point(n, fanouts=f))
                for n in DATASETS
                for f in ((10, 5), (15, 10), (10, 10, 10), (20, 15, 10))]

    def check(self, result: dict) -> None:
        by_case = {(r["dataset"], tuple(r["fanouts"])): r for r in result["records"]}
        # Small fanout [10,5]: GDP optimal (or within 10%) on every graph.
        for name in DATASETS:
            times = by_case[(name, (10, 5))]["times"]
            assert times["gdp"] <= 1.10 * min(times.values()), name
        # Heavy 3-layer fanout: PS keeps GDP, FS prefers a shuffling strategy.
        assert by_case[("ps", (10, 10, 10))]["best"] == "gdp"
        assert by_case[("fs", (10, 10, 10))]["best"] in ("snp", "dnp")
        # Heavier fanouts cost more for every strategy (same layer count).
        for name in DATASETS:
            for s in STRATEGIES:
                assert (
                    by_case[(name, (20, 15, 10))]["times"][s]
                    > by_case[(name, (10, 10, 10))]["times"][s]
                )
        assert result["apt"]["worst_ratio"] < 1.4


class Fig08cCacheSize(SweepCase):
    """Paper Figure 8(c) — single machine, 8 GPUs, GPU cache-size sweep.

    Cache budgets {0, 2, 4, 8} "GB" (rescaled to the analogs' feature sizes).
    Paper findings:

    * with the cache disabled, GDP is optimal everywhere: every strategy loads
      all features from CPU, but GDP alone pays no subgraph/embedding
      shuffling overheads;
    * with a cache, the graph's access skew decides (GDP for PS, SNP/DNP for
      FS);
    * growing the cache has diminishing returns — the added capacity stores
      ever-colder nodes.
    """

    name = "fig08c_cache_size"
    label = "{dataset} cache={cache_gb:g}GB"
    CACHE_GB = (0.0, 2.0, 4.0, 8.0)

    def grid(self):
        return [({"dataset": n, "cache_gb": c}, Point(n, cache_gb=c))
                for n in DATASETS for c in self.CACHE_GB]

    def check(self, result: dict) -> None:
        by_case = {(r["dataset"], r["cache_gb"]): r for r in result["records"]}
        # Cache disabled -> GDP optimal.  Paper reports this for all graphs; on
        # the scaled-down FS analog a 3-hop fanout-10 frontier saturates the
        # whole graph, so GDP's per-device load duplication outweighs its
        # shuffle savings there (a scale artifact, see EXPERIMENTS.md) — we
        # assert the paper's claim on the skewed graphs where frontiers behave.
        for name in ("ps", "im"):
            assert by_case[(name, 0.0)]["best"] == "gdp", name
        # Every strategy benefits monotonically from more cache.
        for name in DATASETS:
            for s in STRATEGIES:
                t = [by_case[(name, c)]["times"][s] for c in self.CACHE_GB]
                assert all(a >= b - 1e-9 for a, b in zip(t, t[1:])), (name, s)

        # Caching pays off most where accesses are skewed: GDP's relative
        # epoch-time saving from the full cache is larger on PS than on FS.
        def gdp_saving(name):
            t0 = by_case[(name, 0.0)]["times"]["gdp"]
            t8 = by_case[(name, self.CACHE_GB[-1])]["times"]["gdp"]
            return (t0 - t8) / t0

        assert gdp_saving("ps") > gdp_saving("fs")
        # With a cache, FS favors a shuffling strategy.
        assert by_case[("fs", 4.0)]["best"] in ("snp", "dnp")
        assert result["apt"]["worst_ratio"] < 1.4


class Fig09Multimachine(SweepCase):
    """Paper Figure 9 — distributed training: 4 machines x 4 GPUs, 100 GbE.

    GraphSAGE, hidden-dimension sweep, features partitioned across machines
    without overlap.  Paper findings:

    * GDP and DNP generally perform well: GDP never ships hidden embeddings
      across machines, DNP ships at most one per destination;
    * SNP degrades sharply relative to its single-machine standing — its many
      partial embeddings now cross the (shared, slower) NIC;
    * NFP is worst: its allreduce volume scales with the GPU count.
    """

    name = "fig09_multimachine"
    label = "{dataset} 4x4 hidden={hidden}"

    def grid(self):
        return [({"dataset": n, "hidden": h}, Point(n, hidden=h, gpus=16, machines=4))
                for n in DATASETS for h in (8, 32, 128, 512)]

    def check(self, result: dict) -> None:
        for rec in result["records"]:
            times = rec["times"]
            # GDP or DNP is the winner in the distributed setting.
            assert rec["best"] in ("gdp", "dnp")
            # SNP never beats DNP here (its partials cross machines).
            assert times["dnp"] <= times["snp"] * 1.05
            # NFP is the worst strategy at every hidden dim.
            assert times["nfp"] >= max(times[s] for s in ("gdp", "dnp"))
        assert result["apt"]["worst_ratio"] < 1.4


class Table4AptSpeedup(Case):
    """Paper Table 4 — maximum speedup of APT over always-one-strategy.

    For each dataset, the maximum over all evaluated configurations (the
    Fig. 8 single-machine sweeps plus the Fig. 9 distributed sweep) of
    ``T(fixed strategy) / T(APT's choice)``.  The paper reports e.g. 7.57x
    over always-NFP on PS and >2x over most single strategies — the point
    being that no fixed strategy is safe.  The records come from the same
    memoized grid those four cases measure.
    """

    name = "table4_apt_speedup"

    def run(self, quick: bool) -> dict:
        records = {name: [] for name in DATASETS}
        for case in (
            Fig08aHiddenDim(), Fig08bFanout(), Fig08cCacheSize(), Fig09Multimachine()
        ):
            for rec in sweep(case.grid()):
                records[rec["dataset"]].append(rec)
        table = {
            name: {
                s: max(r["times"][s] / r["times"][r["apt_choice"]] for r in recs)
                for s in STRATEGIES
            }
            for name, recs in records.items()
        }
        quality = {name: selection_quality(recs) for name, recs in records.items()}
        return {"table": table, "quality": quality}

    def table(self, result: dict) -> List[str]:
        lines = [
            "(speedup of APT's choice over always using one strategy; "
            "max over the Fig. 8(a/b/c) and Fig. 9 grids)",
            f"{'dataset':<10}" + "".join(f"{s:>8}" for s in STRATEGIES),
        ]
        for name, row in result["table"].items():
            lines.append(f"{name:<10}" + "".join(f"{row[s]:>8.2f}" for s in STRATEGIES))
        return lines + [f"{name}: APT {q}" for name, q in result["quality"].items()]

    def check(self, result: dict) -> None:
        table = result["table"]
        for name, row in table.items():
            # Sticking to any singled-out strategy can be beaten by APT ...
            assert all(v >= 1.0 - 1e-9 for v in row.values())
            # ... NFP being by far the riskiest fixed choice (paper: 4.2-7.6x).
            assert row["nfp"] == max(row.values()), name
            assert row["nfp"] > 2.0, name
            # Among the shuffling strategies, DNP is the most robust fixed
            # choice (paper: 1.36-1.59x vs SNP's 2.1-3.3x).
            assert row["dnp"] <= min(row["snp"], row["nfp"]) + 1e-9, name
        # On at least one dataset, always-GDP is itself beaten by >1.5x (paper:
        # 2.13x on FS, 2.60x on IM) — no fixed strategy is safe.
        assert max(row["gdp"] for row in table.values()) > 1.5
        # APT's choices are near-optimal across the whole grid.
        for name, q in result["quality"].items():
            assert q["worst_ratio"] < 1.5, name


class Fig10Gat(SweepCase):
    """Paper Figure 10 — GAT (attention) on a single machine, hidden-dim sweep.

    Paper findings:

    * GDP and DNP handle attention well: each destination sees all its sources
      (complete view), so no extra communication;
    * SNP and NFP pay extra communication — SNP must distribute destination
      scores and ship (numerator, denominator) partial pairs; NFP must reduce
      the projections of *every source* before attention can run;
    * NFP's intermediates exceed GPU memory at large hidden dimensions (every
      GPU materializes projections for all sources of all subgraphs).
    """

    name = "fig10_gat"
    HEAD_DIMS = (8, 32, 128)
    HEADS = 4
    #: the paper's feature bytes per dataset, to scale the T4's 16 GB
    PAPER_FEATURE_GB = {"ps": 52.9, "fs": 62.6, "im": 128.0}

    def grid(self):
        return [({"dataset": n, "head_dim": d, "heads": self.HEADS},
                 Point(n, model="gat", hidden=d, heads=self.HEADS))
                for n in DATASETS for d in self.HEAD_DIMS]

    def run(self, quick: bool) -> dict:
        result = super().run(quick)
        for rec in result["records"]:
            # Memory budget at analog scale: the same fraction of the T4's
            # 16 GB that the analog's features are of the paper's features.
            scale = dataset(rec["dataset"]).feature_bytes / (
                self.PAPER_FEATURE_GB[rec["dataset"]] * 1e9
            )
            rec["oom"] = {
                s: rec["peak_intermediate_bytes"][s] > 16e9 * scale for s in STRATEGIES
            }
        return result

    def table(self, result: dict) -> List[str]:
        lines = []
        for rec in result["records"]:
            line = rows([rec], "{dataset} gat d_h={head_dim}x{heads}")[0]
            oom = [s for s, o in rec["oom"].items() if o]
            lines.append(line + (f"  OOM:{','.join(oom)}" if oom else ""))
        return lines + [f"APT selection: {result['apt']}"]

    def check(self, result: dict) -> None:
        by_case = {(r["dataset"], r["head_dim"]): r for r in result["records"]}
        for name in DATASETS:
            for head_dim in self.HEAD_DIMS:
                times = by_case[(name, head_dim)]["times"]
                # NFP is never competitive with the complete-view strategies.
                assert times["nfp"] > min(times["gdp"], times["dnp"]), (name, head_dim)
            # NFP's intermediate footprint is the largest of all strategies
            # (the paper's OOM mechanism: projections for every source on
            # every GPU).
            peaks = by_case[(name, self.HEAD_DIMS[-1])]["peak_intermediate_bytes"]
            assert peaks["nfp"] == max(peaks.values()), name
        # On the skewed graphs a complete-view strategy (GDP/DNP) always wins;
        # on the scattered FS analog SNP's cache locality can still win at small
        # head dims (divergence from the paper noted in EXPERIMENTS.md).
        for name in ("ps", "im"):
            for head_dim in self.HEAD_DIMS:
                assert by_case[(name, head_dim)]["best"] in ("gdp", "dnp")
        assert result["apt"]["worst_ratio"] < 1.4


class Fig11RandomPartition(SweepCase):
    """Paper Figure 11 — METIS-quality vs random graph partitions.

    GraphSAGE on a single machine, 8 GPUs, hidden 32.  Paper findings:

    * GDP and NFP are unaffected by partition quality (they do not use the
      partition for execution);
    * SNP and DNP degrade sharply under random partitioning: their caches lose
      locality (the hot nodes of a random part are scattered) and the number
      of virtual nodes / remote edges explodes.
    """

    name = "fig11_random_partition"
    label = "{dataset} {scheme}"

    def grid(self):
        return [
            ({"dataset": n, "scheme": scheme}, Point(n, random_parts=scheme == "random"))
            for n in DATASETS for scheme in ("metis", "random")
        ]

    def run(self, quick: bool) -> dict:
        return {"records": sweep(self.grid())}

    def table(self, result: dict) -> List[str]:
        return rows(result["records"], self.label)

    def check(self, result: dict) -> None:
        by_case = {(r["dataset"], r["scheme"]): r for r in result["records"]}
        for name in DATASETS:
            metis = by_case[(name, "metis")]["times"]
            rand = by_case[(name, "random")]["times"]
            # GDP and NFP unaffected (they ignore the partition).
            assert approx(rand["gdp"], metis["gdp"], rel=0.02, abs_tol=1e-12), name
            assert approx(rand["nfp"], metis["nfp"], rel=0.02, abs_tol=1e-12), name
            # SNP and DNP degrade under random partitioning.
            assert rand["snp"] > 1.10 * metis["snp"], name
            assert rand["dnp"] > 1.05 * metis["dnp"], name
        # Averaged over graphs the partition-dependent strategies lose >=15%.
        mean_snp = np.mean([
            by_case[(n, "random")]["times"]["snp"] / by_case[(n, "metis")]["times"]["snp"]
            for n in DATASETS
        ])
        assert mean_snp > 1.15


class PartitionQuality(Case):
    """The METIS stand-in's partition quality, the baseline its coarsening
    changes are held to.

    For each analog at 2 / 4 / 8 parts, even and weighted (half the parts
    twice as fast), the table records the edge-cut fraction against a
    random partition's, the largest part's overload of its target share,
    and the coarsening level sizes.  The claim is only what holds today:
    the cut is below random's and no part exceeds its share by more than
    ``balance_tol``.  ``fs`` does not coarsen at all (its first matching
    stalls), and ``ps`` / ``im`` stop far above the 4,000-node target.
    """

    name = "partition_quality"
    PARTS = (2, 4, 8)
    BALANCE_TOL = 0.08  # metis_like_partition's default

    def run(self, quick: bool) -> dict:
        records = []
        for name in DATASETS:
            graph = dataset(name).graph
            hierarchy = CoarseningHierarchy(graph, seed=0)
            for k in self.PARTS:
                for weighted in (False, True):
                    weights = [2.0] * (k // 2) + [1.0] * (k // 2) if weighted else None
                    share = (
                        np.full(k, 1.0 / k) if weights is None
                        else np.array(weights) / sum(weights)
                    )
                    parts = metis_like_partition(
                        graph, k, weights=weights, hierarchy=hierarchy,
                        balance_tol=self.BALANCE_TOL,
                    )
                    rand = random_partition(graph.num_nodes, k, seed=0, weights=weights)
                    load = np.bincount(parts, minlength=k) / (graph.num_nodes * share)
                    records.append({
                        "dataset": name, "parts": k, "weighted": weighted,
                        "cut": edge_cut_fraction(graph, parts),
                        "random_cut": edge_cut_fraction(graph, rand),
                        "imbalance": float(load.max() - 1.0),
                        **hierarchy.summary(),
                    })
        return {"records": records, "balance_tol": self.BALANCE_TOL}

    def table(self, result: dict) -> List[str]:
        out = []
        for r in result["records"]:
            levels = " -> ".join(str(n) for n in r["levels"])
            stop = ", stalled" if r["stalled"] else ""
            out.append(
                f"{r['dataset']} {r['parts']} parts "
                f"{'weighted' if r['weighted'] else 'even':<8} "
                f"cut {r['cut']:.4f} (random {r['random_cut']:.4f})  "
                f"imbalance {r['imbalance']:+.4f}  levels {levels} "
                f"(target {r['target']}{stop})"
            )
        return out

    def check(self, result: dict) -> None:
        tol = result["balance_tol"]
        for r in result["records"]:
            case = f"{r['dataset']} {r['parts']} parts weighted={r['weighted']}"
            assert r["cut"] < r["random_cut"], case
            # the refinement's own bound, up to the rounding of the ratio
            assert r["imbalance"] <= tol + 1e-9, case


class Fig12CostModel(Case):
    """Paper Figure 12 — cost-model accuracy: estimated vs actual epoch time.

    GraphSAGE on the Friendster analog, single machine, hidden-dim sweep.
    Following the paper's methodology: the cost models estimate only the
    strategy-specific terms; the common training-compute time is measured once
    from a GDP run (which does not shuffle hidden embeddings) and added to
    every strategy's estimate to form the full epoch-time prediction.  The
    paper reports a maximum estimation error of 5.5%.
    """

    name = "fig12_cost_model"
    HIDDEN_DIMS = (8, 32, 128)

    def run(self, quick: bool) -> dict:
        records = []
        for hidden in self.HIDDEN_DIMS:
            apt = Point("fs", hidden=hidden).build()
            plan = apt.plan()
            actual = apt.compare_all(num_epochs=1, numerics=False)
            # Common compute, measured on GDP: its 'training' time contains no
            # hidden shuffling.
            t_train_common = actual["gdp"].breakdown["training"]
            for name in STRATEGIES:
                est = plan.estimates[name].total + t_train_common
                act = actual[name].epoch_seconds
                records.append({
                    "hidden": hidden, "strategy": name, "estimated": est,
                    "actual": act, "error": (est - act) / act,
                })
        return {"records": records, "max_error": max(abs(r["error"]) for r in records)}

    def table(self, result: dict) -> List[str]:
        lines = [f"{'case':<16}{'estimated':>12}{'actual':>12}{'error':>9}"]
        for r in result["records"]:
            lines.append(
                f"fs h={r['hidden']:<4} {r['strategy']:<6}"
                f"{r['estimated'] * 1e3:>10.3f}ms{r['actual'] * 1e3:>10.3f}ms"
                f"{r['error'] * 100:>+8.1f}%"
            )
        return lines + [f"max |error| = {result['max_error'] * 100:.1f}% (paper: 5.5%)"]

    def check(self, result: dict) -> None:
        # Estimates track the simulated ground truth closely ...
        assert result["max_error"] < 0.25
        # ... and, crucially for selection, preserve the per-case ranking of
        # the top-2 strategies.
        for hidden in self.HIDDEN_DIMS:
            case = [r for r in result["records"] if r["hidden"] == hidden]
            by_est = sorted(case, key=lambda r: r["estimated"])
            by_act = sorted(case, key=lambda r: r["actual"])
            assert by_est[0]["strategy"] in (by_act[0]["strategy"], by_act[1]["strategy"])


# ---------------------------------------------------------------------- #
# extensions beside the paper
# ---------------------------------------------------------------------- #
class AblationCachePolicy(Case):
    """Ablation — what the dry-run access census buys the caches.

    The §3.2 cache policies rank nodes by dry-run access frequency.  Related
    systems use cheaper static proxies: PaGraph/Quiver cache by in-degree,
    and a random cache is the floor.  This ablation runs GDP (the strategy
    most sensitive to cache quality) under the three rankings and compares
    simulated feature-loading time: the census is at least as good as the
    degree proxy, both clearly beat a random cache.
    """

    name = "ablation_cache_policy"

    def run(self, quick: bool) -> dict:
        records = []
        for name in DATASETS:
            ds = dataset(name)
            rankings = {
                "dryrun_census": access_frequency_census(
                    ds, [10, 10, 10], 8 * BATCH_PER_GPU, sampler_seed=0
                ),
                "in_degree": ds.graph.in_degrees.astype(np.float64),
                "random": rng_from(0xCACE, 1).random(ds.num_nodes),
            }
            row = {"dataset": name, "loading": {}, "epoch": {}}
            for policy, ranking in rankings.items():
                apt = Point(name).build()
                # Override the hotness signal the cache policies consume.
                apt.access_freq = ranking
                result = apt.run_strategy("gdp", 1, numerics=False)
                row["loading"][policy] = result.breakdown["loading"]
                row["epoch"][policy] = result.epoch_seconds
            records.append(row)
        return {"records": records}

    def table(self, result: dict) -> List[str]:
        return [
            f"{row['dataset']:<4} load-time " + " ".join(
                f"{p}={t * 1e3:7.3f}ms" for p, t in row["loading"].items()
            )
            for row in result["records"]
        ]

    def check(self, result: dict) -> None:
        records = result["records"]
        for row in records:
            load = row["loading"]
            # The dry-run census is at least as good as the degree proxy, and
            # both clearly beat a random cache.
            assert load["dryrun_census"] <= load["in_degree"] * 1.02, row["dataset"]
            assert load["dryrun_census"] < load["random"], row["dataset"]
        # On the skewed graph the census cache must be dramatically better
        # than random (its hot set absorbs ~70% of accesses).
        ps = next(r for r in records if r["dataset"] == "ps")
        assert ps["loading"]["dryrun_census"] < 0.8 * ps["loading"]["random"]


class AblationNvlinkCache(Case):
    """Ablation — unified peer-GPU caching under fast inter-GPU links.

    The paper's platform (T4 + PCIe 3.0) has no NVLink, so its feature map
    never uses the peer-GPU tier.  This ablation asks what changes on an
    NVLink-equipped machine: with fast links, GDP can stripe one DSP/Quiver-
    style *unified* cache across the GPUs (union capacity C times larger, any
    row one peer-hop away) instead of replicating the same hot set per GPU.

    Finding: the unified cache cuts GDP's feature-loading time on every graph,
    and — perhaps counter-intuitively — most on the *skewed* PS graph: its
    replicated per-GPU hot set already catches the top of the distribution,
    but the remaining miss mass is concentrated just beyond it, exactly where
    the C-times-larger union cache reaches.  On scattered FS, even the union
    cache (~half the graph) still misses a long uniform tail.
    """

    name = "ablation_nvlink_cache"

    def run(self, quick: bool) -> dict:
        records = []
        for name in DATASETS:
            ds = dataset(name)
            row = {"dataset": name}
            for label, nvlink in (("pcie_replicated", False), ("nvlink_unified", True)):
                machine = MachineSpec(
                    num_gpus=8,
                    nvlink=LinkSpec(bandwidth=250e9, latency=3e-6) if nvlink else None,
                )
                cluster = ClusterSpec(
                    machines=(machine,), gpu_cache_bytes=scaled_gpu_cache_bytes(ds)
                )
                model = make_model("sage", ds, hidden=32)
                apt = build_apt(ds, model, cluster, partition(name, 8))
                result = apt.run_strategy("gdp", 1, numerics=False)
                row[label] = {
                    "loading": result.breakdown["loading"],
                    "epoch": result.epoch_seconds,
                }
            row["load_speedup"] = (
                row["pcie_replicated"]["loading"] / row["nvlink_unified"]["loading"]
            )
            records.append(row)
        return {"records": records}

    def table(self, result: dict) -> List[str]:
        return [
            f"{row['dataset']:<4} gdp load: "
            f"replicated={row['pcie_replicated']['loading'] * 1e3:7.3f}ms "
            f"unified+nvlink={row['nvlink_unified']['loading'] * 1e3:7.3f}ms "
            f"speedup={row['load_speedup']:.2f}x"
            for row in result["records"]
        ]

    def check(self, result: dict) -> None:
        by_ds = {r["dataset"]: r for r in result["records"]}
        # The unified cache helps substantially everywhere...
        for r in result["records"]:
            assert r["load_speedup"] > 1.5, r["dataset"]
        # ...and most on the skewed graph, whose miss mass sits just beyond the
        # replicated hot set (see the docstring).
        assert by_ds["ps"]["load_speedup"] > by_ds["fs"]["load_speedup"]


class AblationOverlap(Case):
    """Ablation — prefetch pipelining (overlap sampling/loading with training).

    Production loaders (DGL's prefetching dataloader) overlap batch ``i+1``'s
    sampling and feature loading with batch ``i``'s training, so a batch costs
    ``max(prep, compute)`` rather than their sum.  The paper's Eq. 2 is
    additive; this ablation shows how pipelining reshapes (but does not
    invert) the strategy trade-offs:

    Finding: the speedup of pipelining a strategy is
    ``(prep + compute) / max(prep, compute)`` — maximal (up to 2x) when the
    two stages are balanced.  Which strategy benefits most is therefore
    config-dependent: GDP hides its feature loading behind training, but NFP
    can gain even more where its computation-graph broadcast (a prep-stage
    cost) roughly balances its shuffle-heavy compute stage.  The *ranking*
    of strategies is largely preserved.
    """

    name = "ablation_overlap"

    def run(self, quick: bool) -> dict:
        records = []
        for name in ("ps", "fs"):
            for hidden in (32, 128):
                row = {"dataset": name, "hidden": hidden}
                for mode in (False, True):
                    results = Point(name, hidden=hidden).build(overlap=mode).compare_all(
                        num_epochs=1, numerics=False
                    )
                    row["overlap" if mode else "additive"] = {
                        s: r.epoch_seconds for s, r in results.items()
                    }
                row["gdp_gain"] = row["additive"]["gdp"] / row["overlap"]["gdp"]
                records.append(row)
        return {"records": records}

    def table(self, result: dict) -> List[str]:
        return [
            f"{row['dataset']} h={row['hidden']:<4} {mode:<8}: "
            + " ".join(f"{s}={row[mode][s] * 1e3:7.3f}" for s in STRATEGIES)
            for row in result["records"]
            for mode in ("additive", "overlap")
        ]

    def check(self, result: dict) -> None:
        for row in result["records"]:
            gains = {s: row["additive"][s] / row["overlap"][s] for s in STRATEGIES}
            for s, g in gains.items():
                # Pipelining never hurts, and a two-stage pipeline can at most
                # double throughput.
                assert 1.0 - 1e-9 <= g <= 2.0 + 1e-9, (row["dataset"], s, g)
            # GDP gains materially (its big feature loads hide behind compute).
            assert gains["gdp"] > 1.1, row


class AblationPlanner(Case):
    """Ablation — what the planner's cost-model terms contribute.

    DESIGN.md calls out two modelling choices beyond the paper's Eq. 2 terms:

    1. the **per-message latency** term in T_shuffle (dominant at small hidden
       dimensions, where volumes are tiny but SNP still exchanges many small
       messages);
    2. the **compute-skew** term (this reproduction's extension): SNP/DNP
       inherit first-layer compute imbalance from source/destination
       popularity, which the paper's "T_train is identical" argument ignores.

    Planner variants are scored on a selection grid: the full model never
    selects worse than the volume-only one and is near-oracle.
    """

    name = "ablation_planner"

    def run(self, quick: bool) -> dict:
        cases = []
        for name in DATASETS:
            for hidden in (8, 128):
                apt = Point(name, hidden=hidden).build()
                stats = {s: apt.context.dryrun.run(s) for s in STRATEGIES}
                actual = apt.compare_all(num_epochs=1, numerics=False)
                cases.append((apt.cluster, dataset(name).feature_dim, stats,
                              {s: r.epoch_seconds for s, r in actual.items()}))

        def score(*, skew: bool, latency: bool) -> dict:
            """Selection quality of a planner variant over the grid."""
            hits, ratios = 0, []
            for cluster, feature_dim, stats, times in cases:
                cm = CostModel(cluster, feature_dim, include_compute_skew=skew)
                if not latency:
                    cm.profile["msg_latency"] = 0.0
                choice = Planner(cm).select(stats).chosen
                best = min(times, key=times.get)
                hits += choice == best
                ratios.append(times[choice] / times[best])
            return {
                "optimal_picks": hits,
                "cases": len(cases),
                "mean_ratio": float(np.mean(ratios)),
                "worst_ratio": float(np.max(ratios)),
            }

        return {
            "paper_eq2_only": score(skew=False, latency=False),
            "+latency": score(skew=False, latency=True),
            "+latency+skew (full)": score(skew=True, latency=True),
        }

    def table(self, result: dict) -> List[str]:
        return [f"{'variant':<24}{'optimal':>9}{'mean ratio':>12}{'worst ratio':>13}"] + [
            f"{name:<24}{v['optimal_picks']:>6}/{v['cases']:<2}"
            f"{v['mean_ratio']:>12.3f}{v['worst_ratio']:>13.3f}"
            for name, v in result.items()
        ]

    def check(self, result: dict) -> None:
        full = result["+latency+skew (full)"]
        base = result["paper_eq2_only"]
        # The full model never selects worse than the volume-only model.
        assert full["optimal_picks"] >= base["optimal_picks"]
        assert full["mean_ratio"] <= base["mean_ratio"] + 1e-9
        # And it is near-oracle on this grid.
        assert full["worst_ratio"] < 1.25


class GeneralityGcn(SweepCase):
    """Extension — generality check: the Fig. 8(a) sweep with a GCN.

    APT treats the model as a black box; a mean-normalized GCN should exhibit
    the same strategy trade-offs as GraphSAGE (it has the same communication
    structure: one d'-vector per destination, partial (sum, count) algebra).
    The hidden-dimension sweep repeated with GCN keeps the headline
    crossovers.
    """

    name = "generality_gcn"
    label = "{dataset} gcn hidden={hidden}"

    def grid(self):
        return [({"dataset": n, "hidden": h}, Point(n, model="gcn", hidden=h))
                for n in ("ps", "fs") for h in (8, 128, 512)]

    def check(self, result: dict) -> None:
        by_case = {(r["dataset"], r["hidden"]): r for r in result["records"]}
        # Same headline shape as GraphSAGE:
        # PS favors GDP throughout; FS favors a shuffling strategy at small
        # hidden dims and GDP at 512.
        for hidden in (8, 128, 512):
            assert by_case[("ps", hidden)]["best"] == "gdp"
        assert by_case[("fs", 8)]["best"] in ("snp", "dnp")
        fs512 = by_case[("fs", 512)]["times"]
        assert fs512["gdp"] <= 1.05 * min(fs512.values())
        # NFP grows fastest with hidden dim, as for SAGE.
        for name in ("ps", "fs"):
            growth = {
                s: by_case[(name, 512)]["times"][s] / by_case[(name, 8)]["times"][s]
                for s in STRATEGIES
            }
            assert max(growth, key=growth.get) == "nfp"
        assert result["apt"]["worst_ratio"] < 1.4


class HybridStrategy(Case):
    """Extension — the paper's future-work hybrid (GDP x machines, SNP inside).

    Paper §5.2 conjecture: "it is possible to use GDP to coordinate different
    machines in order to avoid shuffling hidden embeddings among machines, and
    SNP for the GPUs on each machine to effectively utilize the GPU cache for
    graphs like FS."

    Tested on the 4x4 distributed setup: for the scattered-access FS graph at
    small/medium hidden dimensions, the hybrid beats both pure GDP (better
    cache utilization inside machines) and pure SNP (no hidden embeddings on
    the NIC).
    """

    name = "hybrid_strategy"
    STRATS = ("gdp", "nfp", "snp", "dnp", "hyb")

    def run(self, quick: bool) -> dict:
        records = []
        for name, hidden in (("fs", 8), ("fs", 32), ("fs", 128), ("ps", 32), ("im", 32)):
            apt = Point(name, hidden=hidden, gpus=16, machines=4).build()
            results = apt.compare_all(
                num_epochs=1, numerics=False, strategies=self.STRATS
            )
            times = {s: r.epoch_seconds for s, r in results.items()}
            # The design property: the hybrid ships no hidden embeddings
            # across machines.
            machines = np.array([apt.cluster.machine_of(d) for d in range(16)])
            cross = machines[:, None] != machines[None, :]
            records.append({
                "dataset": name,
                "hidden": hidden,
                "times": times,
                "hyb_inter_machine_hidden_bytes": float(
                    results["hyb"].recorder.hidden_bytes[cross].sum()
                ),
                "best": min(times, key=times.get),
            })
        return {"records": records}

    def table(self, result: dict) -> List[str]:
        return [
            f"{r['dataset']} 4x4 hidden={r['hidden']:<4} "
            + " ".join(f"{s}={r['times'][s] * 1e3:8.3f}ms" for s in self.STRATS)
            + f"  best={r['best']}"
            for r in result["records"]
        ]

    def check(self, result: dict) -> None:
        by_case = {(r["dataset"], r["hidden"]): r for r in result["records"]}
        for rec in result["records"]:
            # The design property holds everywhere.
            assert rec["hyb_inter_machine_hidden_bytes"] == 0.0
        # The paper's conjecture, on FS at small/medium hidden dims: the hybrid
        # beats both of its parents.
        for hidden in (8, 32):
            t = by_case[("fs", hidden)]["times"]
            assert t["hyb"] < t["gdp"], hidden
            assert t["hyb"] < t["snp"], hidden
        # And it degrades gracefully where GDP rules (skewed PS): within 2x.
        t = by_case[("ps", 32)]["times"]
        assert t["hyb"] < 2.0 * t["gdp"]


class OnlineReplan(Case):
    """Online adaptivity — drift-triggered re-planning under link degradation.

    The paper's Plan step picks one strategy up front; this reproduction's
    online-adaptivity extension keeps planning *during* the run.  The scenario:
    a distributed PS-analog training run starts on the planner's clean-cluster
    choice (GDP), then the Ethernet degrades 10x mid-run (a congested or
    renegotiated link).  The drift detector notices the observed load phase
    diverging from the cost-model estimate, re-profiles on the degraded
    cluster, and hot-switches to DNP between epochs — without touching model
    state.

    The adaptive run beats every fixed strategy under the identical fault
    schedule: the fixed choices either start slow (DNP pre-fault) or end slow
    (GDP post-fault).  A no-fault control run must re-plan zero times and
    match the fixed run of the same strategy to within bandwidth-noise
    tolerance — telemetry and drift detection stay off the simulated-time
    path.
    """

    name = "online_replan"
    MACHINES, GPUS = 4, 8
    EPOCHS = 12
    FAULT_EPOCH = 6
    DEGRADE = 0.1  # Ethernet at 10% of nominal bandwidth

    def _apt(self, replan: bool) -> APT:
        ds = dataset("ps")
        cluster = cluster_for(ds, num_gpus=self.GPUS, num_machines=self.MACHINES)
        model = make_model("sage", ds, hidden=96)
        apt = APT(ds, model, cluster, APTConfig(
            fanouts=(10, 10, 10),
            global_batch_size=cluster.num_devices * BATCH_PER_GPU,
            partition=partition("ps", cluster.num_devices),
            seed=0,
            replan=replan,
        ))
        apt.prepare()
        return apt

    def run(self, quick: bool) -> dict:
        faults = FaultSchedule(
            [FaultEvent(
                epoch=self.FAULT_EPOCH, kind="link_degrade", factor=self.DEGRADE
            )]
        )
        # Adaptive: plan once, then re-plan on drift.
        apt = self._apt(replan=True)
        apt.plan()
        adaptive = apt.run(self.EPOCHS, faults=faults, numerics=False)
        # Every fixed strategy under the identical schedule.
        fixed = {
            name: self._apt(replan=False).run_strategy(
                name, self.EPOCHS, faults=faults, numerics=False
            ).wall_seconds
            for name in STRATEGIES
        }
        # No-fault control: adaptivity enabled, nothing drifts.
        control_apt = self._apt(replan=True)
        control_apt.plan()
        control = control_apt.run(self.EPOCHS, numerics=False)
        baseline = self._apt(replan=False).run_strategy(
            control.strategy, self.EPOCHS, numerics=False
        )
        return {
            "adaptive": adaptive.to_dict(),
            "fixed": fixed,
            "control_replans": control.num_replans,
            "control_epoch_seconds": control.epoch_seconds,
            "baseline_epoch_seconds": baseline.epoch_seconds,
        }

    def table(self, result: dict) -> List[str]:
        adaptive = result["adaptive"]
        lines = [
            f"(PS analog, {self.MACHINES}x{self.GPUS // self.MACHINES} GPUs, "
            f"{self.EPOCHS} epochs; Ethernet degraded to {self.DEGRADE:.0%} at "
            f"epoch {self.FAULT_EPOCH})",
            f"{'run':<14}{'wall':>12}  strategy path",
            f"{'adaptive':<14}{adaptive['result']['wall_seconds'] * 1e3:>10.3f}ms  "
            + " ".join(adaptive["strategy_by_epoch"]),
        ]
        lines += [
            f"{'fixed ' + n:<14}{s * 1e3:>10.3f}ms" for n, s in result["fixed"].items()
        ]
        lines += [
            f"re-plan after epoch {rp['epoch']}: drift {rp['drift']['max_abs']:.2f} on "
            f"{rp['drift']['worst_term']}; {rp['old_strategy']} -> {rp['new_strategy']}"
            for rp in adaptive["replans"]
        ]
        lines.append(
            f"no-fault control: {result['control_replans']} re-plans, "
            f"{result['control_epoch_seconds'] * 1e3:.3f}ms/epoch vs "
            f"{result['baseline_epoch_seconds'] * 1e3:.3f}ms/epoch plain"
        )
        return lines

    def check(self, result: dict) -> None:
        adaptive = result["adaptive"]
        wall = adaptive["result"]["wall_seconds"]
        # The detector re-planned and actually switched strategies mid-run.
        assert len(adaptive["replans"]) >= 1
        assert [r["epoch"] for r in adaptive["replans"] if r["switched"]], (
            "drift never caused a strategy switch"
        )
        assert len(set(adaptive["strategy_by_epoch"])) > 1
        # Telemetry recorded the fault and the switch.
        assert adaptive["faults"] and adaptive["faults"][0]["epoch"] == self.FAULT_EPOCH
        assert adaptive["telemetry"]["events_by_kind"]["fault"] >= 1
        assert adaptive["telemetry"]["events_by_kind"]["replan"] >= 1
        # The adaptive run beats every fixed strategy under the same faults.
        for name, seconds in result["fixed"].items():
            assert wall < seconds, (
                f"adaptive {wall:.3e}s not faster than fixed {name} {seconds:.3e}s"
            )
        # Without faults nothing drifts: zero re-plans, and the adaptive
        # machinery costs nothing on the simulated clock.
        assert result["control_replans"] == 0
        assert approx(
            result["control_epoch_seconds"], result["baseline_epoch_seconds"],
            rel=0.05, abs_tol=1e-12,
        )
