"""Command-line interface: ``python -m repro <command>``.

Every workflow command is three steps: build the task (and its one
:class:`~repro.config.APTConfig`) from the flags, call the API, print the
report — its ``summary()`` text, or under ``--json`` its schema-versioned
JSON.  Training and serving share the task flags.  Bad input ends every
command in one ``error:`` line on stderr.

``plan``
    Dry-run the strategies on a dataset analog and print the cost-model
    ranking by ``--objective``: epoch seconds (default; the paper's Plan
    step), predicted p99 per-request serving latency at ``--policy``
    (DESIGN.md §5.13) or dollars per epoch (§5.17); ``--layerwise``
    beam-searches per-layer compositions instead (§5.15).
``run``
    Train with a chosen (or auto-selected) strategy and report simulated
    epoch times, losses, per-device utilization, re-layout traffic and the
    disk tier.  ``--inject FILE`` applies a fault schedule (see
    :mod:`repro.cluster.faults`), ``--replan`` turns on drift-triggered
    re-planning with mid-run strategy switching, ``--trace FILE`` also
    writes a ``chrome://tracing`` JSON of the simulated timeline.
``serve``
    Answer a seeded synthetic request stream from a trained model with
    dynamic batching (``--policy "<max_batch>:<max_wait_ms>"``) and report
    the latency percentiles.  ``--checkpoint-dir`` serves the latest
    checkpoint (auto-training one first when the directory is empty).
``gen``
    Generate an on-disk streaming dataset directory; ``--dataset-dir``
    trains on it with the feature store's disk tier active (§5.14).
``loadgen``
    Emit the synthetic request stream itself (for offline inspection or
    replay): Zipf skew, bursts, diurnal modulation, hot-set drift.
``compare``
    Run every strategy from the same initial model and print the paper-
    style epoch-time table.

Examples::

    python -m repro plan --dataset fs --hidden 32 --json
    python -m repro plan --objective latency --policy 32:2
    python -m repro run --inject faults.json --replan --epochs 8 --json
    python -m repro run --strategy dnp --epochs 1 --trace trace.json
    python -m repro gen /tmp/ds --nodes 1000000 --feature-dim 128
    python -m repro serve --requests 2048 --policy 32:2 --checkpoint-dir ck/
    python -m repro compare --dataset fs --machines 4 --gpus 16 --hybrid
"""

from __future__ import annotations

import argparse
import json
from typing import Tuple

from repro.cluster import (
    multi_machine_cluster, parse_cluster_spec, single_machine_cluster,
)
from repro.config import APTConfig, PAPER_CACHE_GB, scaled_gpu_cache_bytes
from repro.core import APT
from repro.graph import load_dataset, open_streaming_dataset, write_streaming_dataset
from repro.models import GAT, GCN, GraphSAGE

#: Flags whose ``dest`` is the :class:`~repro.config.APTConfig` field they
#: set.  They default to ``argparse.SUPPRESS``, so the namespace holds
#: exactly the ones given and every other field keeps the config default.
_CONFIG_FLAGS = (
    "partition", "disk_promote_mb", "execution_backend", "num_workers",
    "prefetch_depth", "checkpoint_dir", "checkpoint_every", "checkpoint_keep",
    "elastic", "replan",
)


def _add_task_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", choices=("ps", "fs", "im"), default="fs",
                   help="dataset analog (paper Table 2 abbreviations)")
    p.add_argument("--dataset-dir", metavar="DIR", default=None,
                   help="train on an on-disk streaming dataset directory "
                        "(from `repro gen`) instead of --dataset/--nodes; "
                        "features stay memory-mapped and the store's disk "
                        "tier activates (DESIGN.md §5.14)")
    p.add_argument("--nodes", type=int, default=12_000,
                   help="analog size in nodes")
    p.add_argument("--partition", choices=("metis", "streaming", "random"),
                   default=argparse.SUPPRESS,
                   help="graph partitioner (default: metis; --dataset-dir "
                        "defaults to the coarsen-once streaming partitioner)")
    p.add_argument("--disk-promote-mb", type=int, default=argparse.SUPPRESS,
                   help="hot-row promotion budget of the disk tier in MiB "
                        "(default 64; 0 disables promotion)")
    p.add_argument("--model", choices=("sage", "gat", "gcn"), default="sage")
    p.add_argument("--hidden", type=int, default=32,
                   help="hidden dim (GAT: per-head dim)")
    p.add_argument("--layers", type=int, default=3)
    p.add_argument("--heads", type=int, default=4, help="GAT attention heads")
    p.add_argument("--fanout", type=int, nargs="+", default=None,
                   help="per-layer fanouts, input layer first")
    p.add_argument("--machines", type=int, default=1)
    p.add_argument("--gpus", type=int, default=8, help="total GPUs")
    p.add_argument("--cluster", metavar="SPEC", default=None,
                   help="heterogeneous cluster spec overriding --machines/"
                        "--gpus: comma-separated '<count>x<gpus>:<class>' "
                        "groups, e.g. '1x4:a100,2x4:t4' (classes: t4, v100, "
                        "a100, cpu; DESIGN.md §5.17)")
    p.add_argument("--cache-gb", type=float, default=PAPER_CACHE_GB,
                   help="per-GPU cache (paper-GB, rescaled to the analog)")
    p.add_argument("--batch-per-gpu", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--backend", choices=("serial", "process"),
                   dest="execution_backend", default=argparse.SUPPRESS,
                   help="execution backend (default: REPRO_EXECUTION_BACKEND "
                        "env var or 'serial'); 'process' samples batches in a "
                        "forked worker processes with pipelined prefetch")
    p.add_argument("--workers", type=int, dest="num_workers", metavar="N",
                   default=argparse.SUPPRESS,
                   help="process-backend pool size (default: auto)")
    p.add_argument("--prefetch-depth", type=int, default=argparse.SUPPRESS,
                   help="global batches sampled ahead of the numerics "
                        "(0 disables pipelining; default 2)")


def _add_common_flags(p: argparse.ArgumentParser, *, checkpoint: bool = False) -> None:
    """The output/state flags every workflow command shares."""
    p.add_argument("--json", action="store_true",
                   help="emit the command's report as JSON instead of text")
    if checkpoint:
        p.add_argument("--checkpoint-dir", metavar="DIR",
                       default=argparse.SUPPRESS,
                       help="checkpoint directory (run: write into it; "
                            "serve: load the latest checkpoint from it, "
                            "auto-training one first when empty)")


def _add_loadgen_args(p: argparse.ArgumentParser) -> None:
    """Request-stream shape flags shared by ``serve`` and ``loadgen``."""
    p.add_argument("--requests", type=int, default=2048,
                   help="number of requests to generate/answer")
    p.add_argument("--loadgen-seed", type=int, default=None,
                   help="request-stream seed (default: --seed)")
    p.add_argument("--rate", type=float, default=1000.0,
                   help="open-loop arrival rate in requests per simulated "
                        "second; 0 = closed loop (fully backlogged)")
    p.add_argument("--zipf-a", type=float, default=1.2,
                   help="Zipf popularity exponent (> 1)")
    p.add_argument("--drift-every", type=float, default=0.0,
                   help="rotate the hot set every SECONDS (0 disables)")
    p.add_argument("--drift-shift", type=int, default=None,
                   help="popularity ranks rotated per drift window")
    p.add_argument("--burst-every", type=float, default=0.0)
    p.add_argument("--burst-len", type=float, default=0.0)
    p.add_argument("--burst-factor", type=float, default=4.0)
    p.add_argument("--diurnal-period", type=float, default=0.0)
    p.add_argument("--diurnal-amplitude", type=float, default=0.0)


def _make_loadgen(args, num_nodes: int):
    from repro.serve import LoadGenerator

    seed = args.loadgen_seed if args.loadgen_seed is not None else args.seed
    return LoadGenerator(
        num_nodes,
        seed=seed,
        rate=args.rate if args.rate > 0 else None,
        zipf_a=args.zipf_a,
        drift_every=args.drift_every,
        drift_shift=args.drift_shift,
        burst_every=args.burst_every,
        burst_len=args.burst_len,
        burst_factor=args.burst_factor,
        diurnal_period=args.diurnal_period,
        diurnal_amplitude=args.diurnal_amplitude,
    )


def _build(args, **config) -> Tuple[APT, str]:
    """The prepared task the flags describe, and its one-line description.

    ``config`` holds the :class:`~repro.config.APTConfig` fields no flag
    sets directly (the host half of ``--inject``); the config is built
    once, here, and no command changes it afterwards.
    """
    if args.dataset_dir is not None:
        try:
            ds = open_streaming_dataset(args.dataset_dir)
        except (FileNotFoundError, ValueError) as exc:
            raise SystemExit(f"error: bad dataset dir {args.dataset_dir!r}: {exc}")
        # Out-of-core graphs default to the coarsen-once partitioner — the
        # full multilevel METIS analog would materialize per-level copies.
        config["partition"] = "streaming"
    else:
        ds = load_dataset(args.dataset, n=args.nodes)
    cache = scaled_gpu_cache_bytes(ds, args.cache_gb) if args.cache_gb > 0 else 0.0
    if args.cluster is not None:
        try:
            cluster = parse_cluster_spec(args.cluster, gpu_cache_bytes=cache)
        except ValueError as exc:
            raise SystemExit(f"error: bad --cluster spec: {exc}")
    elif args.machines < 1 or args.gpus < 1 or args.gpus % args.machines:
        raise SystemExit(
            f"error: --gpus {args.gpus} is not a positive multiple of "
            f"--machines {args.machines}"
        )
    elif args.machines == 1:
        cluster = single_machine_cluster(args.gpus, gpu_cache_bytes=cache)
    else:
        cluster = multi_machine_cluster(
            args.machines, args.gpus // args.machines, gpu_cache_bytes=cache
        )
    if args.model == "gat":
        model = GAT(ds.feature_dim, args.hidden, ds.num_classes,
                    args.layers, args.heads, seed=args.seed)
    else:
        model = {"sage": GraphSAGE, "gcn": GCN}[args.model](
            ds.feature_dim, args.hidden, ds.num_classes, args.layers,
            seed=args.seed,
        )
    fanouts = args.fanout or [10] * args.layers
    config.update((k, v) for k, v in vars(args).items() if k in _CONFIG_FLAGS)
    apt = APT(ds, model, cluster, APTConfig(
        fanouts=tuple(fanouts),
        global_batch_size=cluster.num_devices * args.batch_per_gpu,
        seed=args.seed,
        **config,
    ))
    apt.prepare()
    source = args.dataset_dir if args.dataset_dir is not None else args.dataset
    task = (
        f"task: {source} ({ds.num_nodes} nodes, "
        f"{ds.graph.num_edges} edges, d={ds.feature_dim}), "
        f"{args.model} x{args.layers}, fanouts={fanouts}, "
        f"{cluster.num_devices} GPUs on {cluster.num_machines} machine(s)"
    )
    return apt, task


def _show(args, task: str, report, *, notes=(), tail=()) -> int:
    """Print a command's report: its JSON under ``--json``, else the task
    line and ``notes``, a blank line, the report's text and ``tail``."""
    print(report.to_json(indent=2) if args.json else "\n".join(
        [task, *notes, "", report.summary(), *tail]
    ))
    return 0


def _strategy_spec(value: str) -> str:
    """argparse type for ``--strategy``: 'auto', a single strategy name, or
    a per-layer composition ``layerwise:<s0>,<s1>,...``."""
    from repro.engine import STRATEGIES, is_layerwise_spec, parse_layerwise

    v = value.strip().lower()
    if v == "auto" or v in STRATEGIES:
        return v
    if is_layerwise_spec(v):
        try:
            parse_layerwise(v)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return v
    raise argparse.ArgumentTypeError(
        f"unknown strategy {value!r}: expected auto, one of "
        f"{sorted(STRATEGIES)}, or 'layerwise:<s0>,<s1>,...'"
    )


def cmd_plan(args) -> int:
    from repro.serve import BatchingPolicy

    budgets = (args.budget_seconds, args.budget_dollars)
    if args.layerwise and (args.objective != "epoch" or args.strategy
                           or budgets != (None, None)):
        raise ValueError(
            "--layerwise searches compositions by epoch seconds; it takes "
            "no --objective, --strategy or budget"
        )
    policy = BatchingPolicy.parse(args.policy)
    apt, task = _build(args)
    if args.layerwise:
        report = apt.plan_layerwise(beam_width=args.beam_width)
    else:
        report = apt.plan(
            strategies=[s for s in args.strategy or () if s != "auto"] or None,
            objective=args.objective,
            budget_seconds=args.budget_seconds,
            budget_dollars=args.budget_dollars,
            batch_size=policy.max_batch_size,
            max_wait_s=policy.max_wait_s,
        )
    return _show(args, task, report)


def cmd_run(args) -> int:
    from repro.parallel.chaos import split_injections

    faults = chaos = None
    if args.inject is not None:
        # One file drives both layers: its "events" degrade the simulated
        # cluster at epoch boundaries, its "host_events" inject real process
        # faults (kill/hang) into the worker pool.
        try:
            faults, chaos = split_injections(args.inject)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise SystemExit(f"error: bad fault schedule {args.inject!r}: {exc}")
    apt, task = _build(args, host_chaos=chaos)
    report = apt.run(
        num_epochs=args.epochs,
        strategy=None if args.strategy == "auto" else args.strategy,
        lr=args.lr,
        faults=faults,
        resume=args.resume,
    )
    tail = []
    if faults is not None and not report.faults:
        tail.append("fault schedule supplied but no fault fired within the run")
    if args.trace:
        with open(args.trace, "w") as fh:
            json.dump(report.result.chrome_trace(), fh)
        tail.append(f"chrome trace written to {args.trace}")
    return _show(args, task, report, tail=tail)


def cmd_serve(args) -> int:
    from repro.config import ServeConfig
    from repro.core.checkpoint import CheckpointManager
    from repro.serve import BatchingPolicy, ServeEngine

    policy = BatchingPolicy.parse(args.policy)
    apt, task = _build(args)
    checkpoint_dir = apt.config.checkpoint_dir
    notes = []
    if checkpoint_dir is None or CheckpointManager(checkpoint_dir).latest() is None:
        if args.train_epochs > 0:
            # An empty/missing checkpoint directory is trained into first,
            # so `repro serve --checkpoint-dir fresh/` works in one command.
            if checkpoint_dir is not None:
                notes.append(f"no checkpoint under {checkpoint_dir!r}; "
                             f"training {args.train_epochs} epoch(s) first")
            apt.run(num_epochs=args.train_epochs)
        else:
            checkpoint_dir = None  # nothing to load: serve the untrained model
    engine = ServeEngine(
        apt,
        config=ServeConfig(
            max_batch_size=policy.max_batch_size,
            max_wait_s=policy.max_wait_s,
            cache_policy=args.cache_policy,
            drift_threshold=args.drift_threshold,
            drift_window=args.drift_window,
        ),
        strategy=None if args.strategy == "auto" else args.strategy,
        checkpoint_dir=checkpoint_dir,
    )
    stream = _make_loadgen(args, apt.dataset.num_nodes).generate(args.requests)
    return _show(args, task, engine.serve(stream), notes=notes)


def cmd_gen(args) -> int:
    import numpy as np

    out = write_streaming_dataset(
        args.out,
        num_nodes=args.nodes,
        avg_degree=args.avg_degree,
        feature_dim=args.feature_dim,
        num_classes=args.classes,
        kind=args.kind,
        seed=args.seed,
        train_fraction=args.train_fraction,
        exponent=args.exponent,
    )
    with open(out / "meta.json") as fh:
        meta = json.load(fh)
    num_train = int(np.load(out / "train_seeds.npy").size)
    feat_bytes = (
        meta["num_nodes"] * meta["feature_dim"]
        * np.dtype(meta["feature_dtype"]).itemsize
    )
    print(json.dumps(
        {"path": str(out), "num_train_seeds": num_train, "meta": meta},
        indent=2,
    ) if args.json else "\n".join([
        f"wrote streaming dataset to {out}:",
        f"  {meta['num_nodes']} nodes, {meta['num_edges']} edges "
        f"({meta['kind']}, seed {meta['seed']})",
        f"  features {meta['num_nodes']}x{meta['feature_dim']} "
        f"({feat_bytes / 2**20:.1f} MiB on disk, never fully resident)",
        f"  {num_train} train seeds, {meta['num_classes']} classes",
        f"train on it with: repro run --dataset-dir {out}",
    ]))
    return 0


def cmd_loadgen(args) -> int:
    gen = _make_loadgen(args, args.nodes)
    stream = gen.generate(args.requests)
    payload = {
        "generator": gen.to_dict(),
        "num_requests": len(stream),
        "requests": [
            {"request_id": r.request_id, "node": r.node, "arrival": r.arrival}
            for r in stream
        ],
    }
    if args.output is not None:
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    print(json.dumps(payload, indent=2) if args.json or args.output is None
          else f"wrote {len(stream)} requests to {args.output}")
    return 0


def cmd_compare(args) -> int:
    apt, task = _build(args)
    print(task)
    strategies = ["gdp", "nfp", "snp", "dnp"]
    if args.hybrid:
        strategies.append("hyb")
    results = apt.compare_all(
        num_epochs=1, numerics=not args.full, strategies=tuple(strategies)
    )
    plan = apt.plan()
    print(f"\n{'strategy':>9} {'epoch time':>12}  breakdown")
    for name in strategies:
        r = results[name]
        bd = " ".join(f"{k}={v * 1e3:.3f}ms" for k, v in r.breakdown.items())
        marker = " <- APT" if name == plan.chosen else ""
        print(f"{name:>9} {r.epoch_seconds * 1e3:>10.3f}ms  {bd}{marker}")
    best = min(results, key=lambda n: results[n].epoch_seconds)
    print(f"\nactual best: {best}; APT selected: {plan.chosen}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="APT (PPoPP'25) reproduction — adaptive parallel GNN training",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="dry-run strategies and rank them")
    _add_task_args(p_plan)
    _add_common_flags(p_plan)
    p_plan.add_argument("--objective", choices=("epoch", "latency", "cost"),
                        default="epoch",
                        help="rank by epoch seconds (training), predicted "
                             "p99 per-request latency (serving), or dollars "
                             "per epoch (cost; sweeps device subsets and "
                             "reports the (time, $) Pareto frontier)")
    p_plan.add_argument("--budget-seconds", type=float, default=None,
                        metavar="S",
                        help="with --objective cost: pick the cheapest "
                             "candidate whose epoch time fits S seconds")
    p_plan.add_argument("--budget-dollars", type=float, default=None,
                        metavar="D",
                        help="with --objective epoch: pick the fastest "
                             "candidate costing at most D dollars per epoch")
    p_plan.add_argument("--policy", default="32:2", metavar="B:MS",
                        help="serving batch policy '<max_batch>:<max_wait_ms>'"
                             " scored by --objective latency")
    p_plan.add_argument("--strategy", type=_strategy_spec, nargs="+",
                        default=None, metavar="SPEC",
                        help="explicit candidate set to rank (names and/or "
                             "layerwise:<s0>,<s1>,... specs); default: the "
                             "config's single-strategy candidates")
    p_plan.add_argument("--layerwise", action="store_true",
                        help="beam-search per-layer strategy compositions "
                             "by epoch seconds (DESIGN.md §5.15) instead of "
                             "ranking a fixed candidate set; takes no "
                             "--objective, --strategy or budget")
    p_plan.add_argument("--beam-width", type=int, default=3,
                        help="beam width of the --layerwise search")
    p_plan.set_defaults(func=cmd_plan)

    p_run = sub.add_parser("run", help="train with a strategy")
    _add_task_args(p_run)
    _add_common_flags(p_run, checkpoint=True)
    p_run.add_argument("--inject", metavar="FILE", default=None,
                       help="JSON fault schedule to apply at epoch boundaries")
    p_run.add_argument("--strategy", default="auto", type=_strategy_spec,
                       metavar="SPEC",
                       help="auto, gdp/nfp/snp/dnp/hyb, or a per-layer "
                            "composition 'layerwise:<s0>,<s1>,...' (one "
                            "name per model layer)")
    p_run.add_argument("--epochs", type=int, default=3)
    p_run.add_argument("--lr", type=float, default=1e-3)
    p_run.add_argument("--trace", metavar="FILE", default=None,
                       help="write a chrome://tracing JSON of the run")
    p_run.add_argument("--replan", action="store_true",
                       default=argparse.SUPPRESS,
                       help="re-plan (and possibly hot-switch strategy) when "
                            "observed phase times drift from the estimates")
    p_run.add_argument("--checkpoint-every", type=int,
                       default=argparse.SUPPRESS,
                       metavar="N", help="checkpoint cadence in epochs "
                                         "(default 1)")
    p_run.add_argument("--checkpoint-keep", type=int,
                       default=argparse.SUPPRESS,
                       metavar="N", help="checkpoints retained per "
                                         "directory (default 3)")
    p_run.add_argument("--no-elastic", dest="elastic", action="store_false",
                       default=argparse.SUPPRESS,
                       help="fail on host_leave/host_join membership "
                            "events instead of re-partitioning and "
                            "continuing on the changed cluster")
    p_run.add_argument("--resume", metavar="DIR", default=None,
                       help="continue from the latest checkpoint in DIR; "
                            "the remaining epochs reproduce the "
                            "uninterrupted run bit for bit")
    p_run.set_defaults(func=cmd_run)

    p_serve = sub.add_parser(
        "serve", help="answer a synthetic request stream from a trained model"
    )
    _add_task_args(p_serve)
    _add_common_flags(p_serve, checkpoint=True)
    _add_loadgen_args(p_serve)
    p_serve.add_argument("--strategy", default="auto", type=_strategy_spec,
                         metavar="SPEC",
                         help="serving strategy (auto: checkpointed strategy, "
                              "else the latency-objective planner's choice); "
                              "accepts 'layerwise:<s0>,<s1>,...' specs")
    p_serve.add_argument("--policy", default="32:2", metavar="B:MS",
                         help="dynamic batching policy "
                              "'<max_batch>:<max_wait_ms>' (e.g. 32:2)")
    p_serve.add_argument("--cache-policy", choices=("adaptive", "static"),
                         default="adaptive",
                         help="adaptive: re-key the GPU feature cache from "
                              "observed request hotness under drift; static: "
                              "keep the training census keying")
    p_serve.add_argument("--drift-window", type=int, default=8,
                         help="batches per serve-side drift window")
    p_serve.add_argument("--drift-threshold", type=float, default=0.35,
                         help="serve-side drift trigger (relative error)")
    p_serve.add_argument("--train-epochs", type=int, default=2,
                         help="epochs to train when no checkpoint exists "
                              "(0 serves the untrained model)")
    p_serve.set_defaults(func=cmd_serve)

    p_gen = sub.add_parser(
        "gen", help="generate an on-disk streaming dataset directory"
    )
    p_gen.add_argument("out", metavar="DIR",
                       help="output dataset directory (created if missing)")
    p_gen.add_argument("--nodes", type=int, default=1_000_000,
                       help="graph size in nodes")
    p_gen.add_argument("--avg-degree", type=float, default=8.0)
    p_gen.add_argument("--feature-dim", type=int, default=128)
    p_gen.add_argument("--classes", type=int, default=16,
                       help="number of label classes")
    p_gen.add_argument("--kind", choices=("power_law", "rmat"),
                       default="power_law", help="graph generator family")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--train-fraction", type=float, default=0.01,
                       help="fraction of nodes used as training seeds")
    p_gen.add_argument("--exponent", type=float, default=2.0,
                       help="power-law degree exponent")
    _add_common_flags(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_lg = sub.add_parser(
        "loadgen", help="emit a seeded synthetic request stream as JSON"
    )
    _add_common_flags(p_lg)
    _add_loadgen_args(p_lg)
    p_lg.add_argument("--nodes", type=int, default=12_000,
                      help="size of the node id space requests draw from")
    p_lg.add_argument("--seed", type=int, default=0)
    p_lg.add_argument("--output", metavar="FILE", default=None,
                      help="write the stream to FILE instead of stdout")
    p_lg.set_defaults(func=cmd_loadgen)

    p_cmp = sub.add_parser("compare", help="epoch-time table for all strategies")
    _add_task_args(p_cmp)
    p_cmp.add_argument("--hybrid", action="store_true",
                       help="include the GDPxSNP hybrid")
    p_cmp.add_argument("--full", action="store_true",
                       help="run real numerics (slower) instead of timing-only")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RuntimeError, ValueError, FileNotFoundError) as exc:
        # Bad input the API rejects — a layer/fanout mismatch, a resume
        # directory without a checkpoint or written under other flags, a
        # membership change with elastic execution disabled — ends in one
        # line, not a traceback.
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
