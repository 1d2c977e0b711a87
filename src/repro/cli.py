"""Command-line interface: regenerate any table/figure of the paper.

Usage::

    python -m repro table1            # one experiment
    python -m repro all               # everything (writes nothing)
    python -m repro all -o EXPERIMENTS_RUN.md
    python -m repro figure7 --quick   # reduced scale for a fast look
    python -m repro serve-bench --shards 4 --batch-size 16 --json serve.json
    python -m repro serve-bench --replicas 4 --router power-of-two \
        --cache-size 256 --queue-capacity 32   # N replicas, cache, admission
    python -m repro serve-bench --kernel contraction   # pick a SpMV kernel
    python -m repro bench-all                 # every benchmark + summary
    python -m repro serve-live --port 7777 --replicas 2 --cache-size 256
    python -m repro load-gen --port 7777 --n-queries 256 --rate-qps 500 \
        --duplicate-fraction 0.2 --shutdown   # real p50/p99/QPS + replay check

``serve-live``'s ``wall`` section and ``load-gen``'s report are two views of
one :class:`repro.serving.batcher.ServingMetrics`: for one run they agree on
every count and on availability.  The fault-tolerance flags configure
``serve-live`` only; ``serve-bench`` refuses them.

Build/serve split (the production workflow)::

    python -m repro compile synthetic out.npz --rows 50000 --design 20b
    python -m repro compile glove glove.npz --rows 20000
    python -m repro serve-bench --collection out.npz --shards 4

``compile`` runs the one-time build pipeline (partition + quantise + BS-CSR
encode) and persists the artifact; ``serve-bench --collection`` restarts a
serving fleet from it without re-encoding anything.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.errors import ConfigurationError
from repro.experiments import ALL_EXPERIMENTS, ExperimentConfig

__all__ = ["main", "build_parser", "consolidate_bench_results"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce tables and figures of 'Scaling up HBM Efficiency of "
            "Top-K SpMV for Approximate Embedding Similarity on FPGAs' (DAC 2021)"
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(ALL_EXPERIMENTS)
        + ["all", "serve-bench", "compile", "tune", "bench-all", "ingest",
           "serve-live", "load-gen"],
        help="which experiment to regenerate (serve-bench runs the sharded "
        "batch serving simulation; compile builds and saves a servable "
        "collection artifact instead of a paper artifact; tune searches "
        "row placements against the cost model + probe queries and saves "
        "the winning layout; bench-all runs "
        "every benchmarks/bench_*.py emitter and consolidates the results; "
        "ingest drives a mutation workload through a segmented collection "
        "and compares incremental ingest against a full recompile; "
        "serve-live starts the asyncio serving daemon on a real socket; "
        "load-gen drives a wall-clock Poisson stream at a running daemon)",
    )
    parser.add_argument(
        "rest",
        nargs="*",
        metavar="ARG",
        help="for compile/tune: <dataset> <out.npz> where dataset is "
        "'synthetic', 'zipf' or 'glove'",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced scale (fewer trials/queries/rows) for a fast run",
    )
    parser.add_argument(
        "--paper-scale", action="store_true",
        help="the paper's evaluation scale (30 queries; slower)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the root seed"
    )
    parser.add_argument(
        "--rows", type=int, default=None,
        help="override the functional matrix row count",
    )
    parser.add_argument(
        "-o", "--output", type=str, default=None,
        help="also write the report(s) to this file",
    )
    serving = parser.add_argument_group("serve-bench options")
    serving.add_argument(
        "--shards", type=int, default=4,
        help="number of simulated boards to row-shard across (default 4)",
    )
    serving.add_argument(
        "--cores-per-shard", type=int, default=None,
        help="give each shard its own full board with this many cores "
        "(default: spread the design's partition streams across shards)",
    )
    serving.add_argument(
        "--batch-size", type=int, default=16,
        help="max requests per dispatched batch on each replica (default 16)",
    )
    serving.add_argument(
        "--max-wait-ms", type=float, default=2.0,
        help="batching deadline: the oldest queued request waits at most "
        "this long before its batch dispatches, in ms (default 2.0)",
    )
    serving.add_argument(
        "--n-queries", type=int, default=256,
        help="length of the simulated query stream (default 256)",
    )
    serving.add_argument(
        "--rate-qps", type=float, default=None,
        help="offered Poisson load; default ~80%% of fleet scan capacity",
    )
    serving.add_argument(
        "--design", type=str, default="20b",
        choices=["20b", "25b", "32b", "f32"],
        help="accelerator design point served (default 20b)",
    )
    serving.add_argument(
        "--replicas", type=int, default=1,
        help="replicate the sharded fleet N times behind the cluster "
        "runtime (default 1: a 1-replica cluster)",
    )
    serving.add_argument(
        "--router", type=str, default="round-robin",
        choices=["round-robin", "least-outstanding", "power-of-two"],
        help="cluster routing policy (default round-robin; with one "
        "replica every policy picks it)",
    )
    serving.add_argument(
        "--cache-size", type=int, default=0,
        help="exact-result LRU cache capacity in entries (default 0: "
        "disabled); hits are bit-identical to engine results",
    )
    serving.add_argument(
        "--queue-capacity", type=int, default=None,
        help="admission control: max queued requests per replica before "
        "rejection (default: unbounded)",
    )
    serving.add_argument(
        "--kernel", type=str, default=None,
        help="batch-query kernel backend: auto, gather, streaming, "
        "contraction or native (default: $REPRO_KERNEL or auto); every "
        "backend is bit-identical — this only changes speed",
    )
    serving.add_argument(
        "--json", type=str, default=None, metavar="PATH",
        help="also dump the serve-bench numbers as JSON",
    )
    live = parser.add_argument_group("serve-live / load-gen options")
    live.add_argument(
        "--host", type=str, default="127.0.0.1",
        help="bind/connect address for the live daemon (default 127.0.0.1)",
    )
    live.add_argument(
        "--port", type=int, default=None,
        help="serve-live: port to bind (default: ephemeral, printed at "
        "startup); load-gen: port to connect to (required)",
    )
    live.add_argument(
        "--top-k", type=int, default=10,
        help="K every request is served at, by serve-bench and the live "
        "daemon (default 10)",
    )
    live.add_argument(
        "--duplicate-fraction", type=float, default=0.0,
        help="load-gen: probability of resending an earlier query, to "
        "exercise the exact-result cache (default 0.0)",
    )
    live.add_argument(
        "--no-verify", action="store_true",
        help="load-gen: skip the server-side replay equivalence check",
    )
    live.add_argument(
        "--shutdown", action="store_true",
        help="load-gen: stop the daemon after the run (the CI smoke path)",
    )
    live.add_argument(
        "--timeout-s", type=float, default=120.0,
        help="load-gen: overall client timeout in seconds (default 120)",
    )
    faults = parser.add_argument_group(
        "fault tolerance options (serve-live only; see README)"
    )
    faults.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="max re-dispatch attempts per request after a replica failure "
        "(default: the library default, 2)",
    )
    faults.add_argument(
        "--backoff-ms", type=float, default=None, metavar="MS",
        help="base of the seeded exponential retry backoff in ms "
        "(default: the library default, 1.0)",
    )
    faults.add_argument(
        "--hedge-after-ms", type=float, default=None, metavar="MS",
        help="duplicate a request onto a second replica when its first "
        "dispatch has waited this long (default: hedging off)",
    )
    faults.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-request wall deadline; past it the client gets a typed "
        "'deadline' error frame (default: none)",
    )
    faults.add_argument(
        "--max-pending", type=int, default=None, metavar="N",
        help="load-shed admission bound on queued + in-flight requests "
        "(default: unbounded)",
    )
    faults.add_argument(
        "--max-frame-bytes", type=int, default=None, metavar="N",
        help="tighten the per-frame wire cap below the protocol-wide limit "
        "(default: the protocol cap)",
    )
    faults.add_argument(
        "--fault-plan", type=str, default=None, metavar="PATH",
        help="replay a seeded fault-injection plan (JSON written by "
        "FaultPlan.to_json or benchmarks/bench_chaos.py) against the "
        "serving tier",
    )
    faults.add_argument(
        "--chaos-seed", type=int, default=None, metavar="SEED",
        help="generate a seeded FaultPlan (crashes + slow windows) instead "
        "of loading one from --fault-plan",
    )
    bench_all = parser.add_argument_group("bench-all options")
    bench_all.add_argument(
        "--only", type=str, default=None, metavar="SUBSTRING",
        help="run only the bench_*.py files whose name contains this",
    )
    bench_all.add_argument(
        "--benchmarks-dir", type=str, default="benchmarks", metavar="DIR",
        help="directory holding the bench_*.py emitters (default: benchmarks)",
    )
    serving.add_argument(
        "--collection", type=str, default=None, metavar="PATH",
        help="serve a compiled collection artifact (output of "
        "'repro compile') instead of building a synthetic one; "
        "--rows/--design are then taken from the artifact, whose buffers "
        "are served as-is in either sharding mode)",
    )
    ingest = parser.add_argument_group("ingest options")
    ingest.add_argument(
        "--delta-frac", type=float, default=0.01,
        help="ingested delta as a fraction of the base collection's rows "
        "(default 0.01, the 1%% scenario the CI floor tracks)",
    )
    ingest.add_argument(
        "--updates", type=int, default=0,
        help="random row updates to apply after the ingest (default 0)",
    )
    ingest.add_argument(
        "--deletes", type=int, default=0,
        help="random row deletes to apply after the ingest (default 0)",
    )
    ingest.add_argument(
        "--seal-rows", type=int, default=None,
        help="delta-buffer seal threshold in live rows (default: the "
        "library default)",
    )
    ingest.add_argument(
        "--compact", action="store_true",
        help="compact after the mutations and report the query-time change",
    )
    ingest.add_argument(
        "--save", type=str, default=None, metavar="DIR",
        help="persist the mutated collection as a segment-manifest directory",
    )
    ingest.add_argument(
        "--verify-queries", type=int, default=8,
        help="queries checked bit-identical against a fresh recompile of "
        "the equivalent final matrix (default 8; 0 disables)",
    )
    tune = parser.add_argument_group("tune options")
    tune.add_argument(
        "--partitions", type=int, default=None,
        help="HBM channels / partitions to place across (default: the "
        "design's core count)",
    )
    tune.add_argument(
        "--n-probes", type=int, default=32,
        help="probe queries the skip estimator and measured ranking use "
        "(default 32)",
    )
    tune.add_argument(
        "--anneal-iters", type=int, default=64,
        help="boundary-shift annealing iterations on the best candidate "
        "(default 64; 0 disables)",
    )
    tune.add_argument(
        "--no-measure", action="store_true",
        help="rank by the cost model alone — skips the compile+sweep "
        "calibration and finalist measurement (cheaper, less faithful)",
    )
    dataset_group = parser.add_argument_group(
        "dataset options (compile, tune, serve-bench and ingest)"
    )
    dataset_group.add_argument(
        "--cols", type=int, default=512,
        help="embedding dimension of the built dataset (default 512)",
    )
    dataset_group.add_argument(
        "--avg-nnz", type=int, default=20,
        help="average non-zeros per row of the built dataset (default 20)",
    )
    return parser


def _serve_bench_config(args: argparse.Namespace) -> "ServeBenchConfig":
    from repro.serving.bench import ServeBenchConfig

    config = ServeBenchConfig(
        design=args.design,
        cols=args.cols,
        avg_nnz=args.avg_nnz,
        n_shards=args.shards,
        cores_per_shard=args.cores_per_shard,
        n_queries=args.n_queries,
        top_k=args.top_k,
        max_batch_size=args.batch_size,
        max_wait_ms=args.max_wait_ms,
        rate_qps=args.rate_qps,
        seed=args.seed if args.seed is not None else 0,
        collection=args.collection,
        replicas=args.replicas,
        router=args.router,
        cache_size=args.cache_size,
        queue_capacity=args.queue_capacity,
        kernel=args.kernel,
    )
    if args.quick:
        config = config.quick()
    if args.rows is not None:
        from dataclasses import replace

        config = replace(config, rows=args.rows)
    return config


def _write_outputs(args: argparse.Namespace, text: str, payload: dict) -> None:
    """Write the ``--json`` payload and the ``-o`` text, when asked."""
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}", file=sys.stderr)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}", file=sys.stderr)


#: Fault-tolerance flags only the live daemon reads.
_SERVE_LIVE_ONLY = (
    "retries", "backoff_ms", "hedge_after_ms", "deadline_ms", "max_pending",
    "max_frame_bytes", "fault_plan", "chaos_seed",
)


def _run_serve_bench(args: argparse.Namespace) -> int:
    from repro.serving.bench import run_serve_bench

    if args.paper_scale:
        raise SystemExit(
            "serve-bench has no paper-scale preset; size it with "
            "--rows/--n-queries instead"
        )
    ignored = [
        "--" + name.replace("_", "-")
        for name in _SERVE_LIVE_ONLY
        if getattr(args, name) is not None
    ]
    if ignored:
        raise SystemExit(
            f"serve-bench does not read {', '.join(ignored)}; the "
            "fault-tolerance flags configure serve-live"
        )
    started = time.perf_counter()
    text, payload = run_serve_bench(_serve_bench_config(args))
    elapsed = time.perf_counter() - started
    print(text)
    print(f"[serve-bench completed in {elapsed:.1f}s]\n", file=sys.stderr)
    _write_outputs(args, text, payload)
    return 0


def _fault_options(args: argparse.Namespace):
    """(fault_plan, resilience) from the CLI fault-tolerance flags."""
    from repro.serving.faults import FaultPlan, ResilienceConfig

    if args.fault_plan is not None and args.chaos_seed is not None:
        raise SystemExit("--fault-plan and --chaos-seed are mutually exclusive")
    plan = None
    if args.fault_plan is not None:
        with open(args.fault_plan, "r", encoding="utf-8") as handle:
            plan = FaultPlan.from_json(handle.read())
    elif args.chaos_seed is not None:
        # A virtual-time horizon wide enough to cover any realistic stream;
        # deterministic in the seed, so a chaos run is replayable by flag.
        plan = FaultPlan.generate(
            seed=args.chaos_seed,
            n_replicas=args.replicas,
            horizon_s=max(1.0, args.n_queries / (args.rate_qps or 200.0)),
        )
    knobs = (args.retries, args.backoff_ms, args.hedge_after_ms)
    if plan is None and all(knob is None for knob in knobs):
        return None, None
    defaults = ResilienceConfig()
    return plan, ResilienceConfig(
        max_retries=(
            defaults.max_retries if args.retries is None else args.retries
        ),
        backoff_base_s=(
            defaults.backoff_base_s
            if args.backoff_ms is None
            else args.backoff_ms * 1e-3
        ),
        hedge_after_s=(
            None if args.hedge_after_ms is None else args.hedge_after_ms * 1e-3
        ),
        seed=args.seed if args.seed is not None else 0,
    )


def _build_live_runtime(args: argparse.Namespace):
    """One configured ClusterRuntime for serve-live (bench-config reuse)."""
    from repro.serving.bench import _build_collection, build_runtime

    config = _serve_bench_config(args)
    fault_plan, resilience = _fault_options(args)
    compiled, _design_name = _build_collection(config)
    return build_runtime(config, compiled, fault_plan, resilience)


def _run_serve_live(args: argparse.Namespace) -> int:
    """Start the asyncio daemon and serve until SIGINT or a shutdown op."""
    import asyncio
    import signal

    from repro.serving.live import LiveServer

    runtime = _build_live_runtime(args)
    if runtime.fault_plan is not None and not runtime.fault_plan.is_empty:
        plan = runtime.fault_plan
        print(
            f"fault injection active: {len(plan.crashes)} crash(es), "
            f"{len(plan.slow)} slow window(s), "
            f"{len(plan.engine_faults)} engine fault(s) [seed {plan.seed}]",
            file=sys.stderr,
        )
    server = LiveServer(
        runtime,
        top_k=args.top_k,
        host=args.host,
        port=args.port if args.port is not None else 0,
        warmup=True,
        deadline_s=(
            None if args.deadline_ms is None else args.deadline_ms * 1e-3
        ),
        max_pending=args.max_pending,
        max_frame_bytes=args.max_frame_bytes,
    )

    async def runner() -> None:
        await server.start()
        print(
            f"live serving daemon on {server.host}:{server.port} "
            f"({runtime.n_replicas} replica(s), router {runtime.router.name}, "
            f"top_k {server.top_k}) — Ctrl-C or a shutdown op stops it",
            file=sys.stderr,
        )
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, server.request_stop)
            except (NotImplementedError, RuntimeError):
                pass
        await server.serve_until_stopped()

    asyncio.run(runner())
    wall = server.wall_stats()
    payload: dict = {"wall": wall.to_dict(), "info": server.info()}
    lines = [
        f"wall clock: {wall.n_offered} offered | {wall.n_queries} completed "
        f"| {wall.n_rejected} rejected | {wall.n_failed} failed | "
        f"{wall.n_errors} errors | p50 {wall.p50_latency_s * 1e3:.3f} ms | "
        f"p99 {wall.p99_latency_s * 1e3:.3f} ms | {wall.qps:.1f} QPS",
    ]
    try:
        _results, report = server.decision_report()
    except ConfigurationError:
        pass  # no request entered the decision stream
    else:
        payload["decision"] = report.to_dict()
        lines.append(report.render())
    text = "\n".join(lines)
    print(text)
    _write_outputs(args, text, payload)
    return 0


def _run_load_gen(args: argparse.Namespace) -> int:
    """Drive one wall-clock stream at a running daemon; report the numbers."""
    from repro.serving.loadgen import load_gen

    if args.port is None:
        raise SystemExit("load-gen needs --port (the daemon's port)")
    result = load_gen(
        args.host,
        args.port,
        n_queries=args.n_queries,
        rate_qps=args.rate_qps if args.rate_qps is not None else 200.0,
        seed=args.seed if args.seed is not None else 0,
        duplicate_fraction=args.duplicate_fraction,
        verify=not args.no_verify,
        shutdown=args.shutdown,
        timeout_s=args.timeout_s,
    )
    text = result.render()
    print(text)
    _write_outputs(args, text, result.to_dict())
    verdict = result.verify
    if verdict is not None and verdict.get("ok") and not verdict.get("equivalent"):
        print("load-gen: live decisions diverged from the simulator",
              file=sys.stderr)
        return 1
    return 0


def _build_cli_matrix(dataset: str, args: argparse.Namespace):
    """The compile/tune dataset builders (synthetic | zipf | glove)."""
    rows = args.rows if args.rows is not None else 20_000
    seed = args.seed if args.seed is not None else 0
    if dataset == "synthetic":
        from repro.data.synthetic import synthetic_embeddings

        return synthetic_embeddings(
            n_rows=rows, n_cols=args.cols, avg_nnz=args.avg_nnz,
            distribution="uniform", seed=seed,
        )
    if dataset == "zipf":
        from repro.data.synthetic import zipf_embeddings

        return zipf_embeddings(
            n_rows=rows, n_cols=args.cols, avg_nnz=args.avg_nnz, seed=seed,
        )
    if dataset == "glove":
        from repro.data.glove import sparsified_glove_embeddings

        if args.cols < 2 * args.avg_nnz:
            raise SystemExit(
                f"glove needs --cols >= 2*avg-nnz ({2 * args.avg_nnz}) so the "
                "sparse dictionary has enough atoms; got --cols "
                f"{args.cols} with --avg-nnz {args.avg_nnz}"
            )
        return sparsified_glove_embeddings(
            n_rows=rows, n_cols=args.cols, avg_nnz=args.avg_nnz, seed=seed,
        )
    raise SystemExit(
        f"unknown dataset {dataset!r}; expected 'synthetic', 'zipf' or 'glove'"
    )


def _run_compile(args: argparse.Namespace) -> int:
    from repro.core.collection import compile_collection
    from repro.hw.design import design_by_name

    if len(args.rest) != 2:
        raise SystemExit(
            "usage: repro compile <dataset> <out.npz>  "
            "(dataset: 'synthetic', 'zipf' or 'glove')"
        )
    dataset, out_path = args.rest
    started = time.perf_counter()
    matrix = _build_cli_matrix(dataset, args)
    collection = compile_collection(matrix, design_by_name(args.design))
    collection.save(out_path)
    elapsed = time.perf_counter() - started
    print(collection.describe())
    print(f"wrote {out_path}", file=sys.stderr)
    print(f"[compile completed in {elapsed:.1f}s]", file=sys.stderr)
    return 0


def _run_tune(args: argparse.Namespace) -> int:
    """Search row placements, save the tuned artifact, report the search."""
    from repro.core.collection import compile_collection
    from repro.core.tune import tune_placement
    from repro.hw.design import design_by_name

    if not (
        len(args.rest) == 2
        or (args.collection is not None and len(args.rest) == 1)
    ):
        raise SystemExit(
            "usage: repro tune <dataset> <out.npz>  "
            "(dataset: 'synthetic', 'zipf' or 'glove'), or "
            "repro tune <out.npz> --collection in.npz to re-place an "
            "existing artifact"
        )
    dataset, out_path = (
        args.rest if len(args.rest) == 2 else (None, args.rest[0])
    )
    started = time.perf_counter()
    if args.collection is not None:
        from repro.core.collection import CompiledCollection

        source = CompiledCollection.load(args.collection)
        matrix, design = source.matrix, source.design
    else:
        matrix = _build_cli_matrix(dataset, args)
        design = design_by_name(args.design)
    report = tune_placement(
        matrix,
        design,
        n_partitions=args.partitions,
        n_probes=args.n_probes,
        seed=args.seed if args.seed is not None else 0,
        anneal_iters=args.anneal_iters,
        measure=not args.no_measure,
    )
    collection = compile_collection(
        matrix,
        design,
        n_partitions=args.partitions,
        placement=report.placement,
    )
    collection.save(out_path)
    elapsed = time.perf_counter() - started

    header = (
        f"{'strategy':>20} {'model cost':>12} {'est skip':>9} "
        f"{'nnz imb':>8} {'meas skip':>10}"
    )
    lines = ["# tune — placement search", "", header]
    for c in report.candidates:
        meas = (
            f"{c.measured_skip_fraction:.3f}"
            if c.measured_skip_fraction is not None
            else "-"
        )
        lines.append(
            f"{c.strategy:>20} {c.score.cost:>12.3e} "
            f"{c.score.est_skip_fraction:>9.3f} {c.score.imbalance:>8.3f} "
            f"{meas:>10}"
        )
    payload = report.to_payload()
    lines.append("")
    lines.append(
        f"winner: {report.winner.strategy} "
        f"(skip alpha {report.skip_alpha:.3f}, "
        f"{report.n_probes} probes, seed {report.seed})"
    )
    for key in ("model_speedup_vs_uniform", "measured_speedup_vs_uniform"):
        if key in payload:
            lines.append(f"{key.replace('_', ' ')}: {payload[key]:.2f}x")
    lines.append("")
    lines.append(collection.describe())
    text = "\n".join(lines)
    print(text)
    print(f"wrote {out_path}", file=sys.stderr)
    print(f"[tune completed in {elapsed:.1f}s]", file=sys.stderr)
    _write_outputs(args, text, payload)
    return 0


def _run_ingest(args: argparse.Namespace) -> int:
    """Drive a mutation workload through a segmented collection.

    Builds (or loads) a collection, ingests a delta, applies optional
    updates/deletes, and reports the incremental-ingest cost next to a full
    ``compile_collection`` of the equivalent final matrix — the number the
    segmented layer exists to beat.  A handful of queries are checked
    bit-identical against that fresh recompile, so the run doubles as an
    end-to-end equivalence smoke.
    """
    import numpy as np

    from repro.core.collection import compile_collection
    from repro.core.segments import DEFAULT_SEAL_ROWS, SegmentedCollection
    from repro.data.synthetic import synthetic_embeddings
    from repro.hw.design import design_by_name
    from repro.utils.rng import derive_rng, sample_unit_queries

    from repro.utils.validation import check_positive_int

    seed = args.seed if args.seed is not None else 0
    seal_rows = check_positive_int(
        args.seal_rows if args.seal_rows is not None else DEFAULT_SEAL_ROWS,
        "seal_rows",
    )
    started = time.perf_counter()
    if args.collection is not None:
        collection = SegmentedCollection.load(args.collection)
        collection.seal_rows = seal_rows
    else:
        rows = args.rows if args.rows is not None else (4000 if args.quick else 20_000)
        base = synthetic_embeddings(
            n_rows=rows, n_cols=args.cols, avg_nnz=args.avg_nnz,
            distribution="uniform", seed=seed,
        )
        collection = SegmentedCollection.from_matrix(
            base, design_by_name(args.design), seal_rows=seal_rows
        )
    build_s = time.perf_counter() - started
    n_base = collection.n_live
    n_cols = collection.n_cols

    rng = derive_rng(seed + 1)
    n_delta = max(1, int(round(args.delta_frac * n_base)))
    delta = synthetic_embeddings(
        n_rows=n_delta, n_cols=n_cols, avg_nnz=args.avg_nnz,
        distribution="uniform", seed=seed + 2,
    )
    started = time.perf_counter()
    collection.ingest(delta)
    # Requested counts are capped to the live population; the report must
    # carry what actually ran, not what was asked for.
    n_updates = min(args.updates, collection.n_live)
    for key in rng.choice(collection.live_keys(), size=n_updates, replace=False):
        dense = np.zeros(n_cols)
        cols = rng.choice(n_cols, size=min(args.avg_nnz, n_cols), replace=False)
        dense[np.sort(cols)] = rng.random(len(cols))
        collection.update(int(key), dense)
    n_deletes = min(args.deletes, collection.n_live)
    if n_deletes:
        victims = rng.choice(
            collection.live_keys(), size=n_deletes, replace=False
        )
        collection.delete(victims)
    collection.seal()
    incremental_s = time.perf_counter() - started

    started = time.perf_counter()
    fresh = compile_collection(collection.matrix, collection.design)
    recompile_s = time.perf_counter() - started
    speedup = recompile_s / incremental_s if incremental_s else float("inf")

    verified = 0
    if args.verify_queries:
        from repro.core.kernels import run_segmented

        X = collection.design.quantize_query(
            sample_unit_queries(derive_rng(seed + 3), args.verify_queries, n_cols)
        )
        got = run_segmented(collection, X, top_k=10)
        want = run_segmented(
            SegmentedCollection.from_collection(fresh), X, top_k=10
        )
        for g, w in zip(got.results, want.results):
            if g.indices.tolist() != w.indices.tolist() or (
                g.values.tobytes() != w.values.tobytes()
            ):
                raise SystemExit(
                    "segmented query diverged from the fresh recompile — "
                    "this is a bug, please report it"
                )
        verified = args.verify_queries

    compact_s = None
    if args.compact:
        started = time.perf_counter()
        collection.compact()
        compact_s = time.perf_counter() - started
    if args.save:
        collection.save(args.save)

    payload = {
        "base_rows": n_base,
        "cols": n_cols,
        "design": collection.design.name,
        "delta_rows": n_delta,
        "updates": n_updates,
        "deletes": n_deletes,
        "build_s": build_s,
        "incremental_s": incremental_s,
        "recompile_s": recompile_s,
        "speedup_vs_recompile": speedup,
        "compact_s": compact_s,
        "generation": collection.generation,
        "n_segments": collection.n_segments,
        "verified_queries": verified,
    }
    lines = [
        "# ingest — incremental mutation vs full recompile",
        "",
        collection.describe(),
        "",
        f"delta: {n_delta} ingested rows ({args.delta_frac:.1%} of base), "
        f"{n_updates} updates, {n_deletes} deletes",
        f"incremental ingest+seal: {incremental_s * 1e3:.1f} ms | full "
        f"recompile: {recompile_s * 1e3:.1f} ms | speedup {speedup:.1f}x",
    ]
    if verified:
        lines.append(
            f"verified bit-identical to the fresh recompile over "
            f"{verified} queries"
        )
    if compact_s is not None:
        lines.append(f"compacted to {collection.n_segments} segment(s) in "
                     f"{compact_s * 1e3:.1f} ms")
    text = "\n".join(lines)
    print(text)
    if args.save:
        print(f"wrote {args.save}", file=sys.stderr)
    _write_outputs(args, text, payload)
    return 0


def consolidate_bench_results(results_dir: "str | Path", runs: dict) -> dict:
    """Merge per-benchmark run records with every emitted results JSON.

    ``runs`` maps ``bench_*.py`` file names to ``{"status", "seconds"}``
    records; every ``*.json`` under ``results_dir`` (except the summary
    itself) is inlined under its stem, so one file carries the whole perf
    trajectory of a commit.
    """
    results = {}
    results_dir = Path(results_dir)
    if results_dir.is_dir():
        for path in sorted(results_dir.glob("*.json")):
            if path.name == "BENCH_summary.json":
                continue
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    results[path.stem] = json.load(handle)
            except (OSError, json.JSONDecodeError) as exc:
                results[path.stem] = {"error": str(exc)}
    return {"runs": runs, "results": results}


def _run_bench_all(args: argparse.Namespace) -> int:
    """Run every ``benchmarks/bench_*.py`` emitter; consolidate the JSONs.

    Each file runs under pytest in its own interpreter (the emitters are
    test modules that also enforce speedup floors), and the consolidated
    ``BENCH_summary.json`` lands next to the per-benchmark payloads in
    ``benchmarks/results/`` so the perf trajectory is one artifact per
    commit.  ``--quick`` exports ``REPRO_BENCH_QUICK=1`` to every emitter
    — reduced problem sizes, same floors where they stay meaningful — so
    CI can regenerate the whole results directory on every run.  Exit
    code is non-zero when any benchmark fails its floor.
    """
    import repro

    bench_dir = Path(args.benchmarks_dir)
    if not bench_dir.is_dir():
        raise SystemExit(
            f"benchmarks directory {bench_dir} not found; run from the "
            "repository root or pass --benchmarks-dir"
        )
    files = sorted(bench_dir.glob("bench_*.py"))
    if args.only is not None:
        files = [f for f in files if args.only in f.name]
    env = os.environ.copy()
    src_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    if args.quick:
        env["REPRO_BENCH_QUICK"] = "1"
    runs: dict = {}
    failed = []
    for path in files:
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", str(path), "-q"],
                env=env,
                capture_output=True,
                text=True,
            )
            returncode = proc.returncode
            stdout, stderr = proc.stdout, proc.stderr
        except OSError as exc:  # interpreter missing/killed — keep going
            returncode = -1
            stdout, stderr = "", str(exc)
        elapsed = time.perf_counter() - started
        status = "passed" if returncode == 0 else "failed"
        runs[path.name] = {"status": status, "seconds": elapsed}
        print(f"[{status}] {path.name} ({elapsed:.1f}s)", file=sys.stderr)
        if returncode != 0:
            # Record the failure in the consolidated summary (script,
            # returncode, stderr tail) and keep going: one broken bench
            # must not cost the perf trajectory of every other one.
            failed.append(path.name)
            runs[path.name]["returncode"] = returncode
            runs[path.name]["stderr_tail"] = (stdout + stderr)[-2000:]
            sys.stderr.write(stdout[-2000:] + stderr[-2000:])
    results_dir = bench_dir / "results"
    results_dir.mkdir(exist_ok=True)
    summary = consolidate_bench_results(results_dir, runs)
    summary["quick"] = bool(args.quick)
    summary_path = results_dir / "BENCH_summary.json"
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
    print(json.dumps(summary["runs"], indent=2, sort_keys=True))
    print(f"wrote {summary_path}", file=sys.stderr)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        print(f"wrote {args.output}", file=sys.stderr)
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _make_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.quick:
        config = ExperimentConfig.quick()
    elif args.paper_scale:
        config = ExperimentConfig.paper()
    else:
        config = ExperimentConfig()
    if args.seed is not None:
        config = ExperimentConfig(
            seed=args.seed,
            monte_carlo_trials=config.monte_carlo_trials,
            queries=config.queries,
            functional_rows=config.functional_rows,
        )
    if args.rows is not None:
        config = config.with_rows(args.rows)
    return config


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.quick and args.paper_scale:
        raise SystemExit("--quick and --paper-scale are mutually exclusive")
    if args.experiment == "compile":
        return _run_compile(args)
    if args.experiment == "tune":
        return _run_tune(args)
    if args.rest:
        raise SystemExit(
            f"unexpected positional arguments {args.rest}; only 'compile' "
            "and 'tune' take extra arguments"
        )
    verbs = {
        "serve-bench": _run_serve_bench, "serve-live": _run_serve_live,
        "load-gen": _run_load_gen, "ingest": _run_ingest,
        "bench-all": _run_bench_all,
    }
    if args.experiment in verbs:
        return verbs[args.experiment](args)
    config = _make_config(args)
    names = sorted(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]

    blocks = []
    for name in names:
        started = time.perf_counter()
        report = ALL_EXPERIMENTS[name](config)
        elapsed = time.perf_counter() - started
        text = report.render()
        blocks.append(text)
        print(text)
        print(f"[{name} completed in {elapsed:.1f}s]\n", file=sys.stderr)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write("\n\n".join(blocks))
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
