"""Command-line interface: regenerate any table/figure of the paper, and
build, tune, mutate, serve and load-test collections.

One subcommand per verb, and each verb accepts exactly the flags it reads:
argparse refuses any other with exit code 2, naming it
(``python -m repro VERB --help`` lists a verb's flags)::

    repro {table1,...,figure7,ablations,all} [--quick | --paper-scale]
        [--seed N] [--rows N] [-o FILE]
    repro compile {synthetic,zipf,glove} OUT.npz [DATASET]
    repro tune [{synthetic,zipf,glove}] OUT.npz [--collection IN.npz]
        [DATASET] [--partitions N] [--json PATH] [-o FILE]
    repro ingest [--quick] [--collection PATH|DIR] [DATASET]
        [--delta-frac F] [--updates N] [--deletes N] [--seal-rows N]
        [--compact] [--save DIR] [--verify-queries Q] [--json PATH] [-o FILE]
    repro serve-bench [--quick] [--collection PATH] [DATASET] [FLEET]
        [--json PATH] [-o FILE]
    repro serve-live [serve-bench's flags] [--host H] [--port P] [FAULTS]
    repro load-gen --port P [--host H] [--n-queries N] [--rate-qps R]
        [--seed N] [--duplicate-fraction F] [--no-verify] [--shutdown]
        [--timeout-s S] [--json PATH] [-o FILE]
    repro bench-all [--quick] [--only SUBSTRING] [--benchmarks-dir DIR]
        [-o FILE]

DATASET is ``--rows --cols --avg-nnz --design --seed``; FLEET is
``--shards --cores-per-shard --replicas --router --cache-size
--queue-capacity --batch-size --max-wait-ms --top-k --n-queries
--rate-qps``; FAULTS is ``--retries --backoff-ms --hedge-after-ms
--deadline-ms --max-pending --max-frame-bytes --fault-plan | --chaos-seed``.

The DATASET and FLEET flags fill the fields of
:class:`repro.serving.bench.ServingConfig` of the same name, the one home
of every serving default: ``--quick`` scales those defaults down, and a
flag given explicitly always wins.  ``--collection`` takes the dataset
from a compiled artifact (``compile`` output, served with zero re-encode),
so the DATASET flags it would override are refused beside it.

``serve-live``'s ``wall`` section and ``load-gen``'s report are two views of
one :class:`repro.serving.batcher.ServingMetrics`: for one run they agree on
every count and on availability.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

from repro.errors import ConfigurationError
from repro.experiments import ALL_EXPERIMENTS, ExperimentConfig
from repro.hw.design import PAPER_DESIGNS
from repro.serving.bench import ServingConfig
from repro.serving.faults import ResilienceConfig
from repro.serving.loadgen import run_load_gen
from repro.serving.router import ROUTERS

__all__ = ["main", "build_parser", "consolidate_bench_results"]

_SERVING_FIELDS = tuple(f.name for f in fields(ServingConfig))
#: serve-live flag dests that are LiveServer / ResilienceConfig arguments.
_DAEMON_ARGS = ("host", "port", "deadline_s", "max_pending", "max_frame_bytes")
_RESILIENCE_ARGS = ("max_retries", "backoff_base_s", "hedge_after_s")
#: Dataset flags a ``--collection`` artifact overrides.
_ARTIFACT_FIELDS = ("rows", "cols", "avg_nnz", "design")
_DATASETS = ("synthetic", "zipf", "glove")


def _ms(text: str) -> float:
    """A flag given in milliseconds, as seconds."""
    return float(text) * 1e-3


def _parent(**kwargs) -> argparse.ArgumentParser:
    return argparse.ArgumentParser(add_help=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser, one subparser per verb (exposed for tests)."""
    C, R = ServingConfig, ResilienceConfig
    given_only = {"argument_default": argparse.SUPPRESS}

    output = _parent()
    output.add_argument("-o", "--output", metavar="FILE",
                        help="also write the report to this file")
    json_out = _parent()
    json_out.add_argument("--json", metavar="PATH",
                          help="also dump the numbers as JSON")
    quick = _parent()
    quick.add_argument("--quick", action="store_true",
                       help="reduced scale for a fast run")
    collection = _parent(**given_only)
    collection.add_argument("--collection", metavar="PATH",
                            help="start from a compiled artifact instead of "
                            "building a synthetic dataset")

    dataset = _parent(**given_only)
    add = dataset.add_argument
    add("--rows", type=int, help=f"rows to build (default {C.rows})")
    add("--cols", type=int, help=f"embedding dimension (default {C.cols})")
    add("--avg-nnz", type=int, help=f"non-zeros per row (default {C.avg_nnz})")
    add("--design", choices=list(PAPER_DESIGNS),
        help=f"accelerator design point (default {C.design})")
    add("--seed", type=int, help=f"root seed (default {C.seed})")

    fleet = _parent(**given_only)
    add = fleet.add_argument
    add("--shards", dest="n_shards", type=int,
        help=f"simulated boards per replica (default {C.n_shards})")
    add("--cores-per-shard", type=int, help="time each shard as a full board "
        "with this many cores (default: deal the design's streams)")
    add("--replicas", type=int, help=f"replica fleets (default {C.replicas})")
    add("--router", choices=list(ROUTERS),
        help=f"routing policy (default {C.router})")
    add("--cache-size", type=int,
        help=f"exact-result LRU entries, 0 = off (default {C.cache_size})")
    add("--queue-capacity", type=int,
        help="queued requests per replica before rejects (default: no bound)")
    add("--batch-size", dest="max_batch_size", type=int,
        help=f"max requests per batch (default {C.max_batch_size})")
    add("--max-wait-ms", type=float,
        help="ms a batch may wait on an idle replica for more requests "
        f"(default {C.max_wait_ms:g}: batches form only while it is busy)")
    add("--top-k", type=int, help=f"K of every request (default {C.top_k})")
    add("--n-queries", type=int, help=f"stream length (default {C.n_queries}, "
        f"{C().quick().n_queries} with --quick; serve-live: sizes the "
        "--chaos-seed horizon)")
    add("--rate-qps", type=float,
        help="offered Poisson load (default ~80%% of fleet capacity)")

    daemon = _parent(**given_only)
    add = daemon.add_argument
    add("--host", help="bind address (default 127.0.0.1)")
    add("--port", type=int, help="port to bind (default: ephemeral)")
    add("--retries", dest="max_retries", type=int, metavar="N",
        help=f"re-dispatches per failed request (default {R.max_retries})")
    add("--backoff-ms", dest="backoff_base_s", type=_ms, metavar="MS",
        help=f"retry backoff base (default {R.backoff_base_s * 1e3})")
    add("--hedge-after-ms", dest="hedge_after_s", type=_ms, metavar="MS",
        help="hedge a request waiting this long (default: off)")
    add("--deadline-ms", dest="deadline_s", type=_ms, metavar="MS",
        help="per-request wall deadline (default: none)")
    add("--max-pending", type=int, metavar="N",
        help="load-shed bound on queued + in-flight (default: none)")
    add("--max-frame-bytes", type=int, metavar="N",
        help="per-frame wire cap (default: the protocol cap)")
    plan = daemon.add_mutually_exclusive_group()
    plan.add_argument("--fault-plan", metavar="PATH",
                      help="replay a FaultPlan JSON file")
    plan.add_argument("--chaos-seed", type=int, metavar="SEED",
                      help="generate a seeded FaultPlan")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Scaling up HBM Efficiency of Top-K SpMV for "
        "Approximate Embedding Similarity on FPGAs' (DAC 2021), and build, "
        "serve and load-test collections",
    )
    verbs = parser.add_subparsers(dest="experiment", required=True,
                                  metavar="VERB")
    for name in sorted(ALL_EXPERIMENTS) + ["all"]:
        verb = verbs.add_parser(name, parents=[output],
                                help="regenerate a paper artifact (all: each)")
        scale = verb.add_mutually_exclusive_group()
        scale.add_argument("--quick", action="store_true",
                           help="reduced scale (fewer trials/queries/rows)")
        scale.add_argument("--paper-scale", action="store_true",
                           help="the paper's evaluation scale (slower)")
        verb.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                          help="override the root seed")
        verb.add_argument("--rows", dest="functional_rows", type=int,
                          default=argparse.SUPPRESS, metavar="ROWS",
                          help="override the functional matrix row count")
        verb.set_defaults(func=_run_experiments)

    verb = verbs.add_parser("compile", parents=[dataset],
                            help="build and save a servable collection")
    verb.add_argument("dataset", choices=_DATASETS)
    verb.add_argument("out", metavar="OUT.npz")
    verb.set_defaults(func=_run_compile)

    verb = verbs.add_parser("tune", help="search row placements, save the "
                            "winning layout", parents=[collection, dataset,
                                                       json_out, output])
    add = verb.add_argument
    add("dataset", nargs="?", choices=_DATASETS,
        help="omit to re-place the --collection artifact")
    add("out", metavar="OUT.npz")
    add("--partitions", type=int,
        help="HBM channels to place across (default: the design's cores)")
    verb.set_defaults(func=_run_tune)

    verb = verbs.add_parser("ingest", help="mutate a segmented collection, "
                            "compare with a recompile", parents=[
                                quick, collection, dataset, json_out, output])
    add = verb.add_argument
    add("--delta-frac", type=float, default=0.01,
        help="ingested rows as a fraction of the base (default 0.01)")
    add("--updates", type=int, default=0, help="random updates (default 0)")
    add("--deletes", type=int, default=0, help="random deletes (default 0)")
    add("--seal-rows", type=int,
        help="delta-buffer seal threshold (default: the library's)")
    add("--compact", action="store_true", help="compact afterwards, timed")
    add("--save", metavar="DIR", help="persist as a segment manifest")
    add("--verify-queries", type=int, default=8,
        help="queries checked against a fresh recompile (default 8)")
    verb.set_defaults(func=_run_ingest)

    serving = [quick, collection, dataset, fleet, json_out, output]
    verbs.add_parser(
        "serve-bench", parents=serving, help="simulate batch serving"
    ).set_defaults(func=_run_serve_bench)
    verbs.add_parser(
        "serve-live", parents=[*serving, daemon], help="serve on a socket"
    ).set_defaults(func=_run_serve_live)

    load = inspect.signature(run_load_gen).parameters
    verb = verbs.add_parser("load-gen", parents=[json_out, output],
                            help="drive a running daemon", **given_only)
    add = verb.add_argument
    add("--host", default="127.0.0.1", help="the daemon's address")
    add("--port", type=int, required=True, help="the daemon's port")
    for flag, kind, what in (
        ("--n-queries", int, "stream length"),
        ("--rate-qps", float, "offered Poisson rate"),
        ("--seed", int, "stream seed"),
        ("--duplicate-fraction", float, "share of resent earlier queries"),
        ("--timeout-s", float, "client timeout"),
    ):
        default = load[flag[2:].replace("-", "_")].default
        add(flag, type=kind, help=f"{what} (default {default})")
    add("--no-verify", action="store_true", help="skip the replay check")
    add("--shutdown", action="store_true", help="stop the daemon afterwards")
    verb.set_defaults(func=_run_load_gen)

    verb = verbs.add_parser("bench-all", parents=[quick, output],
                            help="run every benchmarks/bench_*.py emitter")
    verb.add_argument("--only", metavar="SUBSTRING",
                      help="run only the files whose name contains this")
    verb.add_argument("--benchmarks-dir", default="benchmarks", metavar="DIR",
                      help="where the emitters live (default %(default)s)")
    verb.set_defaults(func=_run_bench_all)
    return parser


def _picked(args: argparse.Namespace, names) -> dict:
    """The flags among ``names`` (dests) that were given explicitly."""
    return {name: getattr(args, name) for name in names if name in args}


def _serving_config(
    args: argparse.Namespace, overridden=_ARTIFACT_FIELDS, extra=()
) -> ServingConfig:
    """The :class:`ServingConfig` the flags describe.

    ``--quick`` scales the defaults down and every flag given explicitly
    wins over both.  Beside ``--collection``, the ``overridden`` dataset
    flags (and ``extra`` arguments) would be silently ignored, so they are
    refused.
    """
    given = _picked(args, _SERVING_FIELDS)
    if "collection" in given:
        clash = [*extra, *("--" + name.replace("_", "-")
                           for name in overridden if name in given)]
        if clash:
            raise SystemExit(
                "--collection takes the dataset from the artifact; drop "
                + ", ".join(clash)
            )
    if getattr(args, "quick", False):
        return replace(ServingConfig().quick(), **given)
    return ServingConfig(**given)


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


def _run_serve_bench(args: argparse.Namespace) -> int:
    from repro.serving.bench import run_serve_bench

    started = time.perf_counter()
    text, payload = run_serve_bench(_serving_config(args))
    elapsed = time.perf_counter() - started
    print(text)
    print(f"[serve-bench completed in {elapsed:.1f}s]\n", file=sys.stderr)
    _write_outputs(args, text, payload)
    return 0


def _fault_options(args: argparse.Namespace, config: ServingConfig):
    """(fault_plan, resilience) from the serve-live fault flags."""
    from repro.serving.faults import FaultPlan

    plan = None
    if "fault_plan" in args:
        with open(args.fault_plan, "r", encoding="utf-8") as handle:
            plan = FaultPlan.from_json(handle.read())
    elif "chaos_seed" in args:
        # A virtual-time horizon wide enough to cover any realistic stream,
        # sized by the flags rather than by --quick's stream, and
        # deterministic in the seed, so a chaos run is replayable by flag.
        n_queries = getattr(args, "n_queries", ServingConfig.n_queries)
        plan = FaultPlan.generate(
            seed=args.chaos_seed,
            n_replicas=config.replicas,
            horizon_s=max(1.0, n_queries / (config.rate_qps or 200.0)),
        )
    knobs = _picked(args, _RESILIENCE_ARGS)
    if plan is None and not knobs:
        return None, None
    return plan, ResilienceConfig(**knobs, seed=config.seed)


def _run_serve_live(args: argparse.Namespace) -> int:
    """Start the asyncio daemon and serve until SIGINT or a shutdown op."""
    import asyncio
    import signal

    from repro.serving.bench import _build_collection, build_runtime
    from repro.serving.live import LiveServer

    config = _serving_config(args)
    compiled, _design_name = _build_collection(config)
    runtime = build_runtime(config, compiled, *_fault_options(args, config))
    if runtime.fault_plan is not None and not runtime.fault_plan.is_empty:
        plan = runtime.fault_plan
        print(
            f"fault injection active: {len(plan.crashes)} crash(es), "
            f"{len(plan.slow)} slow window(s), "
            f"{len(plan.engine_faults)} engine fault(s) [seed {plan.seed}]",
            file=sys.stderr,
        )
    server = LiveServer(
        runtime, top_k=config.top_k, warmup=True,
        **_picked(args, _DAEMON_ARGS),
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

    parameters = inspect.signature(run_load_gen).parameters
    result = load_gen(
        **_picked(args, parameters), verify="no_verify" not in args
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


def _build_cli_matrix(dataset: str, config: ServingConfig):
    """The compile/tune dataset builders (synthetic | zipf | glove)."""
    shape = dict(n_rows=config.rows, n_cols=config.cols,
                 avg_nnz=config.avg_nnz, seed=config.seed)
    if dataset == "synthetic":
        from repro.data.synthetic import synthetic_embeddings

        return synthetic_embeddings(distribution="uniform", **shape)
    if dataset == "zipf":
        from repro.data.synthetic import zipf_embeddings

        return zipf_embeddings(**shape)
    from repro.data.glove import sparsified_glove_embeddings

    if config.cols < 2 * config.avg_nnz:
        raise SystemExit(
            f"glove needs --cols >= 2*avg-nnz ({2 * config.avg_nnz}) so the "
            "sparse dictionary has enough atoms; got --cols "
            f"{config.cols} with --avg-nnz {config.avg_nnz}"
        )
    return sparsified_glove_embeddings(**shape)


def _run_compile(args: argparse.Namespace) -> int:
    from repro.core.collection import compile_collection
    from repro.hw.design import design_by_name

    config = _serving_config(args)
    started = time.perf_counter()
    matrix = _build_cli_matrix(args.dataset, config)
    collection = compile_collection(matrix, design_by_name(config.design))
    collection.save(args.out)
    elapsed = time.perf_counter() - started
    print(collection.describe())
    print(f"wrote {args.out}", file=sys.stderr)
    print(f"[compile completed in {elapsed:.1f}s]", file=sys.stderr)
    return 0


def _run_tune(args: argparse.Namespace) -> int:
    """Search row placements, save the tuned artifact, report the search."""
    from repro.core.collection import compile_collection
    from repro.core.tune import tune_placement
    from repro.hw.design import design_by_name

    config = _serving_config(
        args, extra=[f"DATASET {args.dataset!r}"] if args.dataset else []
    )
    started = time.perf_counter()
    if config.collection is not None:
        from repro.core.collection import CompiledCollection

        source = CompiledCollection.load(config.collection)
        matrix, design = source.matrix, source.design
    elif args.dataset is None:
        raise SystemExit(
            "tune needs a DATASET ('synthetic', 'zipf' or 'glove'), or "
            "--collection IN.npz to re-place an existing artifact"
        )
    else:
        matrix = _build_cli_matrix(args.dataset, config)
        design = design_by_name(config.design)
    report = tune_placement(matrix, design, n_partitions=args.partitions)
    collection = compile_collection(
        matrix,
        design,
        n_partitions=args.partitions,
        placement=report.placement,
    )
    collection.save(args.out)
    elapsed = time.perf_counter() - started

    lines = [
        "# tune — placement search",
        "",
        f"{'strategy':>10} {'makespan':>12} {'nnz imb':>8}",
    ]
    for c in report.candidates:
        lines.append(
            f"{c.strategy:>10} {c.score.makespan_s:>12.3e} "
            f"{c.score.imbalance:>8.3f}"
        )
    payload = report.to_payload()
    lines.append("")
    lines.append(f"winner: {report.winner.strategy}")
    if "model_speedup_vs_uniform" in payload:
        lines.append(
            f"model speedup vs uniform: "
            f"{payload['model_speedup_vs_uniform']:.2f}x"
        )
    lines.append("")
    lines.append(collection.describe())
    text = "\n".join(lines)
    print(text)
    print(f"wrote {args.out}", file=sys.stderr)
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
    end-to-end equivalence smoke.  ``--avg-nnz`` sizes the delta rows, so
    it stays valid beside ``--collection``.
    """
    import numpy as np

    from repro.core.collection import compile_collection
    from repro.core.segments import DEFAULT_SEAL_ROWS, SegmentedCollection
    from repro.data.synthetic import synthetic_embeddings
    from repro.hw.design import design_by_name
    from repro.utils.rng import derive_rng, sample_unit_queries

    from repro.utils.validation import check_positive_int

    config = _serving_config(args, overridden=("rows", "cols", "design"))
    seed = config.seed
    seal_rows = check_positive_int(
        args.seal_rows if args.seal_rows is not None else DEFAULT_SEAL_ROWS,
        "seal_rows",
    )
    started = time.perf_counter()
    if config.collection is not None:
        collection = SegmentedCollection.load(config.collection)
        collection.seal_rows = seal_rows
    else:
        base = synthetic_embeddings(
            n_rows=config.rows, n_cols=config.cols, avg_nnz=config.avg_nnz,
            distribution="uniform", seed=seed,
        )
        collection = SegmentedCollection.from_matrix(
            base, design_by_name(config.design), seal_rows=seal_rows
        )
    build_s = time.perf_counter() - started
    n_base = collection.n_live
    n_cols = collection.n_cols

    rng = derive_rng(seed + 1)
    n_delta = max(1, int(round(args.delta_frac * n_base)))
    delta = synthetic_embeddings(
        n_rows=n_delta, n_cols=n_cols, avg_nnz=config.avg_nnz,
        distribution="uniform", seed=seed + 2,
    )
    started = time.perf_counter()
    collection.ingest(delta)
    # Requested counts are capped to the live population; the report must
    # carry what actually ran, not what was asked for.
    n_updates = min(args.updates, collection.n_live)
    for key in rng.choice(collection.live_keys(), size=n_updates, replace=False):
        dense = np.zeros(n_cols)
        cols = rng.choice(n_cols, size=min(config.avg_nnz, n_cols), replace=False)
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


def _run_experiments(args: argparse.Namespace) -> int:
    if args.quick:
        config = ExperimentConfig.quick()
    elif args.paper_scale:
        config = ExperimentConfig.paper()
    else:
        config = ExperimentConfig()
    config = replace(config, **_picked(args, ("seed", "functional_rows")))
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


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
