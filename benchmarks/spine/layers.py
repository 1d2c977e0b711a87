"""The per-layer ladder of a traced run.

Every layer is timed from outside, through its public functions, on inputs
generated from the seed.  Library layers nest by construction —
``run_kernel`` inside ``simulate_multicore_batch`` inside
``engine.query_batch`` are timed on the same inputs, and a layer's self time
is its call minus the next one down.  Kernel rungs run on ``uniform-40k``
unless the metric says otherwise.

Counts (skip fractions, packet fill, bytes per non-zero) repeat exactly for
a seed.  Bytes are *computed* from plan-buffer sizes; ``hw.*`` is simulated
time.  Neither is a measurement of memory traffic or of an FPGA.
"""

from __future__ import annotations

import os

import numpy as np

import host_roof
import inputs
import library
import measure
import spec
from measure import now

from repro import PAPER_DESIGNS, TopKSpmvEngine, compile_collection
from repro.core.dataflow import simulate_multicore_batch
from repro.core.kernels import KernelRequest, get_kernel, run_kernel, run_segmented
from repro.formats.stats import packing_stats
from repro.serving.cache import QueryCache, query_cache_key
from repro.serving.protocol import decode_frame, encode_frame, result_to_wire

Q_BATCH = 128
Q_EXECUTOR = 32


def seconds_of(fn) -> float:
    t = now()
    fn()
    return now() - t


def median_seconds(fn, reps: int) -> float:
    return measure.median(seconds_of(fn) for _ in range(reps))


def computed_bytes(request: KernelRequest, backend: str) -> int:
    """Bytes one sweep touches, from buffer sizes: the matrix-side buffers
    the backend reads, the query block, and the (Q, n_rows) scores."""
    if backend == "contraction" and request.operand is not None:
        op = request.operand
        matrix = op.data.nbytes + op.indices.nbytes + op.indptr.nbytes
    else:
        matrix = sum(
            p.kept_idx.nbytes + p.kept_values.nbytes + p.starts.nbytes
            for p in request.plans
        )
    n_rows = sum(p.n_rows for p in request.plans)
    return matrix + request.X.nbytes + n_rows * request.n_queries * 8


def build_layers(seed: int, smoke: bool) -> "tuple[dict, object]":
    """``data`` / ``core.collection`` / ``formats``: what set-up is made of."""
    corpus = "uniform-40k"
    design = PAPER_DESIGNS[spec.CORPORA[corpus].design]
    t = now()
    matrix = inputs.make_corpus(corpus, seed, smoke)
    generate_s = now() - t
    t = now()
    collection = compile_collection(matrix, design)
    compile_s = now() - t
    t = now()
    collection.stream_plans()
    plans_s = now() - t
    t = now()
    collection.contraction_operand()
    operand_s = now() - t

    measure.OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = measure.OUT_DIR / f"ladder-{os.getpid()}.npz"
    try:
        t = now()
        collection.save(path)
        save_s = now() - t
        artifact_mb = path.stat().st_size / 1e6
        t = now()
        type(collection).load(path)
        load_s = now() - t
    finally:
        path.unlink(missing_ok=True)

    packing = [packing_stats(s) for s in collection.encoded.streams]
    nnz = sum(p.nnz for p in packing)
    return {
        "data.generate_s": generate_s,
        "collection.compile_s": compile_s,
        "collection.plans_s": plans_s,
        "collection.operand_s": operand_s,
        "formats.save_s": save_s,
        "formats.load_s": load_s,
        "formats.artifact_mb": artifact_mb,
        "formats.bytes_per_nnz": sum(p.bytes_streamed for p in packing) / nnz,
        "formats.packet_fill": nnz / sum(p.total_lanes for p in packing),
    }, collection


def kernel_layers(collection, seed: int, smoke: bool, roof: dict) -> dict:
    """``core.kernels`` through ``run_kernel``; ``core.dataflow``;
    ``core.engine``; ``hw`` (simulated)."""
    pool = inputs.query_pool("uniform-40k", seed, Q_BATCH)
    request = library.kernel_request(collection, pool)
    work = collection.nnz * Q_BATCH
    layers = {}
    # The slow reference backends get fewer repeats: one call of either is
    # about a second at Q=128.
    for name, reps in (("gather", 1), ("streaming", 2), ("contraction", 3)):
        layers[f"kernels.{name}.ns_per_nnz"] = (
            median_seconds(lambda: run_kernel(request, name), reps) / work * 1e9)

    # auto kernel, core.dataflow and core.engine on the same block, taken
    # in turn so drift hits all three alike: each layer's self time is its
    # call minus the one below.
    engine = TopKSpmvEngine.from_collection(collection)
    design = collection.design
    x_uram = design.quantize_query(pool)
    kernel_s, batch_s, q128_s = [], [], []
    for _ in range(5):
        kernel_s.append(seconds_of(lambda: run_kernel(request, "auto")))
        batch_s.append(seconds_of(
            lambda: simulate_multicore_batch(
                collection.encoded, x_uram, local_k=design.local_k,
                accumulate_dtype=design.accumulate_dtype,
                plans=collection.stream_plans(),
                operand=collection.contraction_operand(),
                row_map=collection.row_map,
            )))
        q128_s.append(seconds_of(lambda: engine.query_batch(pool, spec.TOP_K)))
    kernel_s, batch_s, q128_s = map(measure.median, (kernel_s, batch_s, q128_s))
    q1_batch_s = median_seconds(lambda: engine.query_batch(pool[:1], spec.TOP_K), 15)
    q1_query_s = median_seconds(lambda: engine.query(pool[0], spec.TOP_K), 7)
    backend = get_kernel("auto").select(request).name
    gbps = computed_bytes(request, backend) / kernel_s / 1e9
    modelled = engine.query_batch(pool, spec.TOP_K)
    layers.update({
        "kernels.auto.ns_per_nnz": kernel_s / work * 1e9,
        "kernels.auto.gbps": gbps,
        "kernels.auto.roof_fraction": gbps / roof["triad_gbps"],
        "dataflow.batch_ms": batch_s * 1e3,
        "dataflow.merge_share": 1.0 - kernel_s / batch_s,
        "engine.query_batch_q128_ms": q128_s * 1e3,
        "engine.query_batch_q1_ms": q1_batch_s * 1e3,
        "engine.query_q1_ms": q1_query_s * 1e3,
        "engine.q1_path_ratio": q1_query_s / q1_batch_s,
        "engine.overhead_share": 1.0 - batch_s / q128_s,
        "arithmetic.quantize_us_per_query": median_seconds(
            lambda: design.quantize_query(pool), 9) / Q_BATCH * 1e6,
        "hw.modelled_qps": modelled.queries_per_second,
        "hw.modelled_latency_ms": engine.timing.total_seconds * 1e3,
        "hw.wall_over_modelled": q128_s / modelled.seconds,
    })

    # Q=1: time against nnz over the three uniform corpora; the intercept
    # is the per-call cost that does not stream anything.
    nnz_s = []
    for corpus in ("uniform-6k", "uniform-40k", "uniform-160k"):
        if corpus == "uniform-40k":
            other = collection
        else:
            other = compile_collection(
                inputs.make_corpus(corpus, seed, smoke),
                PAPER_DESIGNS[spec.CORPORA[corpus].design],
            )
        one = library.kernel_request(other, pool[:1])
        run_kernel(one, "auto")
        nnz_s.append((other.nnz, median_seconds(lambda: run_kernel(one, "auto"), 7)))
        if corpus == "uniform-40k":
            layers["kernels.auto.q1_ms"] = nnz_s[-1][1] * 1e3
    _slope, intercept = np.polyfit(*zip(*nnz_s), 1)
    layers["kernels.auto.q1_fixed_ms"] = float(intercept) * 1e3

    # The two executor knobs, on the backend that fans out per partition,
    # at Q=32 so a call is a fraction of a second.
    narrow = pool[:Q_EXECUTOR]
    inline = library.kernel_request(collection, narrow)
    one_worker = median_seconds(lambda: run_kernel(inline, "streaming"), 3)
    for executor in ("thread", "process"):
        fanned = library.kernel_request(collection, narrow, n_workers=2, executor=executor)
        try:
            run_kernel(fanned, "streaming")  # pool spawn / first use, untimed
            two = median_seconds(lambda: run_kernel(fanned, "streaming"), 3)
            layers[f"kernels.{executor}_w2_speedup"] = one_worker / two
        finally:
            if executor == "process":
                _stop_kernel_process_pool()
    return layers


def _stop_kernel_process_pool() -> None:
    """Stop the processes the ``process`` executor started, and wait.

    The package keeps its worker pool in a module global with no public
    shutdown, and the shared-memory arena starts the standard library's
    resource tracker, which otherwise outlives the benchmark as an orphan.
    The benchmark must leave no process behind, so it reaches for both
    private handles.
    """
    from multiprocessing import resource_tracker

    from repro.core.kernels import executor

    pool = executor._POOL
    if pool is not None:
        pool.shutdown(wait=True)
        executor._shutdown_pool()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def skew_layers(seed: int, smoke: bool) -> dict:
    """Frozen skew-placed ``zipf-64k``: placement and the streaming screen."""
    corpus = "zipf-64k"
    matrix = inputs.make_corpus(corpus, seed, smoke)
    design = PAPER_DESIGNS[spec.CORPORA[corpus].design]
    t = now()
    collection = compile_collection(matrix, design, placement="skew")
    compile_skew_s = now() - t
    pool = inputs.query_pool(corpus, seed, Q_BATCH)
    out = run_kernel(library.kernel_request(collection, pool), "streaming")
    return {
        "collection.compile_skew_s": compile_skew_s,
        "kernels.streaming.skip_fraction": out.skip_fraction,
        "placement.channel_imbalance": float(collection.channel_stats()["imbalance"]),
    }


def segmented_layers(engine, seed: int, smoke: bool) -> dict:
    """``core.kernels.segmented`` on the collection a ``mutable_zipf`` run
    left behind (fragmented), then on the same rows compacted."""
    corpus = "zipf-64k"
    shape = spec.MUTABLE_SMOKE if smoke else spec.MUTABLE
    collection = engine.collection
    block = engine.design.quantize_query(
        inputs.query_pool(corpus, seed, shape["batch_queries"])
    )
    out = run_segmented(collection, block, spec.TOP_K)
    fragmented_s = median_seconds(
        lambda: run_segmented(collection, block, spec.TOP_K), 5)

    extra = inputs.make_corpus(corpus, seed, smoke).take_rows(
        np.arange(shape["base_rows"], shape["base_rows"] + shape["block_rows"])
    )
    collection.ingest(extra)
    t = now()
    collection.seal()
    seal_s = now() - t
    collection.compact()
    compacted_s = median_seconds(
        lambda: run_segmented(collection, block, spec.TOP_K), 5)
    kernels = out.segment_kernels
    return {
        "segments.seal_ms": seal_s * 1e3,
        "segmented.query_q32_ms": fragmented_s * 1e3,
        "segmented.skip_fraction": out.skip_fraction,
        "segmented.gather_segment_share": (
            kernels.count("gather") / len(kernels) if kernels else 0.0),
        "segmented.read_amp": fragmented_s / compacted_s,
    }


def serving_unit_layers(collection, seed: int) -> dict:
    """``serving.protocol`` and ``serving.cache`` in-process, on real
    messages: a 512-d query frame and the result frame that answers it."""
    pool = inputs.query_pool("uniform-40k", seed, Q_BATCH)
    engine = TopKSpmvEngine.from_collection(collection)
    results = engine.query_batch(pool, spec.TOP_K).topk
    queries = [
        {"op": "query", "id": i, "query": row.tolist()}
        for i, row in enumerate(pool)
    ]
    replies = [
        {"op": "result", "id": i, "request_id": i, "status": "served",
         "wall_latency_s": 0.0123456789, "virtual_latency_s": 0.00212345678,
         **result_to_wire(result)}
        for i, result in enumerate(results)
    ]

    def per_message_us(fn, items):
        return median_seconds(lambda: [fn(x) for x in items], 5) / len(items) * 1e6

    # decode_frame takes the body: a frame minus its 4-byte length prefix
    query_frames = [encode_frame(m) for m in queries]
    reply_frames = [encode_frame(m) for m in replies]
    layers = {
        "protocol.query_frame_bytes": float(np.mean([len(f) for f in query_frames])),
        "protocol.query_encode_us": per_message_us(encode_frame, queries),
        "protocol.query_decode_us": per_message_us(
            decode_frame, [f[4:] for f in query_frames]),
        "protocol.result_frame_bytes": float(np.mean([len(f) for f in reply_frames])),
        "protocol.result_encode_us": per_message_us(encode_frame, replies),
        "protocol.result_decode_us": per_message_us(
            decode_frame, [f[4:] for f in reply_frames]),
    }

    quantised = collection.design.quantize_query(pool)

    def get_then_put():  # every lookup misses, every put inserts
        cache = QueryCache(spec.LIVE["cache_size"])
        for row, result in zip(quantised, results):
            key = query_cache_key(collection.digest, row, spec.TOP_K)
            if cache.get(key) is None:
                cache.put(key, result)

    layers["cache.get_put_us"] = median_seconds(get_then_put, 5) / Q_BATCH * 1e6
    return layers


def run_ladder(seed: int, smoke: bool, seconds: float, have: dict) -> "tuple[dict, dict]":
    """Measure every per-layer metric not already in ``have``.

    ``have`` holds what the traced workload run itself produced (its own
    ``segments.*`` or ``live.*`` numbers and the engine it left behind);
    the ladder fills in the rest with short runs of the other subsystems.
    Returns ``(layers, extras)``; ``extras`` carries the roof ladder.
    """
    tracer_off = measure.Tracer(False)
    roof = host_roof.measure_roof()
    layers = {
        "host.copy_gbps": roof["copy_gbps"],
        "host.triad_gbps": roof["triad_gbps"],
        "host.array_mb": roof["array_mb"],
        "host.llc_mb": roof["llc_mb"],
    }
    built, collection = build_layers(seed, smoke)
    layers.update(built)
    layers.update(kernel_layers(collection, seed, smoke, roof))
    layers.update(skew_layers(seed, smoke))
    layers.update(serving_unit_layers(collection, seed))

    mutable = have.get("mutable")
    if mutable is None:
        mutable = library.run_mutable(
            seed, seconds, smoke, tracer_off, n_setups=1,
            cycles=library.SHORT_CYCLES,
        )
    layers.update(mutable["layers"])
    layers.update(segmented_layers(mutable["engine"], seed, smoke))

    live_layers = have.get("live")
    if live_layers is None:
        import live

        live_layers = live.run(
            "live_small", seed, seconds, smoke, measure.Tracer(True), rounds=1,
        )["layers"]
    layers.update(live_layers)
    return layers, {"host_roof": roof}
