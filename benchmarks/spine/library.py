"""The library workloads: the engine called in the benchmark process, on
one thread, with package defaults for every knob.

``offline_batch`` times the README quickstart call (``engine.query``) and the
batched path (``engine.query_batch`` on fresh 128-query blocks) of a frozen
engine.  ``mutable_zipf`` runs a *fixed number* of write-then-read cycles on
a segmented collection, so two commits given the same ``--seconds`` see
identical collection states.
"""

from __future__ import annotations

import hashlib

import numpy as np

import inputs
import measure
import spec
from measure import now

from repro import (
    PAPER_DESIGNS, SegmentedCollection, TopKSpmvEngine, compile_collection,
)
from repro.analysis.metrics import precision_at_k
from repro.core.kernels import get_kernel, KernelRequest

POOL_SIZE = 4096
BATCH = 128
#: An ``offline_batch`` slice: this many ``query`` calls, one ``query_batch``
#: call, one ``compile_collection`` call.
LATENCY_CALLS_PER_SLICE = 4
#: Floor on slices, so ten latency samples lie beyond the tail percentile
#: even on a machine too slow to fit them in ``--seconds`` (4 x 25 = 100).
MIN_SLICES = 25
OFFLINE_SETUPS = 9
SLICES_PER_SETUP = 3
MUTABLE_SETUPS = 7
#: ``mutable_zipf`` cycles of a traced run's short repeats: two compaction periods.
SHORT_CYCLES = 2 * spec.MUTABLE["compact_every"]


class Attempts:
    """Operations attempted and failed; an exception is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: "list[str]" = []

    def call(self, tracer, name, fn, *args, request=None, **kwargs):
        """Call into a layer under a span; returns ``(result, seconds)``,
        or ``(None, seconds)`` when the call raised."""
        self.attempted += 1
        with tracer.span(name, request=request):
            t = now()
            try:
                return fn(*args, **kwargs), now() - t
            except Exception as exc:  # the run goes on and reports the failure
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
                return None, now() - t


def result_checksum(results) -> str:
    """SHA-256 over every result's index and value bytes, in order."""
    digest = hashlib.sha256()
    for r in results:
        digest.update(r.indices.tobytes())
        digest.update(r.values.tobytes())
    return digest.hexdigest()


def same_bits(a, b) -> bool:
    """Two Top-K results with identical index and value bytes."""
    return (
        a.indices.tobytes() == b.indices.tobytes()
        and a.values.tobytes() == b.values.tobytes()
    )


def probe_check(engine, probes):
    """``query_batch`` and ``query`` agree bit for bit on the probes.

    Returns ``(identical, checksum of the batch results, recall@10)``.
    """
    batch = engine.query_batch(probes, spec.TOP_K).topk
    identical = True
    recalls = []
    for row, mine in zip(probes, batch):
        identical &= same_bits(engine.query(row, spec.TOP_K).topk, mine)
        exact = engine.query_exact(row, spec.TOP_K)
        recalls.append(precision_at_k(mine.indices, exact.indices))
    return identical, result_checksum(batch), float(np.mean(recalls))


def kernel_request(collection, block, **overrides) -> KernelRequest:
    """The request ``TopKSpmvEngine.query_candidates_batch`` would build."""
    design = collection.design
    fields = dict(
        X=design.quantize_query(np.atleast_2d(block)),
        plans=tuple(collection.stream_plans()),
        accumulate_dtype=np.dtype(design.accumulate_dtype),
        local_k=design.local_k,
        operand=(
            collection.contraction_operand()
            if collection.wants_contraction_operand("auto") else None
        ),
    )
    fields.update(overrides)
    return KernelRequest(**fields)


def frozen_backend(engine, block) -> str:
    """The backend ``auto`` resolves to for this engine's batch requests."""
    return get_kernel("auto").select(kernel_request(engine.collection, block)).name


# ---------------------------------------------------------------------- #
# offline_batch
# ---------------------------------------------------------------------- #
def _setup_offline(corpus, seed, smoke, warm):
    t = now()
    matrix = inputs.make_corpus(corpus, seed, smoke)
    design = PAPER_DESIGNS[spec.CORPORA[corpus].design]
    engine = TopKSpmvEngine.from_collection(compile_collection(matrix, design))
    engine.query_batch(warm, spec.TOP_K)
    return engine, matrix, now() - t


def run_offline(seed: int, seconds: float, smoke: bool,
                tracer: measure.Tracer, n_setups: int = OFFLINE_SETUPS,
                min_slices: int = MIN_SLICES) -> dict:
    corpus = spec.WORKLOADS["offline_batch"].corpus
    pool = inputs.query_pool(corpus, seed, POOL_SIZE)
    probes = inputs.probe_queries(corpus, seed)

    engine, matrix, setup_s = _setup_offline(corpus, seed, smoke, probes[:1])
    setups = [setup_s]

    # Warm-up: read-only calls, so the engine's state does not change.
    warm_until = now() + min(1.0, seconds / 8)
    while now() < warm_until:
        engine.query(pool[-1], spec.TOP_K)
        engine.query_batch(pool[-BATCH:], spec.TOP_K)

    # The machine's speed wanders on a scale of seconds, so the ops are
    # interleaved in short slices and every rate is a median over calls: a
    # slow spell then costs some samples, not one op's whole phase.  The
    # remaining set-ups (fresh engines, thrown away) are spread over the
    # run the same way.
    ops = Attempts()
    latencies, batch_s, compile_s = [], [], []
    start = now()
    q = 0
    while now() - start < seconds or len(batch_s) < min_slices:
        if len(batch_s) % SLICES_PER_SETUP == 0 and len(setups) < n_setups:
            setups.append(_setup_offline(corpus, seed, smoke, probes[:1])[2])
        for _ in range(LATENCY_CALLS_PER_SLICE):
            out, dt = ops.call(
                tracer, "engine.query", engine.query, pool[q % POOL_SIZE],
                spec.TOP_K, request=q,
            )
            if out is not None:
                latencies.append(dt * 1e3)
            q += 1
        lo = (len(batch_s) * BATCH) % (POOL_SIZE - BATCH)
        out, dt = ops.call(
            tracer, "engine.query_batch", engine.query_batch,
            pool[lo:lo + BATCH], spec.TOP_K, request=f"batch-{len(batch_s)}",
        )
        batch_s.append(dt if out is not None else float("inf"))
        _, dt = ops.call(
            tracer, "compile_collection", compile_collection, matrix,
            engine.design,
        )
        compile_s.append(dt)
    window = (start, now())

    identical, checksum, recall = probe_check(engine, probes)
    ops.attempted += len(probes)
    return {
        "metrics": {
            "setup_s": measure.median(setups),
            "qps": BATCH / measure.median(batch_s),
            "latency_ms_p50": measure.percentile(latencies, 50),
            f"latency_ms_p{spec.TAIL_PERCENTILE}": measure.percentile(
                latencies, spec.TAIL_PERCENTILE),
            "ingest_rows_per_s": matrix.n_rows / measure.median(compile_s),
            "served_fraction": 1.0 - ops.failed / ops.attempted,
            "recall_at_10": recall,
            "peak_rss_mb": measure.vm_hwm_mb(),
        },
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": ops.errors,
        "checks": [("query-equals-query_batch-on-probes", identical, "")],
        "checksum": checksum,
        "samples": {"latency": len(latencies), "batches": len(batch_s),
                    "setups": len(setups)},
        "rounds": [{"seconds": window[1] - window[0], "slices": len(batch_s),
                    "setups_s": setups}],
        "windows": [window],
        "auto_backend": frozen_backend(engine, probes),
    }


# ---------------------------------------------------------------------- #
# mutable_zipf
# ---------------------------------------------------------------------- #
def _setup_mutable(corpus, seed, smoke, shape, warm):
    t = now()
    matrix = inputs.make_corpus(corpus, seed, smoke)
    design = PAPER_DESIGNS[spec.CORPORA[corpus].design]
    base = matrix.take_rows(np.arange(shape["base_rows"]))
    collection = SegmentedCollection.from_collection(
        compile_collection(base, design, placement="skew")
    )
    engine = TopKSpmvEngine.from_collection(collection)
    engine.query_batch(warm, spec.TOP_K)
    return engine, matrix, now() - t


def mutable_cycles(seconds: float, smoke: bool) -> int:
    """Cycles in a run: a pure function of ``--seconds``, a whole number of
    compaction periods, so every period holds exactly one compaction."""
    shape = spec.MUTABLE_SMOKE if smoke else spec.MUTABLE
    period = shape["compact_every"]
    periods = max(shape["min_periods"], round(
        seconds * shape["cycles_per_second"] / period))
    return periods * period


def run_mutable(seed: int, seconds: float, smoke: bool,
                tracer: measure.Tracer, n_setups: int = MUTABLE_SETUPS,
                cycles: "int | None" = None) -> dict:
    corpus = spec.WORKLOADS["mutable_zipf"].corpus
    shape = spec.MUTABLE_SMOKE if smoke else spec.MUTABLE
    n_batch = shape["batch_queries"]
    period = shape["compact_every"]
    pool = inputs.query_pool(corpus, seed, POOL_SIZE)
    probes = inputs.probe_queries(corpus, seed)

    engine, matrix, setup_s = _setup_mutable(corpus, seed, smoke, shape, probes[:1])
    setups = [setup_s]
    collection = engine.collection
    n_blocks = (matrix.n_rows - shape["base_rows"]) // shape["block_rows"]
    blocks = [
        matrix.take_rows(np.arange(
            shape["base_rows"] + k * shape["block_rows"],
            shape["base_rows"] + (k + 1) * shape["block_rows"],
        ))
        for k in range(n_blocks)
    ]

    warm_until = now() + min(1.0, seconds / 8)
    while now() < warm_until:
        engine.query(pool[-1], spec.TOP_K)
        engine.query_batch(pool[-n_batch:], spec.TOP_K)

    if cycles is None:
        cycles = mutable_cycles(seconds, smoke)
    ops = Attempts()
    latencies, batch_s, period_rates = [], [], []
    op_ms = {"ingest": [], "delete": [], "compact": []}
    n_segments, ingested_keys = [], []
    # Keys are handed out in ingest order, so the key space is known.
    deleted = np.zeros(
        shape["base_rows"] + cycles * shape["block_rows"], dtype=bool)
    no_deleted_key_served = True
    write_s = total_write_s = 0.0
    rows_in = 0
    start = now()
    for cycle in range(cycles):
        if cycle % period == 0 and len(setups) < n_setups:
            # The remaining set-ups (fresh collections, thrown away) are
            # spread over the run, one per compaction period.
            setups.append(
                _setup_mutable(corpus, seed, smoke, shape, probes[:1])[2])
        keys, dt = ops.call(
            tracer, "segments.ingest", engine.ingest,
            blocks[cycle % n_blocks], request=cycle,
        )
        write_s += dt
        op_ms["ingest"].append(dt * 1e3)
        ingested_keys.append(keys)
        if keys is not None:
            rows_in += len(keys)
        old = ingested_keys[cycle - shape["delete_lag"]] if (
            cycle >= shape["delete_lag"]) else None
        if old is not None:
            _, dt = ops.call(
                tracer, "segments.delete", engine.delete, old, request=cycle)
            write_s += dt
            op_ms["delete"].append(dt * 1e3)
            deleted[old] = True
        if cycle % period == period - 1:
            _, dt = ops.call(
                tracer, "segments.compact", engine.compact,
                keep_clean_over=shape["keep_clean_over"], request=cycle,
            )
            write_s += dt
            op_ms["compact"].append(dt * 1e3)
            # One rate per compaction period: rows in / time in writes.
            period_rates.append(rows_in / write_s)
            total_write_s += write_s
            write_s, rows_in = 0.0, 0
        n_segments.append(collection.n_segments)

        lo = (cycle * (n_batch + 1)) % (POOL_SIZE - n_batch - 1)
        batch, dt = ops.call(
            tracer, "engine.query_batch", engine.query_batch,
            pool[lo:lo + n_batch], spec.TOP_K, request=f"batch-{cycle}",
        )
        batch_s.append(dt if batch is not None else float("inf"))
        single, dt = ops.call(
            tracer, "engine.query", engine.query, pool[lo + n_batch],
            spec.TOP_K, request=cycle,
        )
        if single is not None:
            latencies.append(dt * 1e3)
        # Outside the timers: no served key may be a deleted key.
        served = list(batch.topk) if batch is not None else []
        if single is not None:
            served.append(single.topk)
        for result in served:
            keys_served = collection.keys_for(result.indices)
            no_deleted_key_served &= not deleted[keys_served].any()
    window = (start, now())

    identical, checksum, recall = probe_check(engine, probes)
    ops.attempted += len(probes)
    total_read_s = sum(batch_s)
    return {
        "metrics": {
            "setup_s": measure.median(setups),
            "qps": n_batch / measure.median(batch_s),
            "latency_ms_p50": measure.percentile(latencies, 50),
            f"latency_ms_p{spec.TAIL_PERCENTILE}": measure.percentile(
                latencies, spec.TAIL_PERCENTILE),
            "ingest_rows_per_s": measure.median(period_rates),
            "served_fraction": 1.0 - ops.failed / ops.attempted,
            "recall_at_10": recall,
            "peak_rss_mb": measure.vm_hwm_mb(),
        },
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": ops.errors,
        "checks": [
            ("query-equals-query_batch-on-probes", identical, ""),
            ("no-deleted-key-served", bool(no_deleted_key_served), ""),
        ],
        "checksum": checksum,
        "samples": {"latency": len(latencies), "batches": len(batch_s),
                    "periods": len(period_rates), "setups": len(setups)},
        "rounds": [{"seconds": window[1] - window[0], "cycles": cycles,
                    "setups_s": setups}],
        "windows": [window],
        "auto_backend": "segmented:" + ",".join(sorted(set(
            _segment_kernels(engine, probes[:n_batch])))),
        "engine": engine,
        "layers": {
            "segments.ingest_ms": measure.median(op_ms["ingest"]),
            "segments.delete_ms": measure.median(op_ms["delete"]),
            "segments.compact_ms": measure.median(op_ms["compact"]),
            "segments.n_segments_mean": float(np.mean(n_segments)),
            "segments.write_share": total_write_s / (total_write_s + total_read_s),
        },
    }


def _segment_kernels(engine, block):
    from repro.core.kernels import run_segmented

    out = run_segmented(
        engine.collection, engine.design.quantize_query(block), spec.TOP_K
    )
    return out.segment_kernels
