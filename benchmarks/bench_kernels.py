"""Benchmarks for the pluggable SpMV kernel backends of the candidate path.

Times every registered backend on the serve-bench synthetic collection
(20k x 512, avg 20 nnz, 20-bit design, Q = 128), checks all of them
bit-identical on the measured workload, emits
``benchmarks/results/kernels_speedup.json`` so successive PRs can track the
query-path trajectory, and asserts the acceptance floors:

* the best backend >= 2x over the (auto-chunked) gather kernel.

A second, skewed collection (rows sorted by decaying magnitude) records the
streaming kernel's block-skip behaviour, where provable threshold pruning
lets whole row blocks go ungathered.

``REPRO_BENCH_QUICK=1`` (exported by ``repro bench-all --quick``) shrinks
the collections and the query block so the emitter finishes in seconds;
bit-identity is still enforced but the timing floors are waived — at toy
sizes they measure fixed overheads, not kernels.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro import PAPER_DESIGNS, compile_collection
from repro.core.dataflow import simulate_multicore_batch
from repro.core.kernels import KernelRequest, available_kernels, run_kernel
from repro.data.synthetic import synthetic_embeddings
from repro.formats.csr import CSRMatrix
from repro.utils.rng import derive_rng, sample_unit_queries

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
Q = 16 if QUICK else 128
N_ROWS = 4_000 if QUICK else 20_000
TOP_LOCAL_K = 8
# The built-in concrete backends ("auto" only delegates; test stubs may join
# the registry when the suites share a session, so the set is pinned).
BACKENDS = ["gather", "streaming", "contraction"]
assert set(BACKENDS) <= set(available_kernels())


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _run(collection, X, kernel):
    return simulate_multicore_batch(
        collection.encoded,
        X,
        local_k=TOP_LOCAL_K,
        accumulate_dtype=collection.design.accumulate_dtype,
        plans=collection.stream_plans(),
        kernel=kernel,
        operand=collection.contraction_operand(),
    )


def _assert_bit_identical(reference, candidate, label):
    ref_results, ref_stats = reference
    got_results, got_stats = candidate
    assert got_stats == ref_stats, label
    for got_q, ref_q in zip(got_results, ref_results):
        for got, want in zip(got_q, ref_q):
            assert got.indices.tolist() == want.indices.tolist(), label
            assert got.values.tobytes() == want.values.tobytes(), label


def test_kernel_backends_speedup():
    """Every backend timed + bit-checked; best must clear the 2x floor."""
    design = PAPER_DESIGNS["20b"]
    matrix = synthetic_embeddings(
        n_rows=N_ROWS, n_cols=512, avg_nnz=20, distribution="uniform", seed=42
    )
    collection = compile_collection(matrix, design)
    X = design.quantize_query(sample_unit_queries(derive_rng(0), Q, 512))

    # Warm every path once (plans, operand, allocator).
    reference = _run(collection, X, "gather")
    timings = {}
    for name in BACKENDS:
        _assert_bit_identical(reference, _run(collection, X, name), name)
        timings[name] = _best_of(lambda name=name: _run(collection, X, name))

    gather_s = timings["gather"]
    speedups = {name: gather_s / s for name, s in timings.items()}
    best = max(speedups, key=speedups.get)

    # Skewed collection: rows sorted by decaying magnitude *within each
    # partition* (think norm-sorted ANN shards), so once the scratchpads
    # fill, the streaming kernel's provable block skip prunes the tails.
    rng = np.random.default_rng(7)
    n_skew_parts, part_size = (2, 1_250) if QUICK else (4, 5_000)
    rows = []
    for r in range(n_skew_parts * part_size):
        cols = np.sort(rng.choice(512, size=8, replace=False))
        scale = 2.0 ** (-((r % part_size) // 250))
        rows.append((cols.astype(np.int64), scale * (0.5 + 0.5 * rng.random(8))))
    skewed = compile_collection(
        CSRMatrix.from_rows(rows, n_cols=512), design, n_partitions=n_skew_parts
    )
    Xs = design.quantize_query(sample_unit_queries(derive_rng(1), Q, 512))
    skew_reference = _run(skewed, Xs, "gather")
    # One streaming sweep serves both the bit-identity check and the skip
    # stats: the backends are stateless, so the counters ride this run's
    # KernelOutput rather than any singleton attribute.
    streaming_out = run_kernel(
        KernelRequest(
            X=Xs,
            plans=tuple(skewed.stream_plans()),
            accumulate_dtype=skewed.design.accumulate_dtype,
            local_k=TOP_LOCAL_K,
        ),
        "streaming",
    )
    skip_fraction = streaming_out.skip_fraction
    ref_results, _ = skew_reference
    for q in range(Q):
        for p, offset in enumerate(skewed.encoded.row_offsets):
            got = streaming_out.results[p][q]
            want = ref_results[q][p]
            assert (got.indices + int(offset)).tolist() == want.indices.tolist()
            assert got.values.tobytes() == want.values.tobytes()
    skew_gather_s = _best_of(lambda: _run(skewed, Xs, "gather"))
    skew_streaming_s = _best_of(lambda: _run(skewed, Xs, "streaming"))
    skewed_payload = {
        "gather_s": skew_gather_s,
        "streaming_s": skew_streaming_s,
        "streaming_skip_fraction": skip_fraction,
    }

    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    payload = {
        "collection": {"rows": N_ROWS, "cols": 512, "avg_nnz": 20, "seed": 42},
        "design": "20b",
        "n_queries": Q,
        "quick": QUICK,
        "backend_seconds": timings,
        "speedup_vs_gather": speedups,
        "best_backend": best,
        "skewed": skewed_payload,
    }
    with open(results_dir / "kernels_speedup.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    if QUICK:
        # Toy sizes time fixed overheads, not kernels: the floors below
        # only hold at the full benchmark scale.
        return
    assert skip_fraction > 0.5, (
        f"streaming kernel skipped only {skip_fraction:.0%} of the skewed "
        "collection's rows"
    )
    assert speedups[best] >= 2.0, (
        f"best kernel ({best}) is only {speedups[best]:.2f}x over gather at "
        f"Q={Q} (floor: 2x)"
    )
