"""Benchmark for skew-aware row placement + the channel auto-tuner (ISSUE-10).

Builds a Zipfian corpus — power-law row magnitudes with *shuffled* rank
assignment, so neither channel balance nor the streaming kernel's
threshold block-skip falls out of the original row order — and, per
placement strategy, records:

* the measured streaming-kernel skip fraction over the probe block, on the
  frozen path and through the multi-segment driver (the same artifact
  wrapped in a ``SegmentedCollection``);
* the per-channel nnz imbalance (max/mean);
* wall-clock QPS of the streaming batch path at Q = 128.

The auto-tuner (:func:`repro.core.tune.tune_placement`) then runs on the
same corpus and its report lands in the payload, so every commit records
model-vs-measured agreement alongside the raw strategy sweep.  Everything
is emitted to ``benchmarks/results/tune_report.json``.

Acceptance floors (the ISSUE-10 gate, waived under ``REPRO_BENCH_QUICK``):

* ``skew`` clears >= 1.3x QPS over ``uniform`` **or** >= +15pp measured
  skip fraction (on this corpus it clears both by a wide margin — uniform
  skips ~nothing, skew skips the sorted channel tails);
* every placed engine stays bit-identical to the uniform engine on the
  measured workload at ``top_k = local_k``.

Always enforced (a count, not a speed): the ``skew`` artifact skips at
least as much through the segmented driver as on the frozen path (ROADMAP
item 3 — a placed segment keeps its block-skip) with no query falling back
to the ordered fold.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro import PAPER_DESIGNS, compile_collection
from repro.core.dataflow import simulate_multicore_batch
from repro.core.engine import TopKSpmvEngine
from repro.core.kernels import run_segmented
from repro.core.placement import PLACEMENT_STRATEGIES
from repro.core.segments import SegmentedCollection
from repro.core.tune import measure_skip_fraction, tune_placement
from repro.data.synthetic import zipf_embeddings
from repro.utils.rng import derive_rng, sample_unit_queries

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
Q = 16 if QUICK else 128
N_ROWS = 16_000 if QUICK else 40_000
N_COLS = 256
AVG_NNZ = 16
N_PARTITIONS = 4 if QUICK else 8
TOP_K = 8  # = the 20b design's local_k: the bit-identity-covered regime
SEED = 5

QPS_FLOOR = 1.3
SKIP_FLOOR_PP = 0.15


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _stream_batch(collection, X):
    return simulate_multicore_batch(
        collection.encoded,
        X,
        local_k=collection.design.local_k,
        accumulate_dtype=collection.design.accumulate_dtype,
        plans=collection.stream_plans(),
        kernel="streaming",
        row_map=collection.row_map,
    )


def test_placement_tuning_speedup():
    """Strategy sweep + tuner run; skew must clear the QPS/skip floor."""
    design = PAPER_DESIGNS["20b"]
    matrix = zipf_embeddings(
        n_rows=N_ROWS, n_cols=N_COLS, avg_nnz=AVG_NNZ, seed=SEED
    )
    probes = sample_unit_queries(derive_rng(0), Q, N_COLS)
    X = design.quantize_query(probes)

    strategies = {}
    engines = {}
    for strategy in PLACEMENT_STRATEGIES:
        collection = compile_collection(
            matrix, design, n_partitions=N_PARTITIONS, placement=strategy
        )
        stats = collection.channel_stats()
        _stream_batch(collection, X)  # warm plans before the timed region
        seconds = _best_of(lambda c=collection: _stream_batch(c, X))
        segmented = run_segmented(
            SegmentedCollection.from_collection(collection),
            X,
            TOP_K,
            kernel="streaming",
        )
        strategies[strategy] = {
            "skip_fraction": measure_skip_fraction(collection, probes),
            "segmented_skip_fraction": segmented.skip_fraction,
            "segmented_ordered_lanes": segmented.ordered_lanes,
            "nnz_imbalance": stats["imbalance"],
            "wall_seconds": seconds,
            "wall_qps": Q / seconds,
        }
        engines[strategy] = TopKSpmvEngine.from_collection(
            collection, kernel="streaming"
        )

    # Bit-identity on the measured workload: every placed engine against
    # the uniform one, per query, indices and float bit patterns.
    reference = engines["uniform"].query_batch(probes, TOP_K)
    for strategy, engine in engines.items():
        got = engine.query_batch(probes, TOP_K)
        for g, w in zip(got.topk, reference.topk):
            assert g.indices.tolist() == w.indices.tolist(), strategy
            assert g.values.tobytes() == w.values.tobytes(), strategy

    report = tune_placement(
        matrix,
        design,
        n_partitions=N_PARTITIONS,
        probes=probes,
        seed=SEED,
        anneal_iters=16 if QUICK else 48,
    )

    uniform = strategies["uniform"]
    skew = strategies["skew"]
    qps_speedup = skew["wall_qps"] / uniform["wall_qps"]
    skip_gain_pp = skew["skip_fraction"] - uniform["skip_fraction"]

    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    payload = {
        "corpus": {
            "rows": N_ROWS,
            "cols": N_COLS,
            "avg_nnz": AVG_NNZ,
            "seed": SEED,
            "family": "zipf",
        },
        "design": "20b",
        "n_partitions": N_PARTITIONS,
        "n_queries": Q,
        "quick": QUICK,
        "strategies": strategies,
        "skew_vs_uniform": {
            "qps_speedup": qps_speedup,
            "skip_gain_pp": skip_gain_pp,
        },
        "tuner": report.to_payload(),
        "floors": {
            "qps_speedup": QPS_FLOOR,
            "skip_gain_pp": SKIP_FLOOR_PP,
            "enforced": not QUICK,
        },
    }
    with open(results_dir / "tune_report.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    # The tuner must never hand back a placement its own measurements rank
    # below the uniform baseline (quick included — this is logic, not speed).
    tuned_report = report.to_payload()
    if "measured_speedup_vs_uniform" in tuned_report:
        assert tuned_report["measured_speedup_vs_uniform"] >= 1.0

    # ROADMAP item 3: wrapping the placed artifact in a segmented collection
    # must not forfeit its block-skip.
    assert skew["segmented_skip_fraction"] >= skew["skip_fraction"], skew
    assert skew["segmented_ordered_lanes"] == 0, skew

    if QUICK:
        # Toy sizes still skip plenty here, but wall-clock QPS at Q = 16
        # times fixed overheads; the floors hold at full scale only.
        return

    assert (
        qps_speedup >= QPS_FLOOR or skip_gain_pp >= SKIP_FLOOR_PP
    ), (
        f"skew placement cleared neither floor: {qps_speedup:.2f}x QPS "
        f"(floor {QPS_FLOOR}x), +{skip_gain_pp * 100:.1f}pp skip "
        f"(floor +{SKIP_FLOOR_PP * 100:.0f}pp)"
    )
