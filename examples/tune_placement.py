#!/usr/bin/env python3
"""Skew-aware row placement + the channel auto-tuner, end to end.

Real embedding collections are Zipfian twice over — in non-zeros per row
and in row norm (popularity) — and channel balance does not fall out of
the original row order.  This example:

1. builds a Zipfian corpus (power-law row magnitudes, shuffled ranks);
2. runs the auto-tuner: every placement strategy scored on the modelled
   board (packet-level channel timing), the lowest makespan kept;
3. compiles the winning placement, shows the per-channel histogram, and
   times uniform vs tuned on the same query block;
4. proves the tuned engine is bit-identical to the uniform one.

Run:  python examples/tune_placement.py
"""

import time

from repro import PAPER_DESIGNS, TopKSpmvEngine, compile_collection
from repro.core.tune import tune_placement
from repro.data.synthetic import zipf_embeddings
from repro.utils.rng import derive_rng, sample_unit_queries


def main() -> None:
    design = PAPER_DESIGNS["20b"]
    matrix = zipf_embeddings(n_rows=40_000, n_cols=256, avg_nnz=16, seed=5)
    queries = sample_unit_queries(derive_rng(0), 64, matrix.n_cols)

    # 1. TUNE: score every strategy on the modelled board; the slowest
    # channel sets the makespan, and the lowest makespan wins.
    started = time.perf_counter()
    report = tune_placement(matrix, design, n_partitions=8)
    tune_s = time.perf_counter() - started
    print(f"tuned in {tune_s:.2f}s — winner: {report.winner.strategy}")
    for candidate in report.candidates:
        print(
            f"  {candidate.strategy:>8}: makespan "
            f"{candidate.score.makespan_s * 1e6:.2f} us"
            f"  nnz imbalance {candidate.score.imbalance:.3f}"
        )

    # 2. COMPILE the winner; the permutation is persisted (digest-covered)
    # with the artifact, so `collection.save(path)` ships the tuned layout.
    uniform = compile_collection(matrix, design, n_partitions=8)
    tuned = compile_collection(
        matrix, design, n_partitions=8, placement=report.placement
    )
    print()
    print(tuned.describe())

    # 3. TIME both layouts on the query path (each walks its sorted run;
    # the placement feeds only the modelled board).
    engines = {
        "uniform": TopKSpmvEngine.from_collection(uniform),
        "tuned": TopKSpmvEngine.from_collection(tuned),
    }
    wall = {}
    for name, engine in engines.items():
        engine.query_batch(queries, 8)  # warm the plan cache
        started = time.perf_counter()
        engine.query_batch(queries, 8)
        wall[name] = time.perf_counter() - started
    print()
    print(
        f"query_batch, Q={len(queries)}: uniform {wall['uniform']*1e3:.0f} ms"
        f" -> tuned {wall['tuned']*1e3:.0f} ms"
        f" ({wall['uniform'] / wall['tuned']:.2f}x)"
    )

    # 4. PROVE bit-identity: placement is a pure performance knob.
    want = engines["uniform"].query_batch(queries, 8)
    got = engines["tuned"].query_batch(queries, 8)
    for g, w in zip(got.topk, want.topk):
        assert g.indices.tolist() == w.indices.tolist()
        assert g.values.tobytes() == w.values.tobytes()
    print("tuned top-k is bit-identical to the uniform layout ✓")


if __name__ == "__main__":
    main()
