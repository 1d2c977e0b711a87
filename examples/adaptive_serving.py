#!/usr/bin/env python3
"""Adaptive precision serving across boards (the paper's future work, live).

Section VI of the paper sketches two extensions: (1) reconfiguring the
numerical precision to hit accuracy/performance targets, and (2) deploying
on smaller accelerator cards.  This example exercises both: it profiles a
workload, lets the adaptive selector choose designs for three different
service-level targets, and prices each choice on three HBM boards,
finishing with a batched-serving throughput estimate.

Run:  python examples/adaptive_serving.py
"""

import numpy as np

from repro import TopKSpmvEngine
from repro.core.adaptive import WorkloadProfile, select_design
from repro.data import synthetic_embeddings
from repro.hw.boards import BOARDS, accelerator_on_board
from repro.hw.power import estimate_fpga_power_w
from repro.utils.rng import sample_unit_queries
from repro.utils.tables import format_table

N_ROWS = 40_000
DIM = 1024


def main() -> None:
    matrix = synthetic_embeddings(N_ROWS, DIM, avg_nnz=20, seed=31)
    queries = sample_unit_queries(np.random.default_rng(1), 4, DIM)

    # 1. Profile the workload (score-gap statistics around rank K).
    profile = WorkloadProfile.from_matrix(matrix, queries, top_k=100)
    print(f"workload: {profile.n_rows} rows, K={profile.top_k}, "
          f"measured score gap {profile.score_gap:.2e}")
    print()

    # 2. Let the selector pick a design per service-level target.
    targets = [
        ("fast (precision >= 0.95)", dict(min_precision=0.95)),
        ("balanced (precision >= 0.99)", dict(min_precision=0.99)),
        ("accurate (precision >= 0.998)", dict(min_precision=0.998)),
    ]
    rows = []
    chosen = {}
    for label, kwargs in targets:
        choice = select_design(profile, **kwargs)
        chosen[label] = choice
        rows.append([
            label,
            choice.design.value_bits,
            choice.design.layout.lanes,
            choice.design.local_k,
            f"{choice.predicted_precision:.4f}",
            f"{choice.predicted_latency_s * 1e3:.3f}",
            f"{choice.predicted_power_w:.1f}",
        ])
    print(format_table(
        ["target", "V bits", "B", "k", "E[precision]", "latency ms", "W"],
        rows,
        title="adaptive design selection (Section VI future work)",
    ))
    print()

    # 3. Price the balanced design on the three registered boards.
    design = chosen["balanced (precision >= 0.99)"].design
    lengths = matrix.row_lengths()
    rows = []
    for board in BOARDS.values():
        accel = accelerator_on_board(design, board)
        timing = accel.timing_from_row_lengths(lengths)
        power = estimate_fpga_power_w(accel.design)
        rows.append([
            board.name,
            f"{board.peak_bandwidth_gbps:.0f}",
            accel.design.cores,
            f"{timing.total_seconds * 1e3:.3f}",
            f"{timing.throughput_nnz_per_s / power / 1e6:.1f}",
        ])
    print(format_table(
        ["board", "peak GB/s", "cores", "latency ms", "Mnnz/s per W"],
        rows,
        title=f"'{design.name}' across boards (same bandwidth => same speed)",
    ))
    print()

    # 4. Batched serving on the default board.
    engine = TopKSpmvEngine(matrix, design=design)
    batch = engine.query_batch(
        sample_unit_queries(np.random.default_rng(2), 16, DIM), top_k=100
    )
    print(f"batched serving: {len(batch)} queries in {batch.seconds * 1e3:.2f} ms "
          f"-> {batch.queries_per_second:,.0f} queries/s, "
          f"{batch.energy_j * 1e3 / len(batch):.2f} mJ/query")


if __name__ == "__main__":
    main()
