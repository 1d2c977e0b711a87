#!/usr/bin/env python3
"""Quickstart: load a sparse embedding collection, query the simulated FPGA.

Builds a 50 000-row synthetic embedding matrix, loads it into the paper's
best design (20-bit fixed point, 32 cores on an Alveo U280 model), runs one
Top-K query, and compares the approximate result against the exact float64
reference.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import PAPER_DESIGNS, TopKSpmvEngine
from repro.data import synthetic_embeddings
from repro.utils.rng import sample_unit_queries


def main() -> None:
    # 1. An embedding collection: 50 000 sparse embeddings of dimension 512,
    #    ~20 non-zeros each (2-8% sparsity, as in the paper's Table III).
    matrix = synthetic_embeddings(
        n_rows=50_000, n_cols=512, avg_nnz=20, distribution="uniform", seed=42
    )
    print(f"collection: {matrix.n_rows} embeddings x {matrix.n_cols} dims, "
          f"{matrix.nnz} non-zeros")

    # 2. Load it into the simulated accelerator (partitions the matrix over
    #    32 cores and encodes each partition as a BS-CSR packet stream).
    engine = TopKSpmvEngine(matrix, design=PAPER_DESIGNS["20b"])
    print(engine.describe())
    print()

    # 3. One query embedding, L2-normalised like the collection rows.
    query = sample_unit_queries(np.random.default_rng(7), 1, 512)[0]

    # 4. Top-10 most similar embeddings, through the full hardware path
    #    (quantised values, packet streams, one global Top-K scratchpad;
    #    the per-core k=8 candidates are engine.query_candidates).
    result = engine.query(query, top_k=10)
    exact = engine.query_exact(query, top_k=10)

    print("rank | simulated FPGA      | exact float64")
    print("-----+---------------------+---------------------")
    for i in range(10):
        print(
            f"{i + 1:4d} | row {result.topk.indices[i]:6d}  "
            f"{result.topk.values[i]:.5f} | "
            f"row {exact.indices[i]:6d}  {exact.values[i]:.5f}"
        )

    overlap = len(set(result.topk.indices.tolist()) & set(exact.indices.tolist()))
    print()
    print(f"top-10 overlap with exact search: {overlap}/10")
    print(f"simulated query latency: {result.latency_s * 1e3:.3f} ms "
          f"({result.throughput_nnz_per_s / 1e9:.1f} Gnnz/s)")
    print(f"simulated board power:   {result.power_w:.1f} W "
          f"({result.energy_j * 1e3:.2f} mJ per query)")


if __name__ == "__main__":
    main()
