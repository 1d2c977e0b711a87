#!/usr/bin/env python3
"""Build once, serve forever: the compile → save → load → serve workflow.

A production similarity-search deployment pays the expensive build phase
(partitioning + quantisation + BS-CSR packing) exactly once, persists the
artifact, and every serving process — single board or sharded fleet —
restarts from the saved buffers in I/O time with no re-encode.

Run:  python examples/compile_and_serve.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import CompiledCollection, PAPER_DESIGNS, TopKSpmvEngine, compile_collection
from repro.core.partition import partition_matrix
from repro.data import synthetic_embeddings
from repro.formats.bscsr import encode_bscsr_reference
from repro.serving import ShardedEngine
from repro.utils.rng import sample_unit_queries


def main() -> None:
    # 1. BUILD (offline, once): compile the collection for the 20-bit design.
    matrix = synthetic_embeddings(
        n_rows=50_000, n_cols=512, avg_nnz=20, distribution="uniform", seed=21
    )
    design = PAPER_DESIGNS["20b"]
    started = time.perf_counter()
    collection = compile_collection(matrix, design)
    build_s = time.perf_counter() - started
    print(collection.describe())

    # What a cold start cost before the compiled artifact existed: every
    # process re-ran the original per-packet encoder over all partitions.
    started = time.perf_counter()
    for part in partition_matrix(matrix, design.cores):
        encode_bscsr_reference(
            part, design.layout, design.codec, design.effective_rows_per_packet
        )
    legacy_s = time.perf_counter() - started
    print(f"build: {build_s * 1e3:.0f} ms vectorised "
          f"(was {legacy_s * 1e3:.0f} ms with the per-packet encoder, "
          f"{legacy_s / build_s:.0f}x)\n")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "collection.npz"
        collection.save(path)
        print(f"saved {path.stat().st_size / 1e6:.2f} MB artifact\n")

        # 2. SERVE (every restart): load the artifact — the digest is
        #    verified, the build pipeline is never invoked, and the raw
        #    dataset does not need to exist on the serving host at all.
        started = time.perf_counter()
        loaded = CompiledCollection.load(path)
        engine = TopKSpmvEngine.from_collection(loaded)
        cold_start_s = time.perf_counter() - started
        print(f"serving cold-start from artifact: {cold_start_s * 1e3:.0f} ms, "
              "digest-verified, zero re-encode\n")

        # 3. Results are bit-identical to an engine built from the matrix.
        probe = sample_unit_queries(np.random.default_rng(4), 1, 512)[0]
        direct = TopKSpmvEngine(matrix, design=PAPER_DESIGNS["20b"])
        a = direct.query(probe, top_k=10).topk
        b = engine.query(probe, top_k=10).topk
        assert a.indices.tolist() == b.indices.tolist()
        assert a.values.tobytes() == b.values.tobytes()
        print("sanity: loaded engine's top-10 bit-identical to a direct build\n")

        # 4. The query path has one fold: every segment walks its sorted
        #    run, decoded straight from the packets, scoring large chunks
        #    by float32 SpMM and rescoring the rows that straddle the K-th
        #    score exactly.  Backend names (`kernel=` on
        #    `simulate_multicore_batch`) steer only the per-core
        #    candidate path.
        from repro.core.kernels import run_segmented
        from repro.core.segments import SegmentedCollection

        x = loaded.design.quantize_query(probe[None, :])
        out = run_segmented(SegmentedCollection.from_collection(loaded), x, 10)
        print(f"query path fold: {', '.join(out.segment_kernels)}\n")

        # 5. The same artifact shards across a fleet with zero re-encode:
        #    the fleet serves the loaded buffers and deals their streams.
        fleet = ShardedEngine(loaded, n_shards=4)
        print(fleet.describe())


if __name__ == "__main__":
    main()
