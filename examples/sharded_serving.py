#!/usr/bin/env python3
"""Sharded batch serving: a fleet of simulated boards behind micro-batching.

Builds a 40 000-row collection, shards it across 4 simulated boards in
*aligned* mode (the merged top-k is identical to one big board — sharding is
a pure capacity knob), then drives a Poisson query stream through a
1-replica ``ClusterRuntime`` (the micro-batching serving loop) and prints
the modelled latency distribution.

Run:  python examples/sharded_serving.py
"""

import numpy as np

from repro import PAPER_DESIGNS, TopKSpmvEngine
from repro.data import synthetic_embeddings
from repro.serving import ClusterRuntime, ShardedEngine, poisson_arrivals
from repro.utils.rng import sample_unit_queries


def main() -> None:
    # 1. The collection, and a 4-board sharded deployment of it.
    matrix = synthetic_embeddings(
        n_rows=40_000, n_cols=512, avg_nnz=20, distribution="uniform", seed=13
    )
    fleet = ShardedEngine(matrix, n_shards=4, design=PAPER_DESIGNS["20b"])
    print(fleet.describe())
    print()

    # 2. Aligned sharding changes *nothing* about results: same top-k as the
    #    single-board engine, bit for bit.
    single = TopKSpmvEngine(matrix, design=PAPER_DESIGNS["20b"])
    probe = sample_unit_queries(np.random.default_rng(5), 1, 512)[0]
    assert (
        fleet.query(probe, top_k=25).topk.indices.tolist()
        == single.query(probe, top_k=25).topk.indices.tolist()
    )
    print("sanity: sharded top-25 identical to the single-board engine\n")

    # 3. A bursty query stream through the serving loop: requests coalesce
    #    until the batch fills (16) or the oldest waits 1.5 ms.
    rng = np.random.default_rng(17)
    queries = sample_unit_queries(rng, 512, 512)
    arrivals = poisson_arrivals(512, rate_qps=20_000, rng=rng)
    runtime = ClusterRuntime([fleet], max_batch_size=16, max_wait_s=1.5e-3)
    results, report = runtime.run(queries, arrivals, top_k=10)

    print(report.render())
    print()

    # 4. Every request still gets a full hardware-path answer.
    recall_hits = 0
    for x, got in zip(queries[:20], results[:20]):
        exact = fleet.query_exact(x, top_k=10)
        recall_hits += len(set(got.indices.tolist()) & set(exact.indices.tolist()))
    print(f"recall@10 over 20 sampled requests: {recall_hits / 200:.3f}")


if __name__ == "__main__":
    main()
