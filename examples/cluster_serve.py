#!/usr/bin/env python3
"""The cluster tier: replicated fleets, routing, result cache, admission.

Compiles one collection, replicates a 4-shard fleet over it four times, and
drives a bursty duplicate-heavy Poisson stream through the
:class:`~repro.serving.cluster.ClusterRuntime` — power-of-two-choices
routing, an exact-result LRU cache and a bounded admission queue.  Because
the runtime is a seeded discrete-event simulation, the whole run replays
bit-for-bit: the script proves it by running twice and comparing traces.

Run:  python examples/cluster_serve.py
"""

import numpy as np

from repro import PAPER_DESIGNS, TopKSpmvEngine, compile_collection
from repro.data import synthetic_embeddings
from repro.serving import ClusterRuntime, ShardedEngine, poisson_arrivals
from repro.utils.rng import sample_unit_queries


def main() -> None:
    # 1. BUILD once: one compiled collection shared by every replica.
    matrix = synthetic_embeddings(
        n_rows=30_000, n_cols=512, avg_nnz=20, distribution="uniform", seed=3
    )
    collection = compile_collection(matrix, PAPER_DESIGNS["20b"])
    print(collection.describe(), "\n")

    # 2. REPLICATE: four 4-shard fleets — aligned shards slice the shared
    #    buffers, so replication costs bookkeeping, not re-encoding.
    replicas = [ShardedEngine(collection, n_shards=4) for _ in range(4)]

    # 3. A bursty stream with repeats (trending queries): 512 requests of
    #    which the last 256 duplicate the first 128 — cache food.
    rng = np.random.default_rng(11)
    queries = sample_unit_queries(rng, 512, collection.n_cols)
    queries[256:384] = queries[:128]
    queries[384:] = queries[:128]
    rate = 4 * 0.9 * 16 / (16 * replicas[0].makespan_s
                           + replicas[0].constants.host_overhead_s)
    arrivals = poisson_arrivals(512, rate, rng)

    runtime = ClusterRuntime(
        replicas,
        router="power-of-two",
        router_seed=7,
        cache_size=256,
        max_batch_size=16,
        queue_capacity=48,
    )
    results, report = runtime.run(queries, arrivals, top_k=10)
    print(f"offered {rate:.0f} QPS across {runtime.n_replicas} replicas\n")
    print(report.render(), "\n")

    # 4. Cache hits are bit-identical to engine results.
    flat = TopKSpmvEngine.from_collection(collection)
    hits = [t for t in report.trace if t.status == "cache-hit"]
    for t in hits[:8]:
        direct = flat.query(queries[t.request_id], top_k=10).topk
        got = results[t.request_id]
        assert got.indices.tolist() == direct.indices.tolist()
        assert got.values.tobytes() == direct.values.tobytes()
    print(f"sanity: {len(hits)} cache hits, spot-checked bit-identical "
          "to the unsharded engine\n")

    # 5. Deterministic replay: the same run again is trace-identical.
    _, replay = runtime.run(queries, arrivals, top_k=10)
    assert replay.trace == report.trace
    assert replay.to_dict() == report.to_dict()
    print("sanity: second run replayed the exact same per-request trace")


if __name__ == "__main__":
    main()
