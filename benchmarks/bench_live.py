"""Benchmark for the live serving daemon (ISSUE-6 tentpole).

Starts a real :class:`LiveServer` in-process (asyncio sockets, executor
dispatch, package batching defaults on the service clock it measures at
start), drives it with the async load
generator at a sustainable Poisson rate, and records what a live deployment
actually exhibits: client round-trip p50/p99, achieved QPS, reject rate —
real wall-clock numbers, not modelled ones.  The run finishes with the
server-side ``verify`` op, so every published number comes from a run whose
decisions were proven bit-identical to the simulator's replay.

Emits ``benchmarks/results/live_serving.json`` (the artifact the CI
live-smoke job uploads) and asserts the acceptance floor: every request is
answered and the decision replay agrees.
"""

import asyncio
import json
from pathlib import Path

from repro import TopKSpmvEngine, compile_collection
from repro.data.synthetic import synthetic_embeddings
from repro.serving.cluster import ClusterRuntime
from repro.serving.live import LiveServer
from repro.serving.loadgen import run_load_gen

N_QUERIES = 192
RATE_QPS = 400.0
N_REPLICAS = 2
TOP_K = 10
MAX_BATCH = 8
CACHE_SIZE = 64
DUPLICATE_FRACTION = 0.25
SEED = 46


async def _bench() -> "tuple[dict, object]":
    collection = compile_collection(synthetic_embeddings(
        n_rows=6000, n_cols=256, avg_nnz=12, distribution="uniform", seed=SEED
    ))
    runtime = ClusterRuntime(
        [TopKSpmvEngine(collection) for _ in range(N_REPLICAS)],
        router="least-outstanding",
        cache_size=CACHE_SIZE,
        max_batch_size=MAX_BATCH,
    )
    server = LiveServer(runtime, top_k=TOP_K, warmup=True)
    await server.start()
    serve_task = asyncio.create_task(server.serve_until_stopped())
    try:
        result = await run_load_gen(
            server.host,
            server.port,
            n_queries=N_QUERIES,
            rate_qps=RATE_QPS,
            seed=SEED,
            duplicate_fraction=DUPLICATE_FRACTION,
            verify=True,
        )
        wall = server.wall_stats()
    finally:
        server.request_stop()
        await serve_task
    return wall, result


def test_live_daemon_serves_wall_clock_stream():
    """A real socket stream: all served, decisions locked, numbers emitted."""
    wall, result = asyncio.run(_bench())

    assert result.n_offered == wall.n_offered == N_QUERIES
    assert result.availability == wall.availability
    assert result.n_queries == N_QUERIES  # unbounded queue: no rejects
    assert result.n_cache_hits > 0  # duplicate traffic must hit the cache
    assert result.verify is not None and result.verify["ok"]
    assert result.verify["equivalent"], result.verify.get("detail")
    assert result.verify["checked"] == N_QUERIES
    assert result.qps > 0.0 and result.span_s > 0.0

    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    payload = {
        "collection": {"rows": 6000, "cols": 256, "avg_nnz": 12, "seed": SEED},
        "offered_rate_qps": RATE_QPS,
        "duplicate_fraction": DUPLICATE_FRACTION,
        "client": result.to_dict(),
        "server_wall": wall.to_dict(),
        "decision_locked": result.verify["equivalent"],
    }
    with open(results_dir / "live_serving.json", "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
