#!/usr/bin/env python3
"""The live tier: a real asyncio daemon, decision-locked to the simulator.

Everything before this tier is a discrete-event simulation — arrivals are
an array, time is virtual, runs replay bit-for-bit.  This example runs the
*live* counterpart: a :class:`~repro.serving.live.LiveServer` listening on
a real socket, deciding on a service clock it measured on this host (a
batch forms only while its replica is busy), engines dispatched through a
thread executor — then drives it with the async load
generator on the wall clock and asks the daemon to prove, via its
``verify`` op, that every decision it made (batches, routes, cache hits,
rejects) and every result bit matches a fresh simulator replay of the
recorded arrival stream.

Run:  python examples/live_serve.py
"""

import asyncio

from repro import TopKSpmvEngine, compile_collection
from repro.data import synthetic_embeddings
from repro.serving import ClusterRuntime, LiveServer, run_load_gen

N_ROWS = 6_000
DIM = 256
N_QUERIES = 128


async def main() -> None:
    # 1. One compiled collection, served by a two-replica live daemon with
    #    an exact-result cache.  port=0 → the OS picks a free port.
    collection = compile_collection(
        synthetic_embeddings(N_ROWS, DIM, avg_nnz=12, seed=7)
    )
    runtime = ClusterRuntime(
        [TopKSpmvEngine(collection) for _ in range(2)],
        router="least-outstanding",
        cache_size=64,
        max_batch_size=8,
    )
    server = LiveServer(runtime, top_k=10, warmup=True)
    await server.start()
    serve_task = asyncio.create_task(server.serve_until_stopped())
    print(f"live daemon up on {server.host}:{server.port} "
          f"({server.runtime.n_replicas} replicas, top_k={server.top_k})")
    measured = server.info()["service_tables"][0]
    print("measured service clock (batch size: ms): " + ", ".join(
        f"{q}: {ms:.2f}" for q, ms in zip(measured["sizes"], measured["ms"])
    ))

    # 2. A wall-clock Poisson stream with 25% duplicate queries (cache
    #    traffic), finishing with the server-side decision replay.
    result = await run_load_gen(
        server.host,
        server.port,
        n_queries=N_QUERIES,
        rate_qps=400.0,
        seed=3,
        duplicate_fraction=0.25,
        verify=True,
    )
    print()
    print(result.render())

    # 3. The daemon's own verdict: live decisions vs simulator replay.
    verdict = result.verify
    print()
    if verdict["equivalent"]:
        print(f"decision-locked: all {verdict['checked']} live requests "
              f"replayed bit-identically in the simulator")
    else:
        print(f"DIVERGED: {verdict.get('detail')}")

    server.request_stop()
    await serve_task


if __name__ == "__main__":
    asyncio.run(main())
