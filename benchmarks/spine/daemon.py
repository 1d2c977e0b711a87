"""The live workloads' daemon process.

Builds the same ``ClusterRuntime`` / ``LiveServer`` pair that
``repro.serving.live.serve_collection`` builds — 2 replicas over one loaded
artifact, package defaults for every batching knob — in its own process, so
the client's JSON work is not billed to the server's interpreter lock.
Only when ``--spans`` is given are the replicas wrapped in
:class:`measure.TracedEngine` proxies; their spans are written when the
daemon stops.

Prints ``READY <port>`` once the socket is bound and the engines are warm;
stops on a ``shutdown`` op or SIGTERM.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

import measure
import spec


def build_server(artifact: str, spans: "list | None"):
    from repro import CompiledCollection, TopKSpmvEngine
    from repro.serving.cluster import ClusterRuntime
    from repro.serving.live import LiveServer

    collection = CompiledCollection.load(artifact)
    replicas = [
        TopKSpmvEngine.from_collection(collection)
        for _ in range(spec.LIVE["replicas"])
    ]
    if spans is not None:
        replicas = [
            measure.TracedEngine(engine, i, spans)
            for i, engine in enumerate(replicas)
        ]
    runtime = ClusterRuntime(
        replicas, router=spec.LIVE["router"], cache_size=spec.LIVE["cache_size"]
    )
    return LiveServer(runtime, top_k=spec.TOP_K, warmup=True)


async def serve(server) -> None:
    await server.start()
    print(f"READY {server.port}", flush=True)
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, server.request_stop)
    await server.serve_until_stopped()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--artifact", required=True)
    parser.add_argument("--spans", default=None,
                        help="trace engine calls and write the spans here")
    args = parser.parse_args(argv)
    measure.use_repo_sources()
    spans = [] if args.spans else None
    server = build_server(args.artifact, spans)
    # The warm-up batch LiveServer.start() runs is not traffic.
    asyncio.run(serve(server))
    if spans is not None:
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump(spans, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
