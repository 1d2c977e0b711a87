"""Property suite: the live daemon is decision-locked to the simulator.

Each example builds a random cluster configuration (replica count, batching
knobs, router, admission bound, optional exact-result cache), pushes a
random pipelined query stream through a real :class:`LiveServer` socket on
the wall clock, then replays the server's *recorded* ``(rid, arrival,
query)`` stream through a fresh :class:`ClusterRuntime` and asserts the two
runs are identical in every decision — batch membership and dispatch order,
route choices, cache hits/misses, rejects — and in every float bit of every
result.  Wall-clock timing varies run to run; the recorded trace is the
contract, so the property is deterministic even though the schedule is not.

Stub engines keep each example in the low milliseconds; the socket, the
event loop, the executor handoff and the virtual clock are all real.  The
servers take no warm-up, so they decide on the runtime as given: its
service table — drawn as one more axis, ``None`` or a frozen non-decreasing
table such as a warm-up would measure — is what the policy decides on.
"""

import asyncio

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from serving_stubs import StubBatchEngine, service_tables
from repro.serving.cluster import ClusterRuntime
from repro.serving.live import LiveServer, decisions_equivalent
from repro.serving.protocol import read_frame, result_from_wire, write_frame
from repro.serving.router import make_router

N_COLS = 8

configs = st.fixed_dictionaries(
    {
        "n_replicas": st.integers(min_value=1, max_value=3),
        "max_batch_size": st.integers(min_value=1, max_value=4),
        "max_wait_s": st.sampled_from([0.0, 5e-4, 2e-3]),
        "queue_capacity": st.sampled_from([None, 1, 2, 4]),
        "router": st.sampled_from(
            ["round-robin", "least-outstanding", "power-of-two"]
        ),
        "cache_size": st.sampled_from([None, 2, 8]),
        # Modelled service time: chosen to both undercut and exceed the
        # wall gaps below, so boards go idle in some examples and build
        # deep virtual backlogs (and rejects) in others.
        "base_s": st.sampled_from([1e-4, 2e-3, 2e-2]),
        "per_query_s": st.sampled_from([0.0, 5e-4]),
        "service_table": service_tables,
    }
)

streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),        # query alphabet index
        st.floats(min_value=0.0, max_value=2e-3),     # wall gap before send
    ),
    min_size=1,
    max_size=20,
)


def _build_runtime(config) -> ClusterRuntime:
    replicas = [
        StubBatchEngine(
            base_s=config["base_s"],
            per_query_s=config["per_query_s"],
            marker=0,
            n_cols=N_COLS,
            digest="stub-digest" if config["cache_size"] else None,
        )
        for _ in range(config["n_replicas"])
    ]
    return ClusterRuntime(
        replicas,
        router=make_router(config["router"], seed=7),
        cache_size=config["cache_size"],
        max_batch_size=config["max_batch_size"],
        max_wait_s=config["max_wait_s"],
        queue_capacity=config["queue_capacity"],
        service_tables=(
            None if config["service_table"] is None
            else (config["service_table"],) * config["n_replicas"]
        ),
    )


async def _drive(config, stream):
    """Serve one pipelined stream over a real socket; return the evidence."""
    # A tiny query alphabet makes duplicates (cache hits, refreshes) likely.
    alphabet = np.eye(6, N_COLS) + 1.0
    server = LiveServer(_build_runtime(config), top_k=1)
    await server.start()
    serve_task = asyncio.create_task(server.serve_until_stopped())
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    responses = {}

    async def recv() -> None:
        for _ in range(len(stream)):
            message = await read_frame(reader)
            assert message is not None and message["op"] == "result"
            responses[message["id"]] = message

    recv_task = asyncio.create_task(recv())
    for i, (letter, gap) in enumerate(stream):
        if gap > 0.0:
            await asyncio.sleep(gap)
        await write_frame(
            writer,
            {"op": "query", "id": i, "query": alphabet[letter].tolist()},
        )
    await recv_task
    writer.close()
    await writer.wait_closed()
    server.request_stop()
    await serve_task
    return server, responses


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(config=configs, stream=streams)
def test_live_decisions_replay_bit_identical(config, stream):
    """Live run == simulator replay: every decision, every result bit."""
    server, responses = asyncio.run(_drive(config, stream))
    live_results, live_report = server.decision_report()
    queries, arrivals = server.recorded_stream()

    replay = _build_runtime(config)
    sim_results, sim_report = replay.run(queries, arrivals, top_k=1)

    ok, detail = decisions_equivalent(
        live_results, live_report, sim_results, sim_report
    )
    assert ok, detail

    # The wire responses carry the same exact results the simulator
    # produces for the same request ids — the socket adds no epsilon.
    assert len(responses) == len(stream)
    for message in responses.values():
        rid = message["request_id"]
        if message["status"] == "rejected":
            assert sim_results[rid] is None
            continue
        wired = result_from_wire(message)
        assert wired.indices.tobytes() == sim_results[rid].indices.tobytes()
        assert wired.values.tobytes() == sim_results[rid].values.tobytes()


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(config=configs, stream=streams)
def test_live_server_side_verify_agrees(config, stream):
    """The daemon's own ``verify`` replay reaches the same verdict: locked."""

    async def run() -> dict:
        server, _ = await _drive_keepalive(config, stream)
        try:
            return await server.verify()
        finally:
            server.request_stop()
            await server._serve_task

    async def _drive_keepalive(config, stream):
        # Like _drive, but leaves the server running so verify() sees a
        # live (idle) policy rather than a drained one.
        alphabet = np.eye(6, N_COLS) + 1.0
        server = LiveServer(_build_runtime(config), top_k=1)
        await server.start()
        server._serve_task = asyncio.create_task(server.serve_until_stopped())
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        responses = {}
        for i, (letter, gap) in enumerate(stream):
            if gap > 0.0:
                await asyncio.sleep(gap)
            await write_frame(
                writer,
                {"op": "query", "id": i, "query": alphabet[letter].tolist()},
            )
            message = await read_frame(reader)
            responses[message["id"]] = message
        writer.close()
        await writer.wait_closed()
        return server, responses

    verdict = asyncio.run(run())
    assert verdict["ok"], verdict
    assert verdict["equivalent"], verdict.get("detail")
    assert verdict["checked"] == len(stream)
