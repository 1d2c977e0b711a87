"""Integration tests: the live daemon end-to-end over real sockets.

Real engines, a real event loop, the real load generator — and at the end
of every serving run, the server-side ``verify`` replay must find the live
decisions identical to the simulator's.
"""

import asyncio
import json

import numpy as np
import pytest

from serving_stubs import StubBatchEngine
from repro import TopKSpmvEngine, compile_collection
from repro.cli import build_parser
from repro.data.synthetic import synthetic_embeddings
from repro.errors import FormatError
from repro.serving import ClusterRuntime, LiveServer, run_load_gen
from repro.serving.protocol import read_frame, write_frame
from repro.serving.router import Router

N_COLS = 64


@pytest.fixture(scope="module")
def collection():
    return compile_collection(synthetic_embeddings(
        n_rows=1500, n_cols=N_COLS, avg_nnz=8, distribution="uniform", seed=71
    ))


def _engines(collection, n_replicas):
    return [TopKSpmvEngine(collection) for _ in range(n_replicas)]


async def _with_server(server, body):
    """Run ``body(server)`` against a started server, always stopping it."""
    await server.start()
    serve_task = asyncio.create_task(server.serve_until_stopped())
    try:
        return await body(server)
    finally:
        server.request_stop()
        await serve_task


class TestLoadGenAgainstRealEngines:
    def test_load_gen_verifies_decision_locked(self, collection):
        async def run():
            runtime = ClusterRuntime(
                _engines(collection, 2),
                router="least-outstanding",
                cache_size=32,
                max_batch_size=4,
                max_wait_s=1e-3,
            )
            server = LiveServer(runtime, top_k=5, warmup=True)

            async def body(server):
                return await run_load_gen(
                    server.host,
                    server.port,
                    n_queries=48,
                    rate_qps=2_000.0,
                    seed=3,
                    duplicate_fraction=0.5,
                    verify=True,
                )

            return await _with_server(server, body)

        result = asyncio.run(run())
        assert result.n_offered == 48
        assert result.n_queries == 48  # unbounded queue: nothing rejected
        assert result.verify is not None
        assert result.verify["ok"], result.verify
        assert result.verify["equivalent"], result.verify.get("detail")
        assert result.verify["checked"] == 48
        assert result.n_cache_hits > 0  # 50% duplicates must hit the cache
        # Wall-clock numbers are real and sane.
        assert result.span_s > 0.0
        assert result.qps > 0.0
        payload = result.to_dict()
        assert payload["n_queries"] == 48
        assert payload["verify"]["equivalent"] is True
        assert "p99_latency_ms" in payload

    def test_shutdown_op_stops_the_daemon(self, collection):
        async def run():
            server = LiveServer(
                ClusterRuntime(
                    _engines(collection, 1), max_batch_size=8, max_wait_s=0.0
                ),
                top_k=3,
            )
            await server.start()
            serve_task = asyncio.create_task(server.serve_until_stopped())
            result = await run_load_gen(
                server.host, server.port, n_queries=8, rate_qps=5_000.0,
                seed=9, shutdown=True,
            )
            # The daemon honours the shutdown op without request_stop().
            await asyncio.wait_for(serve_task, timeout=30.0)
            return result

        result = asyncio.run(run())
        assert result.n_queries == 8


def _stub_runtime(base_s=0.5, n_replicas=1, **overrides):
    config = dict(
        router="round-robin", max_batch_size=2, max_wait_s=0.0,
        queue_capacity=None, cache_size=None,
    )
    config.update(overrides)
    replicas = [
        StubBatchEngine(base_s=base_s, per_query_s=0.0, n_cols=8)
        for _ in range(n_replicas)
    ]
    return ClusterRuntime(replicas, **config)


class TestAdmissionControl:
    def test_floods_are_rejected_deterministically(self):
        # One replica, half-second modelled batches, queue bound of one:
        # a burst of 8 back-to-back queries admits the first batch and one
        # queued request; virtual time guarantees the rest bounce.
        async def run():
            server = LiveServer(_stub_runtime(queue_capacity=1), top_k=1)

            async def body(server):
                return await run_load_gen(
                    server.host, server.port, n_queries=8,
                    rate_qps=1e6, seed=5, verify=True,
                )

            return await _with_server(server, body)

        result = asyncio.run(run())
        assert result.n_rejected > 0
        assert result.n_queries >= 1
        assert result.verify["equivalent"], result.verify.get("detail")
        # Completed-request RTTs are recorded; rejects only count.
        assert len(result.latencies_s) == result.n_queries
        # Virtual latencies reflect the modelled half-second batches even
        # though the wall run finishes in milliseconds.
        assert result.virtual_s.max() >= 0.5


class TestProtocolErrorPaths:
    async def _roundtrip(self, messages):
        server = LiveServer(_stub_runtime(base_s=1e-3), top_k=1)

        async def body(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            replies = []
            for message in messages:
                await write_frame(writer, message)
                replies.append(await read_frame(reader))
            writer.close()
            await writer.wait_closed()
            return replies

        return await _with_server(server, body)

    def test_unknown_op_gets_typed_error(self):
        (reply,) = asyncio.run(
            self._roundtrip([{"op": "frobnicate", "id": 1}])
        )
        assert reply["op"] == "error"
        assert "unknown op" in reply["error"]
        assert reply["id"] == 1

    def test_bad_query_shape_gets_typed_error(self):
        replies = asyncio.run(
            self._roundtrip(
                [
                    {"op": "query", "id": 1, "query": [1.0, 2.0]},  # short
                    {"op": "query", "id": 2, "query": "not-a-vector"},
                    {"op": "query", "id": 3},  # missing
                ]
            )
        )
        for reply in replies:
            assert reply["op"] == "error"
            assert "flat list of 8 numbers" in reply["error"]

    def test_non_finite_query_gets_typed_error(self):
        """JSON's ``NaN``/``Infinity`` tokens decode to floats: such a query
        is refused as ``bad-query`` and logged like any other reply."""
        replies = asyncio.run(
            self._roundtrip(
                [
                    {"op": "query", "id": 1, "query": [float("nan")] + [1.0] * 7},
                    {"op": "query", "id": 2, "query": [1.0] * 7 + [float("inf")]},
                    {"op": "query", "id": 3, "query": [-float("inf")] * 8},
                    {"op": "stats"},
                ]
            )
        )
        *errors, stats = replies
        for client_id, reply in enumerate(errors, start=1):
            assert reply["op"] == "error"
            assert reply["code"] == "bad-query"
            assert reply["id"] == client_id
            assert "finite" in reply["error"]
        assert stats["n_offered"] == 0  # never admitted to the decision core
        assert stats["wall"]["n_offered"] == 3
        assert stats["wall"]["error_codes"] == {"bad-query": 3}

    def test_mismatched_top_k_gets_typed_error(self):
        (reply,) = asyncio.run(
            self._roundtrip(
                [{"op": "query", "id": 4, "query": [1.0] * 8, "top_k": 99}]
            )
        )
        assert reply["op"] == "error"
        assert "top_k=1" in reply["error"]

    def test_ping_info_stats_ops(self):
        replies = asyncio.run(
            self._roundtrip(
                [
                    {"op": "ping", "id": 0},
                    {"op": "info"},
                    {"op": "query", "id": 1, "query": [1.0] * 8},
                    {"op": "stats"},
                ]
            )
        )
        pong, info, result, stats = replies
        assert pong == {"op": "pong", "id": 0}
        assert info["op"] == "info"
        assert info["n_cols"] == 8
        assert info["top_k"] == 1
        assert info["n_replicas"] == 1
        assert result["op"] == "result" and result["status"] == "served"
        assert stats["op"] == "stats"
        assert stats["n_offered"] == 1
        assert stats["wall"]["n_queries"] == 1

    def test_protocol_error_closes_connection_but_not_server(self):
        async def run():
            server = LiveServer(_stub_runtime(base_s=1e-3), top_k=1)

            async def body(server):
                bad_r, bad_w = await asyncio.open_connection(
                    server.host, server.port
                )
                bad_w.write(b"\xff\xff\xff\xff")  # 4 GiB announced frame
                await bad_w.drain()
                # Typed error frame first, then the server hangs up (a
                # corrupt length prefix cannot be resynchronised).
                reply = await read_frame(bad_r)
                assert reply["op"] == "error"
                assert reply["code"] == "bad-frame"
                assert await read_frame(bad_r) is None
                bad_w.close()
                await bad_w.wait_closed()
                # A fresh, well-behaved connection still works.
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                await write_frame(writer, {"op": "ping", "id": 7})
                reply = await read_frame(reader)
                writer.close()
                await writer.wait_closed()
                return reply

            return await _with_server(server, body)

        assert asyncio.run(run()) == {"op": "pong", "id": 7}


class TestCliVerbs:
    def test_serve_live_args_accepted(self):
        args = build_parser().parse_args(
            ["serve-live", "--quick", "--port", "9000", "--top-k", "5",
             "--replicas", "2", "--cache-size", "64"]
        )
        assert args.experiment == "serve-live"
        assert args.port == 9000
        assert args.top_k == 5

    def test_load_gen_args_accepted(self):
        args = build_parser().parse_args(
            ["load-gen", "--port", "9000", "--n-queries", "100",
             "--duplicate-fraction", "0.25", "--shutdown", "--no-verify"]
        )
        assert args.experiment == "load-gen"
        assert args.duplicate_fraction == 0.25
        assert args.shutdown is True
        assert args.no_verify is True

    def test_load_gen_requires_a_port(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["load-gen"])
        assert excinfo.value.code == 2
        assert "--port" in capsys.readouterr().err


class TestVerifyOpGating:
    def test_verify_with_no_traffic_is_trivially_ok(self):
        async def run():
            server = LiveServer(_stub_runtime(base_s=1e-3), top_k=1)

            async def body(server):
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                await write_frame(writer, {"op": "verify"})
                reply = await read_frame(reader)
                writer.close()
                await writer.wait_closed()
                return reply

            return await _with_server(server, body)

        reply = asyncio.run(run())
        assert reply == {"op": "verify", "ok": True, "equivalent": True,
                         "checked": 0}

    def test_verify_refuses_a_shared_cache(self):
        # A cache carried across runs has pre-run state the replay cannot
        # reconstruct; verify must refuse, not report a bogus divergence.
        from repro.serving import QueryCache

        async def run():
            runtime = ClusterRuntime(
                [StubBatchEngine(base_s=1e-3, n_cols=8, digest="d")],
                cache=QueryCache(8), max_batch_size=2, max_wait_s=0.0,
            )
            server = LiveServer(runtime, top_k=1)

            async def body(server):
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                await write_frame(
                    writer, {"op": "query", "id": 0, "query": [1.0] * 8}
                )
                assert (await read_frame(reader))["op"] == "result"
                await write_frame(writer, {"op": "verify"})
                reply = await read_frame(reader)
                writer.close()
                await writer.wait_closed()
                return reply

            return await _with_server(server, body)

        reply = asyncio.run(run())
        assert reply["ok"] is False
        assert "per-run cache" in reply["error"]


class _PairsRouter(Router):
    """A custom (unregistered) policy: two requests per replica in turn."""

    name = "pairs"

    def __init__(self) -> None:
        self._n = 0

    def reset(self) -> None:
        self._n = 0

    def select(self, outstanding: "list[int]") -> int:
        self._n += 1
        return ((self._n - 1) // 2) % len(outstanding)


class TestReplayRuntime:
    """``verify`` replays through a copy of the served router, reset."""

    def _verify(self, runtime):
        async def run():
            server = LiveServer(runtime, top_k=1)

            async def body(server):
                return await run_load_gen(
                    server.host, server.port, n_queries=24,
                    rate_qps=5_000.0, seed=13, verify=True,
                )

            return await _with_server(server, body)

        return asyncio.run(run()).verify

    def test_custom_router_instance_replays(self):
        router = _PairsRouter()
        verdict = self._verify(_stub_runtime(n_replicas=3, router=router))
        assert verdict["ok"] and verdict["equivalent"], verdict
        assert verdict["checked"] == 24

    def test_power_of_two_replays_after_its_generator_advanced(self):
        runtime = _stub_runtime(
            base_s=1e-3, n_replicas=3, router="power-of-two", router_seed=5
        )
        # A simulated run first: it leaves the router's generator advanced.
        queries = np.ones((16, 8))
        runtime.run(queries, np.linspace(0.0, 1e-3, 16), top_k=1)
        verdict = self._verify(runtime)
        assert verdict["ok"] and verdict["equivalent"], verdict


class TestEngineFailure:
    class _ExplodingEngine:
        matrix = type("M", (), {"n_cols": 8})()

        def batch_seconds(self, n_queries):
            return 1e-3

        def query_batch(self, queries, top_k):
            raise RuntimeError("board fell over")

    def test_engine_failure_degrades_to_typed_failed_response(self):
        # A persistently-failing engine no longer poisons the run: the
        # batch is retried with backoff, the replica struck out, and the
        # client gets a typed ``failed`` result — the server survives and
        # drains cleanly.
        async def run():
            server = LiveServer(
                ClusterRuntime(
                    [self._ExplodingEngine()],
                    max_batch_size=2, max_wait_s=0.0,
                ),
                top_k=1,
            )
            await server.start()
            serve_task = asyncio.create_task(server.serve_until_stopped())
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            await write_frame(
                writer, {"op": "query", "id": 0, "query": [1.0] * 8}
            )
            reply = await read_frame(reader)
            writer.close()
            await writer.wait_closed()
            server.request_stop()
            await serve_task  # no exception: the failure was absorbed
            return reply, server.wall_stats()

        reply, wall = asyncio.run(run())
        assert reply["op"] == "result"
        assert reply["status"] == "failed"
        assert "indices" not in reply
        # The wall view counts the typed failure as a failure, not a reject.
        assert wall.n_offered == 1
        assert wall.n_rejected == 0
        assert wall.n_failed == 1
        assert wall.availability == 0.0

    def test_short_batch_is_counted_as_an_engine_failure(self):
        # An engine returning fewer results than the batch has members
        # poisons the run; the client's typed engine-failure reply must
        # still be counted by the wall view, never dropped from it.
        class ShortEngine(StubBatchEngine):
            def query_batch(self, queries, top_k):
                served = super().query_batch(queries, top_k)
                return type(served)(served.topk[:-1], served.seconds,
                                    served.energy_j)

        async def run():
            server = LiveServer(
                ClusterRuntime([ShortEngine(n_cols=8)], max_batch_size=1,
                               max_wait_s=0.0),
                top_k=1,
            )
            await server.start()
            serve_task = asyncio.create_task(server.serve_until_stopped())
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            await write_frame(
                writer, {"op": "query", "id": 0, "query": [1.0] * 8}
            )
            reply = await read_frame(reader)
            writer.close()
            await writer.wait_closed()
            server.request_stop()
            with pytest.raises(FormatError, match="0 result"):
                await serve_task  # the run was poisoned, and says so
            return reply, server.wall_stats()

        reply, wall = asyncio.run(run())
        assert reply["op"] == "error"
        assert reply["code"] == "engine-failure"
        assert wall.n_offered == 1
        assert wall.error_codes == {"engine-failure": 1}
        assert wall.availability == 0.0


class TestCliEndToEnd:
    def test_serve_live_plus_load_gen_verbs(self, tmp_path, capsys):
        import threading

        from repro.cli import main

        port_box: "list[int]" = []
        ready = threading.Event()

        def daemon():
            async def run():
                server = LiveServer(
                    _stub_runtime(base_s=1e-3, n_replicas=2), top_k=1
                )
                await server.start()
                port_box.append(server.port)
                ready.set()
                await server.serve_until_stopped()

            asyncio.run(run())

        thread = threading.Thread(target=daemon, daemon=True)
        thread.start()
        assert ready.wait(timeout=30.0)

        out_json = tmp_path / "load-gen.json"
        rc = main(
            ["load-gen", "--port", str(port_box[0]), "--n-queries", "16",
             "--rate-qps", "2000", "--shutdown", "--json", str(out_json)]
        )
        thread.join(timeout=30.0)
        assert rc == 0
        assert not thread.is_alive()  # the shutdown op stopped the daemon
        payload = json.loads(out_json.read_text())
        assert payload["verify"]["equivalent"] is True
        assert payload["n_queries"] == 16
        assert "p99_latency_ms" in payload
