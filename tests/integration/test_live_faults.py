"""Integration tests: the live daemon under injected faults, end-to-end.

Real sockets, a real event loop, a fault plan replaying against the wall
clock — and the decision lock must hold anyway: the ``verify`` op replays
the recorded stream (fault plan included) through the simulator and must
find every decision identical.
"""

import asyncio
import math
from collections import Counter

import pytest

from serving_stubs import StubBatchEngine
from repro.cli import build_parser
from repro.serving import ClusterRuntime, LiveServer, run_load_gen
from repro.serving.faults import (
    EngineFault,
    FaultPlan,
    ReplicaCrash,
    ResilienceConfig,
    SlowWindow,
)
from repro.serving.protocol import read_frame, write_frame


def _runtime(n_replicas=2, base_s=1e-3, plan=None, resilience=None, **over):
    config = dict(
        router="least-outstanding", max_batch_size=4, max_wait_s=0.0,
    )
    config.update(over)
    replicas = [
        StubBatchEngine(base_s=base_s, per_query_s=0.0, n_cols=8, marker=r)
        for r in range(n_replicas)
    ]
    return ClusterRuntime(
        replicas, fault_plan=plan, resilience=resilience, **config
    )


async def _with_server(server, body):
    await server.start()
    serve_task = asyncio.create_task(server.serve_until_stopped())
    try:
        return await body(server)
    finally:
        server.request_stop()
        await serve_task


class TestFailoverUnderPlan:
    def test_dead_replica_whole_run_still_serves_everything(self):
        # Replica 0 is down for any instant traffic can land: routing must
        # exclude it, the engine fault on the survivor must be retried, and
        # the live decisions must still replay through the simulator.
        plan = FaultPlan(
            crashes=(ReplicaCrash(replica=0, at_s=1e-6, recover_s=math.inf),),
            engine_faults=(EngineFault(replica=1, batch_index=0),),
            slow=(SlowWindow(replica=1, start_s=0.0, end_s=1e9, factor=2.0),),
        )
        resilience = ResilienceConfig(max_retries=3, seed=5)

        async def run():
            server = LiveServer(
                _runtime(plan=plan, resilience=resilience), top_k=1
            )

            async def body(server):
                result = await run_load_gen(
                    server.host, server.port, n_queries=24,
                    rate_qps=2_000.0, seed=11, verify=True,
                )
                return result, server

            return await _with_server(server, body)

        result, server = asyncio.run(run())
        assert result.n_offered == 24
        assert result.n_queries == 24          # failover rescued everything
        assert result.availability == 1.0
        assert result.verify["ok"], result.verify
        assert result.verify["equivalent"], result.verify.get("detail")
        _, report = server.decision_report()
        stats = report.fault_stats
        assert stats is not None
        assert stats["n_crashes"] == 1
        assert stats["n_retries"] >= 1           # the injected engine fault
        assert stats["n_rescued"] >= 1
        assert stats["n_failed"] == 0
        # Every batch ran on the survivor, stretched by its slow window.
        for trace in report.trace:
            assert trace.replica != 0

    def test_drain_under_chaos_leaves_nothing_hanging(self):
        # shutdown=True exercises the drain path: the daemon must answer
        # every in-flight request and exit cleanly despite the plan.
        plan = FaultPlan(
            crashes=(ReplicaCrash(replica=1, at_s=1e-6, recover_s=math.inf),),
            engine_faults=(
                EngineFault(replica=0, batch_index=0),
                EngineFault(replica=0, batch_index=2),
            ),
        )

        async def run():
            server = LiveServer(
                _runtime(plan=plan, resilience=ResilienceConfig(max_retries=2)),
                top_k=1,
            )
            await server.start()
            serve_task = asyncio.create_task(server.serve_until_stopped())
            result = await run_load_gen(
                server.host, server.port, n_queries=16, rate_qps=5_000.0,
                seed=2, verify=True, shutdown=True,
            )
            await asyncio.wait_for(serve_task, timeout=30.0)
            return result

        result = asyncio.run(run())
        assert result.n_queries + result.n_failed == 16  # all terminal
        assert result.verify["equivalent"], result.verify.get("detail")


class TestDeadline:
    def test_slow_batch_gets_typed_deadline_error(self):
        # One replica with one-second modelled batches: the second request
        # cannot dispatch before virtual (= wall) 1.0 s, so a 50 ms
        # deadline must fire — and the decision core must still finish the
        # request afterwards (exactly-once, replay untouched).
        async def run():
            server = LiveServer(
                _runtime(n_replicas=1, base_s=1.0, max_batch_size=1),
                top_k=1, deadline_s=0.05,
            )

            async def body(server):
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                await write_frame(
                    writer, {"op": "query", "id": 0, "query": [1.0] * 8}
                )
                first = await read_frame(reader)
                await write_frame(
                    writer, {"op": "query", "id": 1, "query": [2.0] * 8}
                )
                second = await read_frame(reader)
                await write_frame(writer, {"op": "stats"})
                stats = await read_frame(reader)
                writer.close()
                await writer.wait_closed()
                return first, second, stats, server

            return await _with_server(server, body)

        first, second, stats, server = asyncio.run(run())
        assert first["op"] == "result" and first["status"] == "served"
        assert second["op"] == "error"
        assert second["code"] == "deadline"
        assert second["id"] == 1
        assert "request_id" in second
        assert stats["wall"]["error_codes"] == {"deadline": 1}
        assert stats["wall"]["n_offered"] == 2
        assert stats["wall"]["availability"] == 0.5
        # The drain completed the deadline-missed request in virtual time.
        _, report = server.decision_report()
        assert report.n_queries == 2
        statuses = [t.status for t in report.trace]
        assert statuses == ["served", "served"]


class TestLoadShed:
    def test_overload_sheds_with_typed_errors_and_replays(self):
        # A tiny admission bound under a burst: extra requests get typed
        # ``overloaded`` errors *before* entering the decision stream, so
        # the verify op still finds the (smaller) recorded stream exact.
        async def run():
            server = LiveServer(
                _runtime(n_replicas=1, base_s=0.5, max_batch_size=1),
                top_k=1, max_pending=1,
            )

            async def body(server):
                return await run_load_gen(
                    server.host, server.port, n_queries=8,
                    rate_qps=1e6, seed=7, verify=True,
                )

            return await _with_server(server, body)

        result = asyncio.run(run())
        assert result.error_codes.get("overloaded", 0) >= 1
        assert result.n_queries >= 1
        assert result.n_queries + result.n_errors == 8
        assert result.availability < 1.0
        assert result.verify["ok"], result.verify
        assert result.verify["equivalent"], result.verify.get("detail")
        assert result.verify["checked"] == result.n_queries


class TestOneRunThreeViews:
    def test_client_wall_and_decision_views_agree(self):
        # Duplicate traffic against a cached replica, with a load-shed
        # bound small enough that a burst is partly shed: the client's and
        # the daemon's wall views are two views of the same replies, and
        # the decision stream holds exactly the requests that were not
        # refused before admission.
        async def run():
            runtime = ClusterRuntime(
                [StubBatchEngine(base_s=0.05, per_query_s=0.0, n_cols=8,
                                 digest="d")],
                cache_size=16, max_batch_size=2, max_wait_s=0.0,
            )
            server = LiveServer(runtime, top_k=1, max_pending=3)

            async def body(server):
                return await run_load_gen(
                    server.host, server.port, n_queries=32, rate_qps=400.0,
                    seed=4, duplicate_fraction=0.5, verify=True,
                )

            result = await _with_server(server, body)
            return result, server.wall_stats(), server.decision_report()[1]

        client, wall, decision = asyncio.run(run())
        assert wall.error_codes.get("overloaded", 0) >= 1  # some were shed
        assert client.n_offered == wall.n_offered == 32
        assert Counter(client.outcomes) == Counter(wall.outcomes)
        assert client.availability == wall.availability
        refused = wall.error_codes.get("overloaded", 0) + wall.error_codes.get(
            "shutting-down", 0
        )
        assert decision.n_offered == wall.n_offered - refused
        assert client.verify["equivalent"], client.verify.get("detail")


class TestFrameBounds:
    def test_oversized_frame_is_typed_then_closed(self):
        async def run():
            server = LiveServer(
                _runtime(n_replicas=1), top_k=1, max_frame_bytes=1024,
            )

            async def body(server):
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                # A legal frame whose body exceeds the server's bound.
                await write_frame(
                    writer, {"op": "query", "id": 0, "query": [1.0] * 4096}
                )
                reply = await read_frame(reader)
                closed = await read_frame(reader)
                writer.close()
                await writer.wait_closed()
                # The server is still healthy for well-behaved clients.
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                await write_frame(writer, {"op": "ping", "id": 1})
                pong = await read_frame(reader)
                writer.close()
                await writer.wait_closed()
                return reply, closed, pong

            return await _with_server(server, body)

        reply, closed, pong = asyncio.run(run())
        assert reply["op"] == "error"
        assert reply["code"] == "bad-frame"
        assert "1024" in reply["error"]
        assert closed is None
        assert pong == {"op": "pong", "id": 1}

    def test_info_reports_fault_configuration(self):
        plan = FaultPlan(
            slow=(SlowWindow(replica=0, start_s=0.0, end_s=1.0, factor=2.0),)
        )

        async def run():
            server = LiveServer(
                _runtime(n_replicas=1, plan=plan,
                         resilience=ResilienceConfig(max_retries=1)),
                top_k=1, deadline_s=2.0, max_pending=64,
            )

            async def body(server):
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                await write_frame(writer, {"op": "info"})
                info = await read_frame(reader)
                writer.close()
                await writer.wait_closed()
                return info

            return await _with_server(server, body)

        info = asyncio.run(run())
        assert info["deadline_s"] == 2.0
        assert info["max_pending"] == 64
        assert info["fault_plan"] == plan.to_dict()
        assert info["resilience"]["max_retries"] == 1


class TestCliFaultFlags:
    def test_fault_flags_parse(self):
        args = build_parser().parse_args(
            ["serve-live", "--quick", "--replicas", "2", "--retries", "3",
             "--hedge-after-ms", "4.0", "--deadline-ms", "250",
             "--max-pending", "128", "--chaos-seed", "9"]
        )
        # The millisecond flags land in seconds, under the names of the
        # ResilienceConfig / LiveServer arguments they configure.
        assert args.max_retries == 3
        assert args.hedge_after_s == 4.0 * 1e-3
        assert args.deadline_s == 250.0 * 1e-3
        assert args.max_pending == 128
        assert args.chaos_seed == 9

    def test_fault_plan_and_chaos_seed_are_exclusive(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(FaultPlan(seed=3).to_json())
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["serve-live", "--quick", "--fault-plan", str(plan_path),
                 "--chaos-seed", "1"]
            )
        assert excinfo.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_fault_plan_file_round_trips(self, tmp_path):
        from repro.cli import _fault_options, _serving_config

        plan = FaultPlan(
            crashes=(ReplicaCrash(replica=1, at_s=0.5, recover_s=2.0),),
            seed=17,
        )
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(plan.to_json())
        args = build_parser().parse_args(
            ["serve-live", "--quick", "--replicas", "2",
             "--fault-plan", str(plan_path), "--retries", "1"]
        )
        loaded, resilience = _fault_options(args, _serving_config(args))
        assert loaded == plan
        assert resilience.max_retries == 1
