"""Integration tests: the daemon's decision plane never waits for data.

The policy fixes a batch's completion when it dispatches it, so an arrival
is decided at once however long any engine takes, and a reply waits only
for its own batch's data.  Each replica runs its batches on its own
single-worker FIFO.  On the measured ``host`` clock that completion is
when the replica really frees, so under fan-in load requests queue in the
policy and leave together.
"""

import asyncio
import threading
import time

import pytest

from serving_stubs import StubBatchEngine
from repro.errors import FormatError
from repro.serving import ClusterRuntime, LiveServer
from repro.serving.protocol import read_frame, write_frame


class _GatedEngine(StubBatchEngine):
    """Blocks every batch until ``gate`` is set; ``entered`` marks the
    first call."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.gate = threading.Event()
        self.entered = threading.Event()

    def query_batch(self, queries, top_k):
        self.entered.set()
        self.gate.wait(timeout=60.0)
        return super().query_batch(queries, top_k)


async def _query(reader, writer, rid):
    await write_frame(
        writer, {"op": "query", "id": rid, "query": [float(rid + 1)] * 8}
    )
    return await read_frame(reader)


class TestArrivalNeverWaitsForAnEngine:
    def test_other_replica_answers_while_one_engine_blocks(self):
        gated = _GatedEngine(n_cols=8, marker=0)
        runtime = ClusterRuntime(
            [gated, StubBatchEngine(n_cols=8, marker=1)],
            router="round-robin", max_batch_size=1, max_wait_s=0.0,
        )

        async def run():
            server = LiveServer(runtime, top_k=1)
            await server.start()
            serve_task = asyncio.create_task(server.serve_until_stopped())
            loop = asyncio.get_running_loop()
            a_reader, a_writer = await asyncio.open_connection(
                server.host, server.port
            )
            b_reader, b_writer = await asyncio.open_connection(
                server.host, server.port
            )
            try:
                first = asyncio.create_task(_query(a_reader, a_writer, 0))
                # Replica 0's engine has the first batch and is stuck in it.
                assert await loop.run_in_executor(
                    None, gated.entered.wait, 30.0
                )
                second = await asyncio.wait_for(
                    _query(b_reader, b_writer, 1), timeout=10.0
                )
                answered_while_blocked = not gated.gate.is_set()
                await write_frame(b_writer, {"op": "stats"})
                stats = await read_frame(b_reader)
            finally:
                gated.gate.set()
            first = await asyncio.wait_for(first, timeout=30.0)
            await write_frame(b_writer, {"op": "verify"})
            verdict = await read_frame(b_reader)
            for writer in (a_writer, b_writer):
                writer.close()
                await writer.wait_closed()
            server.request_stop()
            await serve_task
            return first, second, answered_while_blocked, stats, verdict

        first, second, answered_while_blocked, stats, verdict = asyncio.run(
            run()
        )
        assert second["op"] == "result" and second["status"] == "served"
        assert second["indices"] == [1]  # replica 1's marker
        assert answered_while_blocked
        # In flight = dispatched, data not yet attached.
        assert stats["n_inflight"] == 1
        assert first["op"] == "result" and first["indices"] == [0]
        assert verdict["equivalent"], verdict.get("detail")


class TestUndeclaredServiceTime:
    @pytest.mark.parametrize("warmup", [True, False],
                             ids=["host", "declared"])
    def test_seconds_other_than_declared_poison_the_run(self, warmup):
        class Drifting(StubBatchEngine):
            def query_batch(self, queries, top_k):
                served = super().query_batch(queries, top_k)
                return type(served)(served.topk, served.seconds * 2.0,
                                    served.energy_j)

        async def run():
            server = LiveServer(
                ClusterRuntime([Drifting(n_cols=8)], max_batch_size=1,
                               max_wait_s=0.0),
                top_k=1, warmup=warmup,
            )
            await server.start()
            serve_task = asyncio.create_task(server.serve_until_stopped())
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            reply = await _query(reader, writer, 0)
            writer.close()
            await writer.wait_closed()
            server.request_stop()
            with pytest.raises(FormatError, match="declared batch_seconds"):
                await serve_task
            return reply, server.wall_stats()

        reply, wall = asyncio.run(run())
        assert reply["op"] == "error"
        assert reply["code"] == "engine-failure"
        assert wall.error_codes == {"engine-failure": 1}


class _SleepingEngine(StubBatchEngine):
    """Really sleeps ``sleep_s`` plus ``per_query_sleep_s`` per query, and
    declares a time ten times shorter (the modelled board's)."""

    def __init__(self, sleep_s=5e-3, per_query_sleep_s=1e-4, **kwargs):
        super().__init__(base_s=sleep_s / 10, per_query_s=per_query_sleep_s / 10,
                         **kwargs)
        self.sleep_s = sleep_s
        self.per_query_sleep_s = per_query_sleep_s

    def query_batch(self, queries, top_k):
        time.sleep(self.sleep_s + self.per_query_sleep_s * len(queries))
        return super().query_batch(queries, top_k)


class TestFanInFormsBatches:
    N_CONNECTIONS = 16
    PER_CONNECTION = 8

    def _serve(self, warmup):
        async def run():
            server = LiveServer(
                ClusterRuntime([_SleepingEngine(n_cols=8)], max_batch_size=16),
                top_k=1, warmup=warmup,
            )
            await server.start()
            serve_task = asyncio.create_task(server.serve_until_stopped())

            async def closed_loop(c):
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                replies = [
                    await _query(reader, writer, c * 100 + i)
                    for i in range(self.PER_CONNECTION)
                ]
                writer.close()
                await writer.wait_closed()
                return replies

            replies = await asyncio.gather(
                *(closed_loop(c) for c in range(self.N_CONNECTIONS))
            )
            server.request_stop()
            await serve_task
            _results, report = server.decision_report()
            return [r for conn in replies for r in conn], report, server

        return asyncio.run(run())

    def test_batches_form_while_the_replica_is_busy(self):
        replies, report, server = self._serve(warmup=True)
        n = self.N_CONNECTIONS * self.PER_CONNECTION
        assert [r["status"] for r in replies] == ["served"] * n
        info = server.info()
        assert info["max_wait_s"] == 0.0 and info["clock"] == "host"
        assert report.mean_batch_size >= 4
        # The measured tables drive the daemon and its replay; the runtime
        # it was given keeps its declared clock.
        assert server.runtime.service_tables is None
        assert server.service_tables is not None
        assert server._replay_runtime().service_tables == server.service_tables
        # The modelled clock, ten times shorter than the sleep, frees the
        # replica long before it is free: batches leave as they arrive and
        # queue in the worker's FIFO, outside the policy.
        _, declared, _ = self._serve(warmup=False)
        assert declared.n_offered == n
        assert declared.n_batches > report.n_batches
        assert declared.mean_batch_size < report.mean_batch_size
