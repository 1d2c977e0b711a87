"""The declared service model: an engine's ``batch_seconds`` fixes each
batch's completion at dispatch, and its data attaches afterwards.

``ClusterPolicy`` decides a batch in full when it dispatches it — the
completion instant comes from ``batch_seconds(n)``, never from the answer —
so these tests pin the contract between the two planes: every engine's
``query_batch(X).seconds`` equals ``batch_seconds(len(X))`` bit for bit, a
replica that does not declare it is refused, one that reports anything else
is a typed error — whether the policy decided on the declared time or on a
measured :class:`ServiceTable` — and data that lands late (or never) only
fills or retracts what was already decided.
"""

import numpy as np
import pytest

from serving_stubs import StubBatchEngine
from repro.core.collection import compile_collection
from repro.core.engine import TopKSpmvEngine
from repro.core.segments import SegmentedCollection
from repro.data.synthetic import synthetic_embeddings
from repro.errors import ConfigurationError, FormatError
from repro.serving import ClusterRuntime
from repro.serving.batcher import CACHE_HIT, SERVED, ServiceTable
from repro.serving.live import measure_service_table
from repro.serving.sharded import ShardedEngine


@pytest.fixture(scope="module")
def artifact():
    return compile_collection(synthetic_embeddings(
        n_rows=300, n_cols=32, avg_nnz=6, distribution="uniform", seed=3
    ))


class TestDeclaredSeconds:
    @pytest.mark.parametrize(
        "build",
        [
            lambda art: TopKSpmvEngine(art),
            lambda art: TopKSpmvEngine(
                SegmentedCollection.from_collection(art)
            ),
            lambda art: ShardedEngine(art, n_shards=2),
            lambda art: ShardedEngine(art, n_shards=2, cores_per_shard=2),
        ],
        ids=["frozen", "segmented", "aligned-fleet", "full-board-fleet"],
    )
    @pytest.mark.parametrize("n_queries", [1, 5])
    def test_query_batch_seconds_equal_the_declaration(
        self, artifact, build, n_queries
    ):
        engine = build(artifact)
        X = np.random.default_rng(n_queries).random((n_queries, 32))
        served = engine.query_batch(X, 4)
        assert served.seconds == engine.batch_seconds(n_queries)
        assert np.float64(served.seconds).tobytes() == np.float64(
            engine.batch_seconds(n_queries)
        ).tobytes()

    def test_replica_without_batch_seconds_is_refused(self):
        class Undeclared:
            matrix = type("M", (), {"n_cols": 8})()

            def query_batch(self, queries, top_k):
                raise AssertionError("never called")

        with pytest.raises(ConfigurationError, match=r"batch_seconds"):
            ClusterRuntime([StubBatchEngine(), Undeclared()])

    @pytest.mark.parametrize("clock", ["declared", "host"])
    def test_undeclared_seconds_is_a_format_error(self, clock):
        class Drifting(StubBatchEngine):
            def query_batch(self, queries, top_k):
                served = super().query_batch(queries, top_k)
                return type(served)(served.topk, served.seconds * 2.0,
                                    served.energy_j)

        engine = Drifting()
        # The measured clock agrees with what the drifting engine reports,
        # so only the check against its own declaration can catch it.
        tables = None if clock == "declared" else (ServiceTable(
            (1, 2), tuple(2.0 * engine.batch_seconds(n) for n in (1, 2))
        ),)
        runtime = ClusterRuntime([engine], max_batch_size=2,
                                 max_wait_s=0.0, service_tables=tables)
        with pytest.raises(FormatError, match="declared batch_seconds"):
            runtime.run(np.ones((2, 8)), np.zeros(2), top_k=1)


class TestServiceTable:
    def test_interpolates_between_points(self):
        table = ServiceTable((1, 4, 16), (1e-3, 4e-3, 4e-3))
        assert table.batch_seconds(1) == 1e-3
        assert table.batch_seconds(2) == pytest.approx(2e-3)
        assert table.batch_seconds(4) == 4e-3
        assert table.batch_seconds(9) == 4e-3
        assert table.batch_seconds(16) == 4e-3
        assert table.to_ms() == {"sizes": [1, 4, 16], "ms": [1.0, 4.0, 4.0]}

    @pytest.mark.parametrize("n", [0, 17])
    def test_no_time_outside_the_measured_sizes(self, n):
        table = ServiceTable((1, 4, 16), (1e-3, 4e-3, 4e-3))
        with pytest.raises(ConfigurationError, match="outside"):
            table.batch_seconds(n)

    @pytest.mark.parametrize(
        "sizes, seconds",
        [((), ()), ((1, 2), (1e-3,)), ((0, 2), (1e-3, 2e-3)),
         ((2,), (3e-3,)), ((1, 1), (1e-3, 2e-3)), ((1, 2), (2e-3, 1e-3)),
         ((1,), (-1e-3,)), ((1,), (float("nan"),))],
    )
    def test_malformed_tables_are_refused(self, sizes, seconds):
        with pytest.raises(ConfigurationError, match="service table"):
            ServiceTable(sizes, seconds)

    def test_the_policy_decides_on_the_table(self):
        engine = StubBatchEngine(base_s=1e-3, per_query_s=0.0)
        table = ServiceTable((1, 2), (5e-3, 6e-3))
        runtime = ClusterRuntime([engine], max_batch_size=2, max_wait_s=0.0,
                                 service_tables=[table])
        # Request 0 leaves alone at 0; 1 and 2 queue while the measured
        # 5 ms runs and leave together when it ends.
        _, report = runtime.run(np.ones((3, 8)), np.array([0.0, 1e-3, 2e-3]),
                                top_k=1)
        assert [(b.indices, b.dispatch_s, b.service_s)
                for b in report.batches] == [((0,), 0.0, 5e-3),
                                             ((1, 2), 5e-3, 6e-3)]
        assert runtime.settings()["service_tables"] == (table,)

    def test_one_table_per_replica(self):
        with pytest.raises(ConfigurationError, match="one ServiceTable"):
            ClusterRuntime([StubBatchEngine()] * 2, max_batch_size=1,
                           service_tables=[ServiceTable((1,), (1e-3,))])

    def test_a_table_must_reach_max_batch_size(self):
        short = [ServiceTable((1, 2), (1e-3, 2e-3))]
        with pytest.raises(ConfigurationError, match="max_batch_size 4"):
            ClusterRuntime([StubBatchEngine()], max_batch_size=4,
                           service_tables=short)
        runtime = ClusterRuntime([StubBatchEngine()], max_batch_size=4)
        with pytest.raises(ConfigurationError, match="max_batch_size 4"):
            runtime.build_policy(1, service_tables=short)

    def test_a_policy_override_leaves_the_runtime_as_it_was(self):
        table = ServiceTable((1, 2), (5e-3, 6e-3))
        runtime = ClusterRuntime([StubBatchEngine()], max_batch_size=2)
        policy = runtime.build_policy(1, service_tables=[table])
        assert policy.service_tables == (table,)
        assert runtime.service_tables is None
        assert runtime.settings()["service_tables"] is None
        assert runtime.build_policy(1).service_tables is None


class TestMeasuredTable:
    class Timed(StubBatchEngine):
        """Reports the call sizes it was measured at."""

        def __init__(self):
            super().__init__()
            self.calls = []

        def query_batch(self, queries, top_k):
            self.calls.append(len(queries))
            return super().query_batch(queries, top_k)

    @pytest.mark.parametrize("max_batch_size, sizes", [
        (1, (1,)), (2, (1, 2)), (16, (1, 4, 16)), (20, (1, 4, 16, 20)),
    ])
    def test_sizes_and_calls(self, max_batch_size, sizes):
        engine = self.Timed()
        table = measure_service_table(engine, 8, 1, max_batch_size)
        assert table.sizes == sizes
        # The first call warms the replica; every point is a best of two.
        assert engine.calls == [1, *(q for q in sizes for _ in range(2))]
        assert list(table.seconds) == sorted(table.seconds)

    def test_a_faster_larger_batch_never_predicts_a_shorter_time(self):
        import time

        class Inverted(StubBatchEngine):
            def query_batch(self, queries, top_k):
                time.sleep(4e-3 if len(queries) == 1 else 0.0)
                return super().query_batch(queries, top_k)

        table = measure_service_table(Inverted(), 8, 1, 4)
        assert table.seconds[1] == table.seconds[0] >= 4e-3


def _driven_policy():
    """A policy driven by hand, with a data plane that only records."""
    runtime = ClusterRuntime(
        [StubBatchEngine(digest="d")], cache_size=4,
        max_batch_size=1, max_wait_s=0.0,
    )
    launched = []
    return runtime, runtime.build_policy(top_k=1), launched.append, launched


class TestDataCatchesUp:
    def test_cache_hit_on_a_pending_slot_is_answered_at_attach(self):
        runtime, policy, launch, launched = _driven_policy()
        query = np.ones(8)
        policy.advance(0.0, launch)
        policy.offer(0, 0.0, query)
        policy.advance(1.0, launch)
        (batch,) = launched
        # The duplicate lands after the decided completion, before the data.
        policy.offer(1, 1.0, query)
        assert policy.traces[0].status == SERVED
        assert policy.traces[1].status == CACHE_HIT
        assert policy.results == {}
        served = runtime.replicas[0].query_batch(batch.queries, 1)
        policy.attach(batch, served)
        assert policy.results[0] is policy.results[1] is served.topk[0]

    def test_real_failure_retracts_members_and_their_cache_hits(self):
        runtime, policy, launch, launched = _driven_policy()
        query = np.ones(8)
        policy.advance(0.0, launch)
        policy.offer(0, 0.0, query)
        policy.advance(1.0, launch)
        policy.offer(1, 1.0, query)  # a hit on the pending slot
        policy.fail_batch(launched.pop(), at_s=1.0)
        assert policy.traces == {}
        assert policy.all_batches == []
        assert policy.n_cache_hits == 0
        assert policy.fault_stats()["health"] == ["suspected"]
        # Both are retried with backoff; the failed slot serves no hit.
        policy.advance(float("inf"), launch)
        for batch in launched:
            served = runtime.replicas[0].query_batch(batch.queries, 1)
            policy.attach(batch, served)
        assert [policy.traces[rid].status for rid in (0, 1)] == [SERVED] * 2
        assert sorted(policy.results) == [0, 1]
        stats = policy.fault_stats()
        assert stats["n_rescued"] == 2
        assert stats["n_batch_failures"] == 1
