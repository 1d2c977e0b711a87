"""The declared service model: an engine's ``batch_seconds`` fixes each
batch's completion at dispatch, and its data attaches afterwards.

``ClusterPolicy`` decides a batch in full when it dispatches it — the
completion instant comes from ``batch_seconds(n)``, never from the answer —
so these tests pin the contract between the two planes: every engine's
``query_batch(X).seconds`` equals ``batch_seconds(len(X))`` bit for bit, a
replica that does not declare it is refused, one that reports anything else
is a typed error, and data that lands late (or never) only fills or retracts
what was already decided.
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
from repro.serving.batcher import CACHE_HIT, SERVED
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

    def test_undeclared_seconds_is_a_format_error(self):
        class Drifting(StubBatchEngine):
            def query_batch(self, queries, top_k):
                served = super().query_batch(queries, top_k)
                return type(served)(served.topk, served.seconds * 2.0,
                                    served.energy_j)

        runtime = ClusterRuntime([Drifting()], max_batch_size=2,
                                 max_wait_s=0.0)
        with pytest.raises(FormatError, match="declared batch_seconds"):
            runtime.run(np.ones((2, 8)), np.zeros(2), top_k=1)


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
