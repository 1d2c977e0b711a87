"""Unit tests for the cluster runtime: admission, accounting, validation."""

import numpy as np
import pytest

from serving_stubs import StubBatchEngine
from repro.core.collection import compile_collection
from repro.core.engine import TopKSpmvEngine
from repro.data.synthetic import synthetic_embeddings
from repro.errors import ConfigurationError
from repro.serving import ClusterRuntime
from repro.serving.batcher import CACHE_HIT, REJECTED, SERVED


def _stub_cluster(n_replicas=2, **kwargs):
    replicas = [
        StubBatchEngine(base_s=1e-3, per_query_s=2e-4, marker=r)
        for r in range(n_replicas)
    ]
    return ClusterRuntime(replicas, **kwargs)


class TestAdmissionControl:
    def test_burst_beyond_capacity_is_rejected_and_accounted(self):
        # 12 simultaneous arrivals, 1 replica, queue capacity 4: the first 4
        # are admitted (they form the first batch's backlog), the rest are
        # rejected until the queue drains — nothing is silently dropped.
        runtime = _stub_cluster(
            n_replicas=1, max_batch_size=4, max_wait_s=1.0, queue_capacity=4
        )
        results, report = runtime.run(
            np.ones((12, 8)), np.zeros(12), top_k=1
        )
        assert report.n_rejected == 8
        assert report.n_served == 4
        assert report.reject_rate == pytest.approx(8 / 12)
        assert report.rejected_per_replica == (8,)
        assert [r is None for r in results] == [False] * 4 + [True] * 8

    def test_unbounded_queue_rejects_nothing(self):
        runtime = _stub_cluster(n_replicas=1, max_batch_size=4, max_wait_s=0.0)
        _, report = runtime.run(np.ones((32, 8)), np.zeros(32), top_k=1)
        assert report.n_rejected == 0
        assert report.n_served == 32

    def test_queue_drain_reopens_admission(self):
        # Capacity 1: a request arriving after the first batch dispatched
        # must be admitted again.
        runtime = _stub_cluster(
            n_replicas=1, max_batch_size=1, max_wait_s=0.0, queue_capacity=1
        )
        arrivals = np.array([0.0, 1.0])  # far apart: queue empty again
        _, report = runtime.run(np.ones((2, 8)), arrivals, top_k=1)
        assert report.n_rejected == 0
        assert report.n_served == 2

    def test_rejected_trace_has_no_timings(self):
        runtime = _stub_cluster(
            n_replicas=1, max_batch_size=2, max_wait_s=1.0, queue_capacity=2
        )
        _, report = runtime.run(np.ones((6, 8)), np.zeros(6), top_k=1)
        rejected = [t for t in report.trace if t.status == REJECTED]
        assert rejected
        for t in rejected:
            assert t.dispatch_s is None
            assert t.completion_s is None
            assert t.latency_s is None
            assert t.replica == 0  # accounted against the routed replica


class TestReportAccounting:
    def test_per_replica_reports_sum_to_cluster(self):
        runtime = _stub_cluster(n_replicas=3, max_batch_size=4, max_wait_s=1e-3)
        n = 24
        arrivals = np.linspace(0.0, 0.01, n)
        _, report = runtime.run(np.ones((n, 8)), arrivals, top_k=1)
        assert sum(r.n_queries for r in report.replica_reports) == n
        assert sum(r.n_batches for r in report.replica_reports) == report.n_batches
        assert sum(r.energy_j for r in report.replica_reports) == pytest.approx(
            report.energy_j
        )
        assert report.routed_per_replica == tuple(
            r.n_queries for r in report.replica_reports
        )

    def test_round_robin_deals_evenly_when_idle(self):
        runtime = _stub_cluster(n_replicas=2, max_batch_size=1, max_wait_s=0.0)
        arrivals = np.arange(8) * 10.0  # fully idle between requests
        _, report = runtime.run(np.ones((8, 8)), arrivals, top_k=1)
        assert report.routed_per_replica == (4, 4)

    def test_to_dict_carries_cluster_section(self):
        runtime = _stub_cluster(n_replicas=2, max_batch_size=4, max_wait_s=1e-3)
        _, report = runtime.run(np.ones((8, 8)), np.zeros(8), top_k=1)
        payload = report.to_dict()
        assert payload["n_queries"] == 8  # base ServingReport keys intact
        cluster = payload["cluster"]
        assert cluster["n_replicas"] == 2
        assert cluster["n_offered"] == 8
        assert len(cluster["replicas"]) == 2
        assert cluster["replicas"][0]["routed"] + cluster["replicas"][1][
            "routed"
        ] == 8

    def test_render_mentions_every_tier(self):
        runtime = _stub_cluster(n_replicas=2, max_batch_size=4, max_wait_s=1e-3)
        _, report = runtime.run(np.ones((8, 8)), np.zeros(8), top_k=1)
        text = report.render()
        assert "cluster:" in text
        assert "replica 0:" in text
        assert "replica 1:" in text

    def test_trace_is_complete_and_ordered_by_request(self):
        runtime = _stub_cluster(n_replicas=2, max_batch_size=4, max_wait_s=1e-3)
        _, report = runtime.run(np.ones((10, 8)), np.zeros(10), top_k=1)
        assert [t.request_id for t in report.trace] == list(range(10))
        assert {t.status for t in report.trace} <= {SERVED, CACHE_HIT, REJECTED}


class TestCachedCluster:
    @pytest.fixture(scope="class")
    def collection(self):
        matrix = synthetic_embeddings(
            n_rows=1500, n_cols=256, avg_nnz=10, distribution="uniform", seed=71
        )
        return compile_collection(matrix)

    def test_duplicate_queries_hit_after_completion(self, collection):
        engine = TopKSpmvEngine.from_collection(collection)
        runtime = ClusterRuntime(
            [engine], cache_size=32, max_batch_size=4, max_wait_s=0.0
        )
        rng = np.random.default_rng(73)
        q = rng.random((1, 256))
        q /= np.linalg.norm(q)
        queries = np.repeat(q, 6, axis=0)
        # First 3 copies arrive together (all miss: nothing completed yet),
        # the rest long after the first batch completed (all hit).
        arrivals = np.array([0.0, 0.0, 0.0, 10.0, 10.0, 10.0])
        results, report = runtime.run(queries, arrivals, top_k=5)
        statuses = [t.status for t in report.trace]
        assert statuses[:3] == [SERVED] * 3
        assert statuses[3:] == [CACHE_HIT] * 3
        direct = engine.query(queries[0], top_k=5).topk
        for got in results:
            assert got.indices.tolist() == direct.indices.tolist()
            assert got.values.tobytes() == direct.values.tobytes()

    def test_in_flight_duplicates_do_not_time_travel(self, collection):
        # A duplicate arriving before the first copy's batch *completes*
        # must miss: results only enter the cache at completion time.
        engine = TopKSpmvEngine.from_collection(collection)
        runtime = ClusterRuntime(
            [engine], cache_size=32, max_batch_size=1, max_wait_s=0.0
        )
        rng = np.random.default_rng(75)
        q = rng.random((1, 256))
        q /= np.linalg.norm(q)
        queries = np.repeat(q, 2, axis=0)
        eps = engine.timing.makespan_s / 2  # inside the first batch's service
        _, report = runtime.run(queries, np.array([0.0, eps]), top_k=5)
        assert [t.status for t in report.trace] == [SERVED, SERVED]

    def test_shared_cache_never_serves_a_stale_generation(self, collection):
        # Regression for mutable collections: a caller-owned cache reused
        # across runs must key on (digest, generation) — a hit minted
        # before an ingest must never be returned after it.
        from repro.core.segments import SegmentedCollection
        from repro.serving.cache import QueryCache

        segmented = SegmentedCollection.from_collection(collection)
        engine = TopKSpmvEngine(segmented)
        cache = QueryCache(64)
        runtime = ClusterRuntime([engine], cache=cache)
        rng = np.random.default_rng(81)
        q = rng.random((1, 256))
        q /= np.linalg.norm(q)
        queries = np.repeat(q, 4, axis=0)
        arrivals = np.array([0.0, 10.0, 20.0, 30.0])
        _, warm = runtime.run(queries, arrivals, top_k=5)
        assert warm.n_cache_hits == 3  # the shared cache is warm now

        # Ingest a row engineered to beat everything on this query.
        segmented.ingest(10.0 * q)
        results, report = runtime.run(queries, arrivals, top_k=5)
        fresh = TopKSpmvEngine(segmented).query(queries[0], top_k=5).topk
        assert fresh.indices[0] == segmented.n_live - 1  # new row wins
        for got in results:
            assert got.indices.tolist() == fresh.indices.tolist()
            assert got.values.tobytes() == fresh.values.tobytes()
        # Old-generation entries were reclaimed and accounted.
        assert cache.invalidations > 0
        assert report.cache_stats["invalidations"] == cache.invalidations

    def test_shared_cache_and_cache_size_are_exclusive(self, collection):
        from repro.serving.cache import QueryCache

        engine = TopKSpmvEngine.from_collection(collection)
        with pytest.raises(ConfigurationError, match="not both"):
            ClusterRuntime([engine], cache_size=8, cache=QueryCache(8))

    def test_cache_requires_a_shared_collection(self, collection):
        with pytest.raises(ConfigurationError, match="digest"):
            ClusterRuntime([StubBatchEngine()], cache_size=8)
        other = compile_collection(
            synthetic_embeddings(
                n_rows=1000, n_cols=256, avg_nnz=10,
                distribution="uniform", seed=79,
            )
        )
        with pytest.raises(ConfigurationError, match="shared artifact"):
            ClusterRuntime(
                [
                    TopKSpmvEngine.from_collection(collection),
                    TopKSpmvEngine.from_collection(other),
                ],
                cache_size=8,
            )


class TestValidation:
    def test_empty_replica_list_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one replica"):
            ClusterRuntime([])

    def test_replica_without_query_batch_rejected(self):
        with pytest.raises(ConfigurationError, match="query_batch"):
            ClusterRuntime([object()])

    def test_mismatched_widths_rejected(self):
        with pytest.raises(ConfigurationError, match="embedding dimension"):
            ClusterRuntime([StubBatchEngine(n_cols=8), StubBatchEngine(n_cols=16)])

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigurationError):
            _stub_cluster(max_batch_size=0)
        with pytest.raises(ConfigurationError):
            _stub_cluster(max_wait_s=-1.0)
        with pytest.raises(ConfigurationError):
            _stub_cluster(queue_capacity=0)
        with pytest.raises(ConfigurationError):
            _stub_cluster(router="no-such-policy")

    def test_run_validates_the_stream(self):
        runtime = _stub_cluster()
        with pytest.raises(ConfigurationError, match="arrival"):
            runtime.run(np.ones((4, 8)), np.zeros(3), top_k=1)
        with pytest.raises(ConfigurationError, match="empty"):
            runtime.run(np.empty((0, 8)), np.empty(0), top_k=1)
        with pytest.raises(ConfigurationError, match="shape"):
            runtime.run(np.ones((4, 5)), np.zeros(4), top_k=1)
