"""Property suite: the cluster runtime's determinism and exactness contract.

The headline guarantees of :class:`repro.serving.cluster.ClusterRuntime`,
asserted over arbitrary arrival patterns and configurations:

* **Deterministic replay** — the same inputs and seeds yield trace-identical
  schedules (every dispatch, completion, reject and cache decision), run
  after run.
* **Conservation** — every offered request is served exactly once (by an
  engine batch or the cache) or counted rejected; nothing is dropped or
  double-served.
* **Exactness** — cache hits are bit-identical to engine results, and a
  cluster of aligned-sharded replicas returns results bit-identical to the
  unsharded single-board engine.

Schedule-level properties run on O(1) stub engines (hypothesis); the
bit-exactness properties run on real engines over a shared compiled
collection.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from serving_stubs import StubBatchEngine, service_tables
from repro.core.collection import compile_collection
from repro.core.engine import TopKSpmvEngine
from repro.data.synthetic import synthetic_embeddings
from repro.hw.design import PAPER_DESIGNS
from repro.serving import (
    ClusterRuntime,
    ShardedEngine,
    poisson_arrivals,
)
from repro.serving.batcher import CACHE_HIT, REJECTED, SERVED
from repro.utils.rng import sample_unit_queries


arrival_lists = st.lists(
    st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
    min_size=1,
    max_size=40,
)

cluster_params = st.tuples(
    st.integers(min_value=1, max_value=4),                     # replicas
    st.sampled_from(["round-robin", "least-outstanding", "power-of-two"]),
    st.integers(min_value=1, max_value=8),                     # max_batch_size
    st.sampled_from([0.0, 1e-4, 2e-3]),                        # max_wait_s
    st.sampled_from([None, 1, 3]),                             # queue_capacity
    st.integers(min_value=0, max_value=3),                     # router seed
    service_tables,                                            # clock
)


def _make_runtime(params):
    n_replicas, router, max_batch, max_wait, capacity, seed, table = params
    replicas = [
        StubBatchEngine(base_s=1e-3, per_query_s=2e-4, marker=r)
        for r in range(n_replicas)
    ]
    return ClusterRuntime(
        replicas,
        router=router,
        max_batch_size=max_batch,
        max_wait_s=max_wait,
        queue_capacity=capacity,
        router_seed=seed,
        service_tables=None if table is None else (table,) * n_replicas,
    )


@given(arrivals=arrival_lists, params=cluster_params)
def test_same_seed_replays_trace_identically(arrivals, params):
    runtime = _make_runtime(params)
    queries = np.ones((len(arrivals), 8))
    arrivals = np.array(arrivals)
    _, first = runtime.run(queries, arrivals, top_k=1)
    _, second = runtime.run(queries, arrivals, top_k=1)
    assert first.trace == second.trace          # float-exact, field by field
    assert first.to_dict() == second.to_dict()
    assert [
        (b.indices, b.dispatch_s, b.service_s) for b in first.batches
    ] == [(b.indices, b.dispatch_s, b.service_s) for b in second.batches]


@given(arrivals=arrival_lists, params=cluster_params)
def test_every_request_served_exactly_once_or_rejected(arrivals, params):
    runtime = _make_runtime(params)
    n = len(arrivals)
    results, report = runtime.run(np.ones((n, 8)), np.array(arrivals), top_k=1)
    assert report.n_offered == n
    statuses = {t.request_id: t.status for t in report.trace}
    assert sorted(statuses) == list(range(n))   # one trace entry per request
    dispatched = [i for b in report.batches for i in b.indices]
    assert len(dispatched) == len(set(dispatched))  # never double-served
    assert sorted(dispatched) == sorted(
        rid for rid, s in statuses.items() if s == SERVED
    )
    for rid in range(n):
        if statuses[rid] == REJECTED:
            assert results[rid] is None
        else:
            assert results[rid] is not None
    assert report.n_served + report.n_cache_hits + report.n_rejected == n
    assert report.n_queries == n - report.n_rejected
    # Reject accounting is consistent per replica and cluster-wide.
    assert sum(report.routed_per_replica) == sum(
        1 for t in report.trace if t.status != CACHE_HIT
    )
    assert report.n_rejected == sum(
        1 for t in report.trace if t.status == REJECTED
    )


@given(arrivals=arrival_lists, params=cluster_params)
def test_replica_work_partitions_the_admitted_requests(arrivals, params):
    runtime = _make_runtime(params)
    n = len(arrivals)
    results, report = runtime.run(np.ones((n, 8)), np.array(arrivals), top_k=1)
    served_by = {t.request_id: t.replica for t in report.trace
                 if t.status == SERVED}
    # The stub's marker says which engine really computed each result.
    for rid, replica in served_by.items():
        assert int(results[rid].indices[0]) == replica
    per_replica = [r.n_queries for r in report.replica_reports]
    assert sum(per_replica) == len(served_by)
    assert sum(r.n_batches for r in report.replica_reports) == report.n_batches


# --------------------------------------------------------------------- #
# Bit-exactness on real engines over one shared compiled collection
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def collection():
    matrix = synthetic_embeddings(
        n_rows=2000, n_cols=256, avg_nnz=12, distribution="uniform", seed=61
    )
    return compile_collection(matrix, PAPER_DESIGNS["20b"])


@pytest.fixture(scope="module")
def flat_engine(collection):
    return TopKSpmvEngine.from_collection(collection)


@pytest.fixture(scope="module")
def stream(collection):
    rng = np.random.default_rng(63)
    queries = sample_unit_queries(rng, 48, collection.n_cols)
    queries[32:] = queries[:16]  # duplicates guarantee cache traffic
    arrivals = poisson_arrivals(48, 25_000.0, rng)
    return queries, arrivals


class TestClusterExactness:
    def test_cache_hits_bit_identical_to_engine_results(
        self, collection, flat_engine, stream
    ):
        queries, arrivals = stream
        runtime = ClusterRuntime(
            [TopKSpmvEngine.from_collection(collection) for _ in range(2)],
            router="least-outstanding",
            cache_size=256,
            max_batch_size=8,
            max_wait_s=1e-3,
        )
        results, report = runtime.run(queries, arrivals, top_k=10)
        hits = [t for t in report.trace if t.status == CACHE_HIT]
        assert hits, "duplicate stream must produce cache hits"
        for t in hits:
            direct = flat_engine.query(queries[t.request_id], top_k=10).topk
            got = results[t.request_id]
            assert got.indices.tolist() == direct.indices.tolist()
            assert got.values.tobytes() == direct.values.tobytes()
        stats = report.cache_stats
        assert stats["hits"] == len(hits)
        assert report.n_cache_hits == len(hits)

    def test_replicated_aligned_shards_match_unsharded_engine(
        self, collection, flat_engine, stream
    ):
        """Sharded replicas + routing + batching never change a single bit."""
        queries, arrivals = stream
        runtime = ClusterRuntime(
            [ShardedEngine(collection, n_shards=4) for _ in range(3)],
            router="power-of-two",
            router_seed=5,
            max_batch_size=8,
            max_wait_s=1e-3,
        )
        results, report = runtime.run(queries, arrivals, top_k=10)
        assert report.n_rejected == 0
        for rid, got in enumerate(results):
            want = flat_engine.query(queries[rid], top_k=10).topk
            assert got.indices.tolist() == want.indices.tolist()
            assert got.values.tobytes() == want.values.tobytes()

    def test_cached_and_uncached_runs_serve_identical_results(
        self, collection, stream
    ):
        queries, arrivals = stream
        base = dict(max_batch_size=8, max_wait_s=1e-3)
        replicas = [TopKSpmvEngine.from_collection(collection) for _ in range(2)]
        cold, _ = ClusterRuntime(replicas, **base).run(
            queries, arrivals, top_k=10
        )
        warm, warm_report = ClusterRuntime(
            replicas, cache_size=64, **base
        ).run(queries, arrivals, top_k=10)
        assert warm_report.n_cache_hits > 0
        for a, b in zip(cold, warm):
            assert a.indices.tolist() == b.indices.tolist()
            assert a.values.tobytes() == b.values.tobytes()
