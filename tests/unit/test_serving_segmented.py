"""Serving-layer tests for mutable segmented collections.

The sharded fleet and cluster runtime must serve a
:class:`~repro.core.segments.SegmentedCollection` with the same guarantees
they give frozen artifacts: sharded == unsharded bit for bit, timing views
that track the collection's generation, and cache/routing keyed on
``(digest, generation)``.
"""

import numpy as np
import pytest

from repro.core.engine import TopKSpmvEngine
from repro.core.segments import SegmentedCollection
from repro.data.synthetic import synthetic_embeddings
from repro.errors import ConfigurationError
from repro.serving.batcher import poisson_arrivals
from repro.serving.cluster import ClusterRuntime
from repro.serving.sharded import ShardedEngine
from repro.utils.rng import derive_rng, sample_unit_queries


@pytest.fixture
def collection():
    matrix = synthetic_embeddings(
        n_rows=1200, n_cols=128, avg_nnz=10, distribution="uniform", seed=23
    )
    return SegmentedCollection.from_matrix(matrix)


@pytest.fixture
def queries():
    return sample_unit_queries(derive_rng(3), 6, 128)


def _mutate(collection, seed=5):
    rng = np.random.default_rng(seed)
    keys = collection.ingest(np.abs(rng.standard_normal((30, 128))))
    collection.delete(keys[:4])
    collection.update(int(keys[5]), np.abs(rng.standard_normal(128)))
    collection.seal()
    collection.ingest(np.abs(rng.standard_normal((3, 128))))  # live delta


class TestShardedSegmented:
    def test_sharded_matches_unsharded_after_mutations(self, collection, queries):
        _mutate(collection)
        engine = TopKSpmvEngine(collection)
        fleet = ShardedEngine(collection, n_shards=4)
        want = engine.query_batch(queries, top_k=8)
        got = fleet.query_batch(queries, top_k=8)
        for a, b in zip(want.topk, got.topk):
            assert a.indices.tolist() == b.indices.tolist()
            assert a.values.tobytes() == b.values.tobytes()
        single = fleet.query(queries[0], top_k=8)
        assert single.topk.indices.tolist() == want.topk[0].indices.tolist()
        assert single.latency_s > 0
        assert single.energy_j > 0

    def test_shard_views_track_the_generation(self, collection):
        fleet = ShardedEngine(collection, n_shards=4)
        views = fleet.shards
        assert len(views) == 4
        assert fleet.shards is views  # cached within a generation
        fleet.ingest(np.abs(np.random.default_rng(1).standard_normal((200, 128))))
        fleet.seal()
        fresh = fleet.shards
        assert fresh is not views
        assert sum(v.nnz for v in fresh) > sum(v.nnz for v in views)
        assert fleet.makespan_s >= max(v.timing.makespan_s for v in fresh) - 1e-18
        assert fleet.power_w > 0

    def test_fleet_mutation_api_and_describe(self, collection):
        fleet = ShardedEngine(collection, n_shards=2)
        keys = fleet.ingest(np.abs(np.random.default_rng(2).standard_normal((5, 128))))
        fleet.update(int(keys[0]), np.abs(np.random.default_rng(3).standard_normal(128)))
        assert fleet.delete(keys[1:2]) == 1
        assert fleet.seal() is True  # live delta rows freeze into a segment
        assert fleet.seal() is False  # nothing left to seal
        fleet.compact()
        assert collection.n_segments == 1
        assert "shards" in fleet.describe()
        assert fleet.segmented

    def test_segmented_rejects_full_board_mode_and_wrong_design(self, collection):
        with pytest.raises(ConfigurationError, match="cores_per_shard"):
            ShardedEngine(collection, n_shards=2, cores_per_shard=8)
        from repro.hw.design import PAPER_DESIGNS

        with pytest.raises(ConfigurationError, match="recompile"):
            ShardedEngine(collection, n_shards=2, design=PAPER_DESIGNS["25b"])

    def test_frozen_fleet_rejects_mutations(self):
        matrix = synthetic_embeddings(
            n_rows=400, n_cols=128, avg_nnz=8, distribution="uniform", seed=29
        )
        fleet = ShardedEngine(matrix, n_shards=2)
        with pytest.raises(ConfigurationError, match="frozen"):
            fleet.ingest(np.ones((1, 128)))

    def test_top_k_uncapped_for_segmented(self, collection, queries):
        fleet = ShardedEngine(collection, n_shards=2)
        deep = fleet.query_batch(queries, top_k=600)
        assert len(deep.topk[0]) == 600


class TestBatcherAndClusterSegmented:
    def test_micro_batcher_serves_a_segmented_engine(self, collection, queries):
        _mutate(collection)
        engine = TopKSpmvEngine(collection)
        runtime = ClusterRuntime([engine], max_batch_size=4, max_wait_s=1e-3)
        arrivals = poisson_arrivals(len(queries), 5000.0, derive_rng(9))
        results, report = runtime.run(queries, arrivals, top_k=5)
        direct = engine.query_batch(queries, top_k=5)
        for got, want in zip(results, direct.topk):
            assert got.indices.tolist() == want.indices.tolist()
            assert got.values.tobytes() == want.values.tobytes()
        assert report.n_queries == len(queries)

    def test_cluster_routes_and_caches_on_generation(self, collection, queries):
        from repro.serving.cache import QueryCache

        replicas = [TopKSpmvEngine(collection) for _ in range(2)]
        cache = QueryCache(32)
        runtime = ClusterRuntime(replicas, cache=cache, router="least-outstanding")
        stream = np.vstack([queries, queries])
        arrivals = np.linspace(0.0, 1.0, len(stream))
        _, warm = runtime.run(stream, arrivals, top_k=5)
        assert warm.n_cache_hits == len(queries)
        generation = collection.generation
        replicas[0].ingest(np.abs(np.random.default_rng(11).standard_normal((2, 128))))
        assert collection.generation > generation
        _, after = runtime.run(stream, arrivals, top_k=5)
        # Warm entries belonged to the old generation: all invalidated,
        # first copies re-served, duplicates hit again within the run.
        assert cache.invalidations >= len(queries)
        assert after.n_cache_hits == len(queries)

    def test_shared_cache_reclaims_old_digest_after_compaction(
        self, collection, queries
    ):
        # compact() moves the *digest*, not just the generation: entries
        # cached under the previous digest must be reclaimed, not pinned
        # until LRU pressure happens to push them out.
        from repro.serving.cache import QueryCache

        engine = TopKSpmvEngine(collection)
        cache = QueryCache(64)
        runtime = ClusterRuntime([engine], cache=cache)
        arrivals = np.linspace(0.0, 1.0, len(queries))
        runtime.run(queries, arrivals, top_k=5)
        assert len(cache) == len(queries)
        engine.ingest(np.abs(np.random.default_rng(13).standard_normal((2, 128))))
        engine.compact()  # digest changes
        runtime.run(queries, arrivals, top_k=5)
        # Only current-digest, current-generation entries remain.
        assert len(cache) == len(queries)
        assert cache.invalidations == len(queries)

    def test_cluster_rejects_replicas_mid_disagreement(self, collection):
        # Two engines over *different* collection objects (one mutated):
        # the cached runtime must refuse to mix generations.
        twin = SegmentedCollection.from_collection(
            collection.segments[0].artifact
        )
        twin.ingest(np.ones((1, 128)))
        runtime_ok = ClusterRuntime(
            [TopKSpmvEngine(collection), TopKSpmvEngine(collection)],
            cache_size=8,
        )
        assert runtime_ok.n_replicas == 2
        with pytest.raises(ConfigurationError, match="shared artifact"):
            ClusterRuntime(
                [TopKSpmvEngine(collection), TopKSpmvEngine(twin)],
                cache_size=8,
            )
