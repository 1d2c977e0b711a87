"""Unit tests for the sharded serving engine."""

import numpy as np
import pytest

from repro.core.collection import compile_collection
from repro.core.engine import TopKSpmvEngine
from repro.core.partition import partition_rows
from repro.core.segments import SegmentedCollection
from repro.data.synthetic import synthetic_embeddings
from repro.errors import ConfigurationError
from repro.hw.design import PAPER_DESIGNS
from repro.hw.multicore import TopKSpmvAccelerator
from repro.serving.cluster import ClusterRuntime
from repro.serving.sharded import ShardedEngine


@pytest.fixture(scope="module")
def collection():
    return synthetic_embeddings(
        n_rows=3000, n_cols=256, avg_nnz=12, distribution="uniform", seed=31
    )


@pytest.fixture(scope="module")
def gamma_collection():
    return synthetic_embeddings(
        n_rows=1500, n_cols=256, avg_nnz=8, distribution="gamma", seed=33
    )


@pytest.fixture(scope="module")
def flat_engine(collection):
    return TopKSpmvEngine(collection, design=PAPER_DESIGNS["20b"])


@pytest.fixture(scope="module")
def sharded_engine(collection):
    return ShardedEngine(collection, n_shards=4, design=PAPER_DESIGNS["20b"])


class TestAlignedShardingEquality:
    def test_topk_identical_to_unsharded(self, flat_engine, sharded_engine, queries):
        for x in queries:
            flat = flat_engine.query(x, top_k=25).topk
            sharded = sharded_engine.query(x, top_k=25).topk
            assert sharded.indices.tolist() == flat.indices.tolist()
            assert sharded.values.tobytes() == flat.values.tobytes()

    def test_batch_topk_identical_to_unsharded(
        self, flat_engine, sharded_engine, queries
    ):
        flat = flat_engine.query_batch(queries, top_k=25)
        sharded = sharded_engine.query_batch(queries, top_k=25)
        for a, b in zip(flat.topk, sharded.topk):
            assert a.indices.tolist() == b.indices.tolist()
            assert a.values.tobytes() == b.values.tobytes()

    def test_identical_on_empty_row_matrices(self, gamma_collection, queries):
        flat = TopKSpmvEngine(gamma_collection, design=PAPER_DESIGNS["20b"])
        sharded = ShardedEngine(gamma_collection, n_shards=4)
        for x in queries:
            assert (
                sharded.query(x, top_k=20).topk.indices.tolist()
                == flat.query(x, top_k=20).topk.indices.tolist()
            )

    def test_dataflow_totals_match_unsharded(self, flat_engine, sharded_engine, query):
        flat = flat_engine.query(query, top_k=10)
        sharded = sharded_engine.query(query, top_k=10)
        assert sharded.dataflow == flat.dataflow

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 8])
    def test_equality_holds_for_any_shard_count(self, collection, query, n_shards):
        flat = TopKSpmvEngine(collection, design=PAPER_DESIGNS["20b"])
        sharded = ShardedEngine(collection, n_shards=n_shards)
        assert (
            sharded.query(query, top_k=30).topk.indices.tolist()
            == flat.query(query, top_k=30).topk.indices.tolist()
        )


class TestShardStructure:
    def test_every_stream_dealt_exactly_once(self, sharded_engine, flat_engine):
        dealt = sum(s.n_streams for s in sharded_engine.shards)
        assert dealt == flat_engine.encoded.n_partitions
        assert sharded_engine.shards[0].stream_range[0] == 0

    def test_nnz_conserved(self, sharded_engine, collection):
        assert sum(s.nnz for s in sharded_engine.shards) == collection.nnz

    def test_shard_timings_cover_their_streams(self, sharded_engine):
        for shard in sharded_engine.shards:
            assert len(shard.timing.core_seconds) == shard.n_streams
            assert shard.timing.makespan_s > 0

    def test_fleet_power_exceeds_single_board_share(self, sharded_engine):
        assert sharded_engine.power_w > 0
        assert len(sharded_engine.shards) == 4

    def test_describe_mentions_shards(self, sharded_engine):
        text = sharded_engine.describe()
        assert "4 shards" in text
        assert "shard 0" in text


class TestFullBoardMode:
    def test_recall_vs_exact(self, collection, queries):
        sharded = ShardedEngine(
            collection, n_shards=4, design=PAPER_DESIGNS["20b"], cores_per_shard=32
        )
        hits = 0
        for x in queries:
            got = sharded.query(x, top_k=10).topk
            exact = sharded.query_exact(x, top_k=10)
            hits += len(set(got.indices.tolist()) & set(exact.indices.tolist()))
        assert hits >= 0.9 * len(queries) * 10

    def test_shards_split_rows(self, collection):
        sharded = ShardedEngine(collection, n_shards=4, cores_per_shard=8)
        assert sum(s.nnz for s in sharded.shards) == collection.nnz
        # Each shard re-partitions its slice across its own cores.
        for shard in sharded.shards:
            assert shard.n_streams == 8

    def test_smaller_shards_stream_faster(self, collection):
        one_board = ShardedEngine(collection, n_shards=1, cores_per_shard=32)
        four_boards = ShardedEngine(collection, n_shards=4, cores_per_shard=32)
        assert four_boards.makespan_s < one_board.makespan_s


class TestValidation:
    def test_too_many_aligned_shards_rejected(self, collection):
        with pytest.raises(ConfigurationError):
            ShardedEngine(collection, n_shards=64, design=PAPER_DESIGNS["20b"])

    def test_top_k_beyond_candidates_served(self, sharded_engine):
        """No k·c cap: a K past every row returns every row, ranked."""
        got = sharded_engine.query(np.ones(256) / 16.0, top_k=10_000).topk
        assert len(got) == sharded_engine.matrix.n_rows
        assert (np.diff(got.values) <= 0).all()
        with pytest.raises(ConfigurationError):
            sharded_engine.query(np.ones(256) / 16.0, top_k=0)

    def test_query_shape_enforced(self, sharded_engine):
        with pytest.raises(ConfigurationError):
            sharded_engine.query(np.ones(100), top_k=5)
        with pytest.raises(ConfigurationError):
            sharded_engine.query_batch(np.ones((2, 100)), top_k=5)

    def test_zero_shards_rejected(self, collection):
        with pytest.raises(ConfigurationError):
            ShardedEngine(collection, n_shards=0)


class TestBoardModel:
    """A fleet is the single engine with per-board timing and power."""

    @pytest.mark.parametrize("n_partitions", [None, 8])
    @pytest.mark.parametrize("key", ["20b", "f32"])
    def test_one_shard_fleet_is_the_engine(self, collection, queries, key, n_partitions):
        art = compile_collection(
            collection, PAPER_DESIGNS[key], n_partitions=n_partitions
        )
        engine = TopKSpmvEngine(art).query_batch(queries, top_k=10)
        fleet = ShardedEngine(art, n_shards=1).query_batch(queries, top_k=10)
        assert fleet.seconds == engine.seconds
        if art.n_partitions == art.design.cores:
            assert fleet.energy_j == engine.energy_j
        else:
            # The fleet bills only the cores holding streams.
            assert fleet.energy_j < engine.energy_j

    @pytest.mark.parametrize("cores", [1, 4, 32])
    @pytest.mark.parametrize("key", ["20b", "25b"])
    def test_full_board_timing_matches_a_per_shard_compile(
        self, gamma_collection, key, cores
    ):
        """Row-length timing equals timing the old way: compile each row
        slice across its board's own cores, then time its streams."""
        design = PAPER_DESIGNS[key]
        fleet = ShardedEngine(
            gamma_collection, n_shards=3, design=design, cores_per_shard=cores
        )
        board = design.with_cores(cores)
        oracle = TopKSpmvAccelerator(board)
        for shard, part in zip(
            fleet.shards, partition_rows(gamma_collection.n_rows, 3)
        ):
            local = compile_collection(
                gamma_collection.row_slice(part.start, part.stop), board
            )
            assert shard.timing == oracle.timing_from_matrix(local.encoded)
            assert shard.nnz == local.nnz
            assert shard.n_streams == local.n_partitions

    def test_full_board_fleet_from_raw_matrix_caches(self, collection, queries):
        fleet = ShardedEngine(collection, n_shards=2, cores_per_shard=4)
        runtime = ClusterRuntime([fleet], cache_size=8)
        stream = np.vstack([queries[:3], queries[:3]])
        results, report = runtime.run(stream, np.linspace(0.0, 1.0, 6), top_k=5)
        assert report.n_cache_hits == 3
        direct = fleet.query_batch(stream, top_k=5)
        for got, want in zip(results, direct.topk):
            assert got.indices.tolist() == want.indices.tolist()
            assert got.values.tobytes() == want.values.tobytes()

    def test_full_board_fleet_has_no_per_core_candidates(self, collection, query):
        fleet = ShardedEngine(collection, n_shards=2, cores_per_shard=4)
        with pytest.raises(ConfigurationError, match="full-board"):
            fleet.query_candidates(query)
        aligned = ShardedEngine(collection, n_shards=2)
        flat = TopKSpmvEngine(collection)
        got, _ = aligned.query_candidates(query)
        want, _ = flat.query_candidates(query)
        assert [c.indices.tolist() for c in got] == [
            c.indices.tolist() for c in want
        ]

    @pytest.mark.parametrize("segmented", [False, True])
    def test_more_boards_than_streams_rejected(self, segmented):
        matrix = synthetic_embeddings(n_rows=600, n_cols=64, avg_nnz=8, seed=3)
        art = compile_collection(matrix, PAPER_DESIGNS["20b"], n_partitions=8)
        served = SegmentedCollection.from_collection(art) if segmented else art
        with pytest.raises(
            ConfigurationError,
            match="cannot spread 8 partition streams over 9 shards",
        ):
            ShardedEngine(served, n_shards=9)
        assert len(ShardedEngine(served, n_shards=8).shards) == 8
