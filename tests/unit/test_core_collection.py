"""Unit tests for the compiled-collection build pipeline and its sharing."""

import pytest

from repro import CompiledCollection, PAPER_DESIGNS, TopKSpmvEngine, compile_collection
from repro.core.collection import resolve_design
from repro.data.synthetic import synthetic_embeddings
from repro.errors import ConfigurationError
from repro.serving.sharded import ShardedEngine


@pytest.fixture(scope="module")
def matrix():
    return synthetic_embeddings(n_rows=1200, n_cols=128, avg_nnz=10, seed=2)


@pytest.fixture()
def collection(matrix):
    return compile_collection(matrix, PAPER_DESIGNS["20b"])


class TestCompilePipeline:
    def test_shapes_and_counts(self, matrix, collection):
        assert collection.n_rows == matrix.n_rows
        assert collection.n_cols == matrix.n_cols
        assert collection.nnz == matrix.nnz
        assert collection.n_partitions == PAPER_DESIGNS["20b"].cores

    def test_default_design_is_20b(self, matrix):
        assert compile_collection(matrix).design == PAPER_DESIGNS["20b"]

    def test_wide_matrix_widens_design(self):
        wide = synthetic_embeddings(n_rows=100, n_cols=2048, avg_nnz=4, seed=0)
        compiled = compile_collection(wide, PAPER_DESIGNS["20b"])
        assert compiled.design.max_columns == 2048
        assert resolve_design(wide, PAPER_DESIGNS["20b"]).max_columns == 2048

    def test_matches_engine_encoding(self, matrix, collection):
        """The pipeline and the engine produce the same streams."""
        engine = TopKSpmvEngine(matrix, PAPER_DESIGNS["20b"])
        assert engine.encoded.total_packets == collection.encoded.total_packets
        for a, b in zip(engine.encoded.streams, collection.encoded.streams):
            assert a.ptr.tobytes() == b.ptr.tobytes()
            assert a.val_raw.tobytes() == b.val_raw.tobytes()

    def test_digest_is_stable_and_content_sensitive(self, matrix, collection):
        again = compile_collection(matrix, PAPER_DESIGNS["20b"])
        assert collection.digest == again.digest
        other = compile_collection(matrix, PAPER_DESIGNS["25b"])
        assert other.digest != collection.digest

    def test_describe_mentions_digest(self, collection):
        assert collection.digest[:16] in collection.describe()

    def test_engine_rejects_conflicting_design(self, collection):
        with pytest.raises(ConfigurationError, match="recompile"):
            TopKSpmvEngine(collection, design=PAPER_DESIGNS["25b"])
        with pytest.raises(ConfigurationError, match="recompile"):
            ShardedEngine(collection, n_shards=2, design=PAPER_DESIGNS["25b"])

    def test_engine_accepts_the_design_it_was_compiled_with(self, collection):
        """Re-passing the compile-time design is not a conflict — including
        when the artifact stores an auto-widened copy of it."""
        TopKSpmvEngine(collection, design=PAPER_DESIGNS["20b"])
        ShardedEngine(collection, n_shards=2, design=PAPER_DESIGNS["20b"])
        wide = synthetic_embeddings(n_rows=200, n_cols=2000, avg_nnz=4, seed=1)
        compiled = compile_collection(wide, PAPER_DESIGNS["20b"])
        assert compiled.design != PAPER_DESIGNS["20b"]  # widened max_columns
        TopKSpmvEngine(compiled, design=PAPER_DESIGNS["20b"])
        ShardedEngine(compiled, n_shards=2, design=PAPER_DESIGNS["20b"])

    def test_uram_check_fires_before_the_build(self, monkeypatch):
        """An infeasible query vector fails fast, not after a full encode."""
        import repro.formats.bscsr as bscsr_mod
        from repro.errors import CapacityError

        huge = synthetic_embeddings(n_rows=50, n_cols=300_000, avg_nnz=2, seed=0)

        def _boom(*args, **kwargs):
            raise AssertionError("encoder ran before the URAM check")

        monkeypatch.setattr(bscsr_mod.BSCSRMatrix, "encode", _boom)
        with pytest.raises(CapacityError):
            TopKSpmvEngine(huge, design=PAPER_DESIGNS["20b"])
        with pytest.raises(CapacityError):
            ShardedEngine(huge, n_shards=2, design=PAPER_DESIGNS["20b"])


class TestPlanCacheSharing:
    def test_plans_lazy_then_cached(self, collection):
        assert collection._plans_all is None
        plans = collection.stream_plans()
        assert plans is collection.stream_plans()
        assert len(plans) == collection.n_partitions

    def test_range_and_full_share_entries(self, collection):
        head = collection.stream_plans_range(0, 4)
        full = collection.stream_plans()
        for i in range(4):
            assert full[i] is head[i]

    def test_invalid_range_rejected(self, collection):
        with pytest.raises(ConfigurationError):
            collection.stream_plans_range(0, collection.n_partitions + 1)


class TestAlignedShardSlices:
    def test_partition_override_deals_every_stream(self, matrix):
        """Sharding follows the collection's real partition count, not the
        design's core count, when n_partitions was overridden at compile."""
        compiled = compile_collection(matrix, PAPER_DESIGNS["20b"], n_partitions=8)
        fleet = ShardedEngine(compiled, n_shards=2)
        # Both modes serve the parent artifact verbatim: no slice, no re-encode.
        assert fleet._query_view.segments[0].artifact is compiled
        full_board = ShardedEngine(compiled, n_shards=2, cores_per_shard=4)
        assert full_board._query_view.segments[0].artifact is compiled
        assert sum(s.n_streams for s in fleet.shards) == 8
        assert sum(s.nnz for s in fleet.shards) == compiled.nnz
        with pytest.raises(ConfigurationError, match="8 partition streams"):
            ShardedEngine(compiled, n_shards=9)
