"""Unit tests for the segmented mutable-collection layer."""

import numpy as np
import pytest

from repro.core.collection import compile_collection
from repro.core.engine import TopKSpmvEngine
from repro.core.kernels import run_segmented
from repro.core.segments import SegmentedCollection
from repro.data.synthetic import synthetic_embeddings
from repro.errors import ConfigurationError, FormatError
from repro.formats.io import load_manifest, save_manifest
from repro.hw.design import PAPER_DESIGNS
from repro.serving.sharded import ShardedEngine
from repro.utils.rng import derive_rng, sample_unit_queries

DESIGN = PAPER_DESIGNS["20b"]


@pytest.fixture
def base_matrix():
    return synthetic_embeddings(
        n_rows=600, n_cols=96, avg_nnz=8, distribution="uniform", seed=11
    )


@pytest.fixture
def collection(base_matrix):
    return SegmentedCollection.from_matrix(base_matrix, DESIGN)


def _rows(n, n_cols, seed):
    return np.abs(np.random.default_rng(seed).standard_normal((n, n_cols)))


class TestLifecycle:
    def test_ingest_assigns_monotonic_keys(self, collection):
        n0 = collection.n_live
        keys = collection.ingest(_rows(5, 96, 1))
        assert keys.tolist() == [n0, n0 + 1, n0 + 2, n0 + 3, n0 + 4]
        assert collection.n_live == n0 + 5
        more = collection.ingest(_rows(2, 96, 2))
        assert more.tolist() == [n0 + 5, n0 + 6]

    def test_every_mutation_bumps_generation(self, collection):
        gen = collection.generation
        keys = collection.ingest(_rows(3, 96, 1))
        assert collection.generation > gen
        gen = collection.generation
        collection.delete(keys[0])
        assert collection.generation > gen
        gen = collection.generation
        collection.update(int(keys[1]), _rows(1, 96, 2)[0])
        assert collection.generation > gen
        gen = collection.generation
        collection.seal()
        assert collection.generation > gen
        gen = collection.generation
        collection.compact()
        assert collection.generation > gen

    def test_delete_unknown_or_dead_key_raises(self, collection):
        with pytest.raises(ConfigurationError, match="not live"):
            collection.delete(10**9)
        keys = collection.ingest(_rows(1, 96, 1))
        collection.delete(keys)
        with pytest.raises(ConfigurationError, match="not live"):
            collection.delete(keys)

    def test_failed_delete_leaves_the_collection_untouched(self, collection):
        # Regression: a batch delete with one bad key must not tombstone
        # the good ones — a half-applied delete with an unbumped generation
        # would let (digest, generation)-keyed caches serve stale results.
        keys = collection.ingest(_rows(3, 96, 1))
        version = collection.version
        n_live = collection.n_live
        with pytest.raises(ConfigurationError, match="not live"):
            collection.delete([int(keys[0]), int(keys[1]), 10**9])
        assert collection.version == version
        assert collection.n_live == n_live
        # Duplicate keys inside one batch are rejected the same way.
        with pytest.raises(ConfigurationError, match="not live"):
            collection.delete([int(keys[0]), int(keys[0])])
        assert collection.version == version
        collection.delete(keys)  # the keys are all still deletable

    def test_update_moves_row_to_the_end(self, collection):
        key = int(collection.live_keys()[0])
        collection.update(key, _rows(1, 96, 3)[0])
        assert int(collection.live_keys()[-1]) == key
        assert key not in collection.live_keys()[:-1].tolist()

    def test_auto_seal_at_threshold(self, base_matrix):
        collection = SegmentedCollection.from_matrix(
            base_matrix, DESIGN, seal_rows=8
        )
        collection.ingest(_rows(7, 96, 1))
        assert collection.n_segments == 1 and collection.delta.n_live == 7
        collection.ingest(_rows(1, 96, 2))
        assert collection.n_segments == 2 and collection.delta.n_live == 0

    def test_ingest_rejects_wrong_width(self, collection):
        with pytest.raises(ConfigurationError, match="columns"):
            collection.ingest(_rows(2, 32, 1))
        with pytest.raises(ConfigurationError, match="shape"):
            collection.update(int(collection.live_keys()[0]), np.ones(32))

    def test_empty_start_grows_from_nothing(self):
        empty = np.zeros((0, 64))
        collection = SegmentedCollection.from_matrix(empty, DESIGN)
        assert collection.n_live == 0 and collection.n_segments == 0
        X = sample_unit_queries(derive_rng(0), 2, 64)
        out = run_segmented(collection, DESIGN.quantize_query(X), top_k=3)
        assert all(len(r) == 0 for r in out.results)
        collection.ingest(_rows(4, 64, 1))
        out = run_segmented(collection, DESIGN.quantize_query(X), top_k=3)
        assert all(len(r) == 3 for r in out.results)


class TestCompaction:
    def test_compact_drops_tombstones(self, collection):
        keys = collection.ingest(_rows(20, 96, 1))
        collection.delete(keys[:10])
        collection.seal()
        nnz_before = sum(s.artifact.nnz for s in collection.segments)
        victims = collection.live_keys()[:50]
        collection.delete(victims)
        collection.compact()
        assert collection.n_segments == 1
        segment = collection.segments[0]
        assert segment.all_live
        assert segment.n_rows == collection.n_live
        assert sum(s.artifact.nnz for s in collection.segments) < nnz_before

    def test_keep_clean_over_reuses_big_segments(self, collection):
        big = collection.segments[0]
        collection.ingest(_rows(5, 96, 1))
        collection.seal()
        collection.ingest(_rows(5, 96, 2))
        collection.seal()
        assert collection.n_segments == 3
        rewritten = collection.compact(keep_clean_over=100)
        # The pristine 600-row segment is reused by identity; the two small
        # ones merged into one.
        assert collection.segments[0] is big
        assert collection.n_segments == 2
        assert rewritten == 2

    def test_compact_on_pristine_collection_is_a_no_op(self, collection):
        gen = collection.generation
        assert collection.compact() == 0
        assert collection.generation == gen
        assert collection.n_segments == 1


class TestIdentity:
    def test_wrap_preserves_artifact_digest_but_namespaces_its_own(
        self, base_matrix
    ):
        compiled = compile_collection(base_matrix, DESIGN)
        wrapped = SegmentedCollection.from_collection(compiled)
        # The adopted artifact is identity-preserved...
        assert wrapped.segments[0].digest == compiled.digest
        # ...but the collection identity is namespaced: frozen and
        # segmented engines answer queries through different paths, so
        # they must never collide in a result cache.
        assert wrapped.digest != compiled.digest
        pristine = wrapped.digest
        wrapped.ingest(_rows(1, 96, 1))
        wrapped.seal()
        assert wrapped.digest != pristine

    def test_version_moves_with_every_mutation(self, collection):
        seen = {collection.version}
        keys = collection.ingest(_rows(2, 96, 1))
        seen.add(collection.version)
        collection.delete(keys[0])
        seen.add(collection.version)
        collection.seal()
        seen.add(collection.version)
        assert len(seen) == 4

    def test_keys_for_translates_positions(self, collection):
        keys = collection.ingest(_rows(3, 96, 1))
        collection.delete(collection.live_keys()[0])
        live = collection.live_keys()
        picked = collection.keys_for(np.array([0, len(live) - 1]))
        assert picked.tolist() == [live[0], keys[-1]]


class TestPersistence:
    def test_manifest_round_trip(self, collection, tmp_path):
        keys = collection.ingest(_rows(12, 96, 1))
        collection.delete(keys[:3])
        collection.seal()
        collection.ingest(_rows(4, 96, 2))  # unsealed delta persists too
        target = tmp_path / "col"
        collection.save(target)
        loaded = SegmentedCollection.load(target)
        assert loaded.generation == collection.generation
        assert loaded.digest == collection.digest
        assert loaded.version == collection.version
        assert loaded.live_keys().tolist() == collection.live_keys().tolist()
        X = DESIGN.quantize_query(sample_unit_queries(derive_rng(1), 3, 96))
        got = run_segmented(loaded, X, top_k=8)
        want = run_segmented(collection, X, top_k=8)
        for g, w in zip(got.results, want.results):
            assert g.indices.tolist() == w.indices.tolist()
            assert g.values.tobytes() == w.values.tobytes()
        # Mutations continue cleanly after a reload (keys never collide).
        new = loaded.ingest(_rows(1, 96, 3))
        assert new[0] > collection.live_keys().max()

    def test_plain_artifact_loads_without_migration(self, base_matrix, tmp_path):
        compiled = compile_collection(base_matrix, DESIGN)
        path = tmp_path / "plain.npz"
        compiled.save(path)
        loaded = SegmentedCollection.load(path)
        assert loaded.n_segments == 1
        assert loaded.segments[0].digest == compiled.digest
        # Aux buffers (the contraction operand) come back verbatim too.
        assert loaded.segments[0].artifact._operand is not None

    def test_unchanged_segments_are_not_rewritten(self, collection, tmp_path):
        target = tmp_path / "col"
        collection.save(target)
        seg_files = sorted(target.glob("segment-*.npz"))
        assert len(seg_files) == 1
        before = seg_files[0].stat().st_mtime_ns
        collection.ingest(_rows(3, 96, 1))
        collection.seal()
        collection.save(target)
        assert seg_files[0].stat().st_mtime_ns == before
        assert len(sorted(target.glob("segment-*.npz"))) == 2

    def test_compaction_prunes_superseded_segment_files(self, collection, tmp_path):
        collection.ingest(_rows(3, 96, 1))
        collection.seal()
        target = tmp_path / "col"
        collection.save(target)
        assert len(sorted(target.glob("segment-*.npz"))) == 2
        collection.compact()
        collection.save(target)
        files = sorted(target.glob("segment-*.npz"))
        assert len(files) == 1
        assert files[0].name == f"segment-{collection.segments[0].digest[:16]}.npz"

    def test_duplicate_content_segments_share_one_file(self, tmp_path):
        # Two segments with identical contents (replayed feed, duplicate
        # documents) have equal digests; the content-addressed store keeps
        # one file and the manifest references it from both members.
        collection = SegmentedCollection.from_matrix(
            _rows(8, 96, 1), DESIGN, seal_rows=4
        )
        rows = _rows(4, 96, 2)
        collection.ingest(rows)  # auto-seals at 4
        collection.ingest(rows)  # identical segment, identical digest
        assert collection.segments[1].digest == collection.segments[2].digest
        target = tmp_path / "col"
        collection.save(target)
        assert len(sorted(target.glob("segment-*.npz"))) == 2
        loaded = SegmentedCollection.load(target)
        assert loaded.n_segments == 3
        assert loaded.live_keys().tolist() == collection.live_keys().tolist()

    def test_manifest_validation(self, tmp_path):
        with pytest.raises(FormatError, match="MANIFEST"):
            load_manifest(tmp_path, "segmented-collection")
        save_manifest(tmp_path, "other-kind", {"generation": 0}, [])
        with pytest.raises(FormatError, match="expected"):
            load_manifest(tmp_path, "segmented-collection")
        with pytest.raises(FormatError, match="'file' and 'digest'"):
            save_manifest(tmp_path, "k", {}, [{"file": "segment-x.npz"}])
        with pytest.raises(FormatError, match="missing member"):
            save_manifest(
                tmp_path, "k", {}, [{"file": "segment-x.npz", "digest": "d"}]
            )
            load_manifest(tmp_path, "k")


class TestEngines:
    def test_engine_serves_and_mutates(self, collection):
        engine = TopKSpmvEngine(collection)
        X = sample_unit_queries(derive_rng(2), 4, 96)
        before = engine.query_batch(X, top_k=9)
        keys = engine.ingest(_rows(10, 96, 1))
        engine.delete(keys[:2])
        after = engine.query_batch(X, top_k=9)
        assert before.topk[0].values.tobytes() != b"" and len(after.topk[0]) == 9
        single = engine.query(X[0], top_k=9)
        assert single.topk.indices.tolist() == after.topk[0].indices.tolist()
        assert engine.timing.total_seconds > 0
        engine.compact()
        compacted = engine.query_batch(X, top_k=9)
        for a, b in zip(after.topk, compacted.topk):
            assert a.indices.tolist() == b.indices.tolist()
            assert a.values.tobytes() == b.values.tobytes()

    def test_engine_timing_tracks_generation(self, collection):
        engine = TopKSpmvEngine(collection)
        t0 = engine.timing
        engine.ingest(_rows(50, 96, 1))
        engine.seal()
        t1 = engine.timing
        assert t1.makespan_s > t0.makespan_s

    def test_candidate_paths_are_frozen_only(self, collection):
        engine = TopKSpmvEngine(collection)
        X = sample_unit_queries(derive_rng(3), 2, 96)
        with pytest.raises(ConfigurationError, match="frozen"):
            engine.query_candidates(X[0])
        with pytest.raises(ConfigurationError, match="frozen"):
            engine.query_candidates_batch(X)
        with pytest.raises(ConfigurationError, match="encoded"):
            engine.encoded
        frozen = TopKSpmvEngine(compile_collection(collection.matrix, DESIGN))
        with pytest.raises(ConfigurationError, match="frozen"):
            frozen.ingest(_rows(1, 96, 1))

    def test_sharded_equals_unsharded(self, collection):
        engine = TopKSpmvEngine(collection)
        fleet = ShardedEngine(collection, n_shards=4)
        keys = fleet.ingest(_rows(8, 96, 1))
        fleet.delete(keys[:1])
        X = sample_unit_queries(derive_rng(4), 3, 96)
        want = engine.query_batch(X, top_k=7)
        got = fleet.query_batch(X, top_k=7)
        for a, b in zip(want.topk, got.topk):
            assert a.indices.tolist() == b.indices.tolist()
            assert a.values.tobytes() == b.values.tobytes()
        single = fleet.query(X[0], top_k=7)
        assert single.topk.indices.tolist() == want.topk[0].indices.tolist()
        assert len(fleet.shards) == 4
        assert fleet.makespan_s > 0

    def test_sharded_rejects_full_board_mode(self, collection):
        with pytest.raises(ConfigurationError, match="cores_per_shard"):
            ShardedEngine(collection, n_shards=2, cores_per_shard=4)

    def test_describe_mentions_segments(self, collection):
        engine = TopKSpmvEngine(collection)
        assert "segmented" in engine.describe()
        fleet = ShardedEngine(collection, n_shards=2)
        assert "shards" in fleet.describe()


class TestPlacedSegmentFold:
    """The stream-order screened fold of a placed segment and its caches."""

    @pytest.fixture
    def pair(self, base_matrix):
        """The same rows behind an identity and a skew-placed compile."""
        return tuple(
            SegmentedCollection.from_collection(
                compile_collection(
                    base_matrix, DESIGN, n_partitions=4, placement=placement
                )
            )
            for placement in (None, "skew")
        )

    @staticmethod
    def _assert_same_bits(got, want):
        for g, w in zip(got.results, want.results):
            assert g.indices.tolist() == w.indices.tolist()
            assert g.values.tobytes() == w.values.tobytes()

    def test_streams_and_skips_without_falling_back(self, pair):
        base, placed = pair
        X = DESIGN.quantize_query(sample_unit_queries(derive_rng(7), 5, 96))
        got = run_segmented(placed, X, 10)
        self._assert_same_bits(got, run_segmented(base, X, 10))
        assert got.segment_kernels == ("streaming",)
        assert got.ordered_lanes == 0
        assert got.total_rows == 600 * 5

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_query_takes_the_ordered_fold(self, pair, bad):
        base, placed = pair
        X = DESIGN.quantize_query(sample_unit_queries(derive_rng(8), 3, 96))
        X[1, 5] = bad
        got = run_segmented(placed, X, 10)
        self._assert_same_bits(got, run_segmented(base, X, 10))
        assert got.ordered_lanes == 1  # the finite queries kept streaming

    def test_an_all_tombstoned_block_is_never_gathered(self, pair, monkeypatch):
        from repro.core.kernels import streaming

        base, placed = pair
        artifact = placed.segments[0].artifact
        bounds = artifact.placement.boundaries
        dead = artifact.placement.order[bounds[1] : bounds[2]]  # all of stream 1
        for collection in pair:
            collection.delete(dead.tolist())
        gathered = []
        real = streaming.block_scores

        def recording(Xc, kept_idx, values, row_starts):
            gathered.append(kept_idx)
            return real(Xc, kept_idx, values, row_starts)

        monkeypatch.setattr(streaming, "block_scores", recording)
        X = DESIGN.quantize_query(sample_unit_queries(derive_rng(9), 2, 96))
        n_live = placed.n_live
        got = run_segmented(placed, X, n_live)  # depth = every row: no early stop
        dead_lanes = artifact.stream_plans()[1].kept_idx
        assert gathered and not any(np.shares_memory(g, dead_lanes) for g in gathered)
        monkeypatch.undo()
        self._assert_same_bits(got, run_segmented(base, X, n_live))
        assert got.total_rows == n_live * 2 and got.skipped_rows == 0

    def test_screens_are_built_once_per_tombstone_state(self, pair, monkeypatch):
        from repro.core.kernels import segmented

        _, placed = pair
        placed.ingest(_rows(300, 96, 3))
        placed.seal()  # an unplaced segment behind the placed one
        builds = []
        real = segmented._segment_screen

        def counting(segment, acc):
            builds.append(placed.segments.index(segment))
            return real(segment, acc)

        monkeypatch.setattr(segmented, "_segment_screen", counting)
        X = DESIGN.quantize_query(sample_unit_queries(derive_rng(10), 2, 96))
        for _ in range(3):
            out = run_segmented(placed, X, 10, kernel="streaming")
        assert out.segment_kernels == ("streaming", "streaming")
        assert builds == [0, 1]
        placed.delete([0])  # a tombstone on the placed segment only
        for _ in range(2):
            run_segmented(placed, X, 10, kernel="streaming")
        assert builds == [0, 1, 0]

    def test_plan_stats_are_merged_once_per_artifact(self, pair):
        artifact = pair[1].segments[0].artifact
        merged = artifact.plan_stats()
        assert merged is artifact.plan_stats()
        assert merged.packets == sum(p.stats.packets for p in artifact.stream_plans())
        assert merged.rows_finished == 600
