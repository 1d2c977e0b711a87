"""Unit tests for the segmented mutable-collection layer."""

import numpy as np
import pytest

from repro.core.collection import compile_collection
from repro.core.engine import TopKSpmvEngine
from repro.core.kernels import Queries, run_segmented
from repro.core.kernels.gather import plan_row_scores
from repro.core.reference import topk_from_scores
from repro.core.segments import SegmentedCollection
from repro.data.synthetic import synthetic_embeddings, zipf_embeddings
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
    """The sorted-run fold of placed segments and the delta, and its caches."""

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
        assert got.total_rows == 600 * 5

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_query_follows_the_documented_order(self, pair, bad):
        """A NaN/±inf query coordinate gives NaN and ±inf scores: both
        layouts answer ``topk_from_scores`` of them (NaN below −inf)."""
        base, placed = pair
        X = DESIGN.quantize_query(sample_unit_queries(derive_rng(8), 3, 96))
        X[1, 5] = bad
        got = run_segmented(placed, X, 10)
        self._assert_same_bits(got, run_segmented(base, X, 10))
        queries = Queries.of(X[1:2], DESIGN.accumulate_dtype)
        plans = base.segments[0].artifact.stream_plans()
        scores = np.concatenate([plan_row_scores(queries, p)[0] for p in plans])
        want = topk_from_scores(scores, 10)
        assert got.results[1].indices.tolist() == want.indices.tolist()
        assert got.results[1].values.tobytes() == want.values.tobytes()

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
        # Every gathered block is a slice of the segment's tombstoned run,
        # which holds the live rows only.
        run = placed.segments[0].derived[("run", np.dtype(DESIGN.accumulate_dtype).str)]
        assert len(run.ids) == n_live
        assert gathered and all(np.shares_memory(g, run.kept_idx) for g in gathered)
        monkeypatch.undo()
        self._assert_same_bits(got, run_segmented(base, X, n_live))
        assert got.total_rows == n_live * 2 and got.skipped_rows == 0

    def test_runs_are_built_once_per_tombstone_state(self, pair, monkeypatch):
        from repro.core.kernels import segmented, streaming

        _, placed = pair
        placed.ingest(_rows(300, 96, 3))
        placed.seal()  # an unplaced segment behind the placed one
        builds = []

        def label(artifact):
            sealed = [s.artifact for s in placed.segments]
            return next((i for i, a in enumerate(sealed) if a is artifact), "delta")

        real_build = segmented._artifact_run
        real_select = streaming.SortedRun.select

        def counting_build(artifact, acc):
            builds.append(label(artifact))
            return real_build(artifact, acc)

        def counting_select(run, keep, ids):
            builds.append(("tombstoned", int((~keep).sum())))
            return real_select(run, keep, ids)

        monkeypatch.setattr(segmented, "_artifact_run", counting_build)
        monkeypatch.setattr(streaming.SortedRun, "select", counting_select)
        X = DESIGN.quantize_query(sample_unit_queries(derive_rng(10), 2, 96))
        for _ in range(3):
            out = run_segmented(placed, X, 10)
        assert out.segment_kernels == ("streaming", "streaming")
        assert builds == [0, 1]
        # An artifact's run is shared: another collection wrapping the same
        # artifact (an engine replica) reuses it.
        twin = SegmentedCollection.from_collection(placed.segments[0].artifact)
        run_segmented(twin, X, 10)
        assert builds == [0, 1]
        placed.delete([0])  # a tombstone on the placed segment only
        for _ in range(2):
            run_segmented(placed, X, 10)
        assert builds == [0, 1, ("tombstoned", 1)]
        placed.delete([1])
        run_segmented(placed, X, 10)
        assert builds == [0, 1, ("tombstoned", 1), ("tombstoned", 2)]
        # The delta's run is built once per delta generation, not per query.
        placed.ingest(_rows(40, 96, 4))
        for _ in range(3):
            out = run_segmented(placed, X, 10)
        assert out.segment_kernels == ("streaming",) * 3
        assert builds[4:] == ["delta"]
        placed.ingest(_rows(5, 96, 5))
        for _ in range(2):
            run_segmented(placed, X, 10)
        assert builds[4:] == ["delta", "delta"]

    def test_the_delta_is_screened(self):
        """Unsealed rows take the same sorted-run walk as a sealed segment:
        a skewed delta is mostly skipped, and still answers exactly."""
        design = PAPER_DESIGNS["f32"]
        matrix = zipf_embeddings(n_rows=2000, n_cols=64, avg_nnz=8, seed=31)
        collection = SegmentedCollection(design, matrix.n_cols)
        collection.ingest(matrix)
        assert collection.n_segments == 0 and collection.n_live == 2000
        X = design.quantize_query(sample_unit_queries(derive_rng(12), 4, 64))
        out = run_segmented(collection, X, 10)
        assert out.segment_kernels == ("streaming",)
        assert out.skip_fraction > 0.5
        queries = Queries.of(X, design.accumulate_dtype)
        plans = compile_collection(matrix, design).stream_plans()
        scores = np.hstack([plan_row_scores(queries, plan) for plan in plans])
        for got, row_scores in zip(out.results, scores):
            want = topk_from_scores(row_scores, 10)
            assert got.indices.tolist() == want.indices.tolist()
            assert got.values.tobytes() == want.values.tobytes()


class TestOneWalk:
    """Every segment walks its sorted run: a large chunk is scored by one
    float32 SpMM and only the rows that straddle the K-th score are
    rescored exactly."""

    @pytest.mark.parametrize("codec", ["20b", "f32"])
    def test_rescores_at_most_2k_rows_per_query(self, codec):
        design = PAPER_DESIGNS[codec]
        matrix = synthetic_embeddings(
            n_rows=6000, n_cols=128, avg_nnz=12, distribution="uniform", seed=21
        )
        collection = SegmentedCollection.from_matrix(matrix, design)
        X = design.quantize_query(sample_unit_queries(derive_rng(22), 16, 128))
        out = run_segmented(collection, X, 10)
        assert out.segment_kernels == ("streaming",)
        assert 10 * len(X) <= out.rescored_rows <= 2 * 10 * len(X)

    def test_one_float32_run_and_no_float64_operand(
        self, base_matrix, monkeypatch
    ):
        from repro.core.kernels import contraction, segmented, streaming

        gates, builds = [], []
        real_gate, real_build = contraction.exact_gate, segmented._artifact_run

        def counting_gate(*args):
            gates.append(args)
            return real_gate(*args)

        def counting_build(artifact, acc):
            builds.append(acc)
            return real_build(artifact, acc)

        monkeypatch.setattr(contraction, "exact_gate", counting_gate)
        monkeypatch.setattr(segmented, "_artifact_run", counting_build)
        artifact = compile_collection(base_matrix, DESIGN)
        X = sample_unit_queries(derive_rng(23), 4, 96)
        engine = TopKSpmvEngine(artifact)
        for _ in range(3):
            engine.query_batch(X, 10)
        engine.query(X[0], 10)
        assert artifact._operand is None and gates == []
        assert builds == [np.dtype(np.float64)]
        run = artifact.derived[("run", np.dtype(np.float64).str)]
        assert isinstance(run, streaming.SortedRun)
        assert run.values.dtype == np.float32
        assert run.kept_idx.dtype == np.int32
        # Another engine wrapping the same artifact reuses it.
        TopKSpmvEngine(SegmentedCollection.from_collection(artifact)).query_batch(
            X, 10
        )
        assert builds == [np.dtype(np.float64)]
        assert artifact._operand is None and gates == []

    def test_an_unplaced_skewed_20b_collection_skips(self):
        matrix = zipf_embeddings(n_rows=20_000, n_cols=64, avg_nnz=8, seed=41)
        artifact = compile_collection(matrix, DESIGN)
        assert artifact.placement is None
        X = DESIGN.quantize_query(sample_unit_queries(derive_rng(24), 8, 64))
        out = run_segmented(SegmentedCollection.from_collection(artifact), X, 10)
        assert out.skip_fraction >= 0.9
        queries = Queries.of(X, DESIGN.accumulate_dtype)
        scores = np.hstack(
            [plan_row_scores(queries, plan) for plan in artifact.stream_plans()]
        )
        for got, row_scores in zip(out.results, scores):
            want = topk_from_scores(row_scores, 10)
            assert got.indices.tolist() == want.indices.tolist()
            assert got.values.tobytes() == want.values.tobytes()

    def test_placed_and_unplaced_artifacts_walk_alike(self):
        matrix = zipf_embeddings(n_rows=8000, n_cols=64, avg_nnz=8, seed=42)
        X = DESIGN.quantize_query(sample_unit_queries(derive_rng(25), 8, 64))
        outs = [
            run_segmented(
                SegmentedCollection.from_collection(
                    compile_collection(matrix, DESIGN, placement=placement)
                ),
                X,
                10,
            )
            for placement in (None, "skew")
        ]
        want, got = outs
        for g, w in zip(got.results, want.results):
            assert g.indices.tolist() == w.indices.tolist()
            assert g.values.tobytes() == w.values.tobytes()
        assert got.skipped_rows == want.skipped_rows > 0
        assert got.rescored_rows == want.rescored_rows


class TestOneFoldRule:
    """The query path walks every segment's sorted run, with no backend
    name or registry lookup: which backends exist changes nothing."""

    def test_the_fold_does_not_depend_on_the_optional_backend(
        self, base_matrix, monkeypatch
    ):
        import sys

        from repro.core import kernels
        from repro.core.kernels import base

        lookups = []
        real_resolve, real_init = base.resolve_backend, base.KernelRequest.__init__

        def spy_resolve(*args, **kwargs):
            lookups.append("resolve_backend")
            return real_resolve(*args, **kwargs)

        def spy_init(self, *args, **kwargs):
            lookups.append("KernelRequest")
            real_init(self, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and (
                getattr(module, "resolve_backend", None) is real_resolve
            ):
                monkeypatch.setattr(module, "resolve_backend", spy_resolve)
        monkeypatch.setattr(base.KernelRequest, "__init__", spy_init)
        served = []
        real_run = kernels.run_segmented

        def recording(*args, **kwargs):
            out = real_run(*args, **kwargs)
            served.append(out.segment_kernels)
            return out

        monkeypatch.setattr(kernels, "run_segmented", recording)
        X = sample_unit_queries(derive_rng(30), 3, 96)

        TopKSpmvEngine(compile_collection(base_matrix, DESIGN)).query_batch(X, 10)
        f32 = PAPER_DESIGNS["f32"]
        TopKSpmvEngine(compile_collection(base_matrix, f32)).query_batch(X, 10)
        mutated = SegmentedCollection.from_matrix(base_matrix, f32)
        mutated.ingest(_rows(50, 96, 31))
        mutated.seal()
        mutated.delete(list(range(0, 600, 5)))
        mutated.compact()
        mutated.ingest(_rows(20, 96, 32))
        engine = TopKSpmvEngine(mutated)
        engine.query_batch(X, 10)
        assert mutated.n_segments == 1
        assert mutated.segments[0].artifact.placement is None
        assert served == [
            ("streaming",),
            ("streaming",),
            ("streaming", "streaming"),
        ]
        assert lookups == []
        # The candidate path keeps its selection: it resolves the backend.
        TopKSpmvEngine(compile_collection(base_matrix, DESIGN)).query_candidates(X[0])
        assert "resolve_backend" in lookups

    @pytest.mark.parametrize("codec", ["20b", "f32"])
    @pytest.mark.parametrize("placement", [None, "skew"])
    @pytest.mark.parametrize("served", ["frozen", "segmented-with-delta"])
    def test_an_empty_query_block_answers_nothing(self, codec, placement, served):
        design = PAPER_DESIGNS[codec]
        matrix = synthetic_embeddings(
            n_rows=300, n_cols=32, avg_nnz=6, distribution="uniform", seed=4
        )
        collection = compile_collection(matrix, design, placement=placement)
        if served != "frozen":
            collection = SegmentedCollection.from_collection(collection)
            collection.ingest(_rows(20, 32, 5))
        out = TopKSpmvEngine(collection).query_batch(np.zeros((0, 32)), 5)
        assert out.topk == []


class TestQueryPathReadsPackets:
    """``query``/``query_batch`` decode each segment's sorted run straight
    from its packet streams: no stream plan is built and the plan cache
    stays empty on every engine and through every mutation.  Only the
    per-core candidate path fills it."""

    @staticmethod
    def _spy_plans(monkeypatch) -> list:
        import repro.core.collection as collection_mod
        import repro.core.dataflow as dataflow_mod
        from repro.core.collection import CompiledCollection

        calls = []
        real_plan, real_plans = dataflow_mod.plan_stream, CompiledCollection.stream_plans

        def plan_stream(stream):
            calls.append("plan_stream")
            return real_plan(stream)

        def stream_plans(self):
            calls.append("stream_plans")
            return real_plans(self)

        monkeypatch.setattr(dataflow_mod, "plan_stream", plan_stream)
        monkeypatch.setattr(collection_mod, "plan_stream", plan_stream)
        monkeypatch.setattr(CompiledCollection, "stream_plans", stream_plans)
        return calls

    @staticmethod
    def _serve(served, base_matrix, tmp_path):
        """An engine of kind ``served``, after its mutations; with every
        artifact it reads."""
        if served == "segmented":
            collection = SegmentedCollection.from_matrix(base_matrix, DESIGN)
            engine = TopKSpmvEngine(collection)
            X = sample_unit_queries(derive_rng(51), 3, 96)
            keys = engine.ingest(_rows(40, 96, 52))
            engine.query_batch(X, 10)
            engine.delete([int(keys[0]), 3, 7])
            engine.query(X[0], 10)
            engine.seal()
            engine.query_batch(X, 10)
            engine.compact()
            engine.ingest(_rows(10, 96, 53))  # a live delta
            engine.delete([int(keys[1])])
            artifacts = [s.artifact for s in collection.segments]
            return engine, artifacts + [collection.delta_segment().artifact]
        if served == "skew":
            matrix = zipf_embeddings(n_rows=600, n_cols=96, avg_nnz=8, seed=54)
            artifact = compile_collection(matrix, DESIGN, placement="skew")
        else:
            artifact = compile_collection(base_matrix, DESIGN)
        if served == "loaded":
            artifact.save(tmp_path / "artifact.npz")
            artifact = type(artifact).load(tmp_path / "artifact.npz")
        if served == "sharded":
            return ShardedEngine(artifact, n_shards=4), [artifact]
        if served == "full-board":
            return ShardedEngine(artifact, n_shards=2, cores_per_shard=8), [artifact]
        return TopKSpmvEngine(artifact), [artifact]

    @pytest.mark.parametrize(
        "served", ["fresh", "loaded", "skew", "sharded", "full-board", "segmented"]
    )
    def test_no_plan_is_built_to_answer(
        self, served, base_matrix, tmp_path, monkeypatch
    ):
        from repro.core.dataflow import simulate_multicore

        calls = self._spy_plans(monkeypatch)
        engine, artifacts = self._serve(served, base_matrix, tmp_path)
        X = sample_unit_queries(derive_rng(55), 4, 96)
        engine.query_batch(X, 10)
        engine.query(X[0], 10)
        assert calls == []
        assert all(a._plans is None for a in artifacts)
        if served in ("segmented", "full-board"):
            return
        # The candidate path still plans, and answers as the per-query oracle.
        candidates, stats = engine.query_candidates_batch(X)
        assert "stream_plans" in calls and artifacts[0]._plans is not None
        design = engine.design
        for x, got, got_stats in zip(design.quantize_query(X), candidates, stats):
            want, want_stats = simulate_multicore(
                engine.encoded, x, design.local_k, design.accumulate_dtype,
                row_map=engine.collection.row_map,
            )
            assert got_stats == want_stats
            for g, w in zip(got, want):
                assert g.indices.tolist() == w.indices.tolist()
                assert g.values.tobytes() == w.values.tobytes()

    @pytest.mark.parametrize("design", ["20b", "25b", "32b", "f32"])
    def test_the_run_holds_every_row_as_the_codec_quantises_it(self, design):
        from repro.core.kernels.segmented import _artifact_run

        matrix = zipf_embeddings(n_rows=300, n_cols=96, avg_nnz=8, seed=56)
        d = PAPER_DESIGNS[design]
        artifact = compile_collection(matrix, d, placement="skew")
        assert artifact.placement is not None
        acc = np.dtype(d.accumulate_dtype)
        run = _artifact_run(artifact, acc)
        assert sorted(run.ids.tolist()) == list(range(matrix.n_rows))
        assert np.all(np.diff(run.bounds) <= 0)
        for r, row in enumerate(run.ids):
            lanes = slice(run.indptr[r], run.indptr[r + 1])
            values = run.values[lanes].astype(acc)
            kept = values != 0.0  # placeholder and zero-quantised lanes
            idx, val = matrix.row(int(row))
            want = d.codec.quantize(val).astype(acc)
            nz = want != 0.0
            assert run.kept_idx[lanes][kept].tolist() == idx[nz].tolist()
            assert values[kept].tobytes() == want[nz].tobytes()


class TestDeltaBuffer:
    """The delta's live rows: its CSR blocks stacked, tombstones dropped."""

    @staticmethod
    def _buffer():
        from repro.core.segments import _DeltaBuffer
        from repro.formats.csr import CSRMatrix

        dense = _rows(5, 8, 57)
        buf = _DeltaBuffer(8)
        buf.append_block(CSRMatrix.from_dense(dense[:3]), np.array([10, 11, 12]))
        buf.append_block(CSRMatrix.from_dense(dense[3:]), np.array([13, 14]))
        return buf, dense

    def test_live_rows_stack_the_blocks_in_arrival_order(self):
        buf, dense = self._buffer()
        rows, keys = buf.live_rows()
        assert keys.tolist() == [10, 11, 12, 13, 14]
        assert np.array_equal(rows.to_dense(), dense)

    def test_live_rows_drop_tombstoned_rows(self):
        buf, dense = self._buffer()
        buf.tombstone(1)
        buf.tombstone(3)
        rows, keys = buf.live_rows()
        assert keys.tolist() == [10, 12, 14]
        assert np.array_equal(rows.to_dense(), dense[[0, 2, 4]])
        assert buf.n_live == 3

    def test_an_empty_buffer_has_no_rows(self):
        from repro.core.segments import _DeltaBuffer

        rows, keys = _DeltaBuffer(8).live_rows()
        assert rows.shape == (0, 8)
        assert keys.dtype == np.int64 and len(keys) == 0
