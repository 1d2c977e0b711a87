"""Compile → save → load → serve: the artifact round-trip is bit-exact.

A collection compiled once and reloaded in a fresh process must serve
queries bit-identical to an engine built directly from the matrix — same
indices, same float bits, same DataflowStats — with the build pipeline never
invoked on the load path.  Corrupted files and mismatched headers must fail
loudly instead of serving wrong results.
"""

import json
import zipfile

import numpy as np
import pytest

import repro.formats.bscsr as bscsr_mod
from repro import CompiledCollection, PAPER_DESIGNS, TopKSpmvEngine, compile_collection
from repro.core.collection import COLLECTION_KIND
from repro.data.synthetic import synthetic_embeddings
from repro.errors import FormatError
from repro.formats.io import artifact_digest
from repro.serving.sharded import ShardedEngine
from repro.utils.rng import sample_unit_queries


@pytest.fixture(scope="module")
def matrix():
    return synthetic_embeddings(n_rows=2500, n_cols=256, avg_nnz=12, seed=11)


@pytest.fixture(scope="module")
def queries():
    return sample_unit_queries(np.random.default_rng(5), 12, 256)


@pytest.fixture(scope="module")
def saved_path(matrix, tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts") / "collection.npz"
    compile_collection(matrix, PAPER_DESIGNS["20b"]).save(path)
    return path


class TestRoundTrip:
    def test_load_never_encodes(self, saved_path, monkeypatch):
        """The load path is pure I/O: any encoder invocation is a bug."""
        def _boom(*args, **kwargs):
            raise AssertionError("encode_bscsr invoked on the load path")

        monkeypatch.setattr(bscsr_mod, "encode_bscsr", _boom)
        monkeypatch.setattr(bscsr_mod, "encode_bscsr_reference", _boom)
        monkeypatch.setattr(bscsr_mod.BSCSRMatrix, "encode", _boom)
        loaded = CompiledCollection.load(saved_path)
        assert loaded.n_partitions == 32
        # Engines attach to the artifact without touching the encoder either.
        TopKSpmvEngine.from_collection(loaded)
        ShardedEngine(loaded, n_shards=4)

    def test_loaded_streams_are_views_of_stored_buffers(self, saved_path):
        """Zero-copy: per-partition arrays alias the stacked load buffers."""
        loaded = CompiledCollection.load(saved_path)
        streams = loaded.encoded.streams
        bases = {id(s.ptr.base) for s in streams if s.ptr.base is not None}
        # All non-empty partitions slice the same stacked ptr buffer.
        assert len(bases) == 1

    def test_query_bit_identical_to_direct_build(self, matrix, queries, saved_path):
        direct = TopKSpmvEngine(matrix, PAPER_DESIGNS["20b"])
        loaded = TopKSpmvEngine.from_collection(CompiledCollection.load(saved_path))
        for x in queries:
            a = direct.query(x, top_k=10)
            b = loaded.query(x, top_k=10)
            assert a.topk.indices.tolist() == b.topk.indices.tolist()
            assert a.topk.values.tobytes() == b.topk.values.tobytes()
            # The candidate path's counters come from the loaded plans.
            assert direct.query_candidates(x)[1] == loaded.query_candidates(x)[1]

    def test_query_batch_bit_identical_to_direct_build(self, matrix, queries, saved_path):
        direct = TopKSpmvEngine(matrix, PAPER_DESIGNS["20b"])
        loaded = TopKSpmvEngine.from_collection(CompiledCollection.load(saved_path))
        batch_a = direct.query_batch(queries, top_k=10)
        batch_b = loaded.query_batch(queries, top_k=10)
        for ra, rb in zip(batch_a.topk, batch_b.topk):
            assert ra.indices.tolist() == rb.indices.tolist()
            assert ra.values.tobytes() == rb.values.tobytes()

    def test_sharded_serving_from_loaded_artifact(self, matrix, queries, saved_path):
        fleet_direct = ShardedEngine(matrix, n_shards=4, design=PAPER_DESIGNS["20b"])
        fleet_loaded = ShardedEngine(CompiledCollection.load(saved_path), n_shards=4)
        for x in queries[:4]:
            a = fleet_direct.query(x, top_k=10)
            b = fleet_loaded.query(x, top_k=10)
            assert a.topk.indices.tolist() == b.topk.indices.tolist()
            assert a.topk.values.tobytes() == b.topk.values.tobytes()

    def test_digest_survives_round_trip(self, matrix, saved_path):
        compiled = compile_collection(matrix, PAPER_DESIGNS["20b"])
        loaded = CompiledCollection.load(saved_path)
        assert loaded.digest == compiled.digest

    def test_save_path_is_taken_verbatim(self, matrix, tmp_path):
        """No hidden '.npz' suffix: the artifact lands exactly where asked."""
        path = tmp_path / "collection.artifact"
        compiled = compile_collection(matrix, PAPER_DESIGNS["20b"])
        compiled.save(path)
        assert path.exists()
        assert not (tmp_path / "collection.artifact.npz").exists()
        assert CompiledCollection.load(path).digest == compiled.digest

    def test_original_matrix_round_trips_exactly(self, matrix, saved_path):
        loaded = CompiledCollection.load(saved_path)
        assert loaded.matrix.data.tobytes() == matrix.data.tobytes()
        assert np.array_equal(loaded.matrix.indices, matrix.indices)
        assert np.array_equal(loaded.matrix.indptr, matrix.indptr)


def _save_version_2(compiled, path):
    """Write ``compiled`` the way older builds did: a version-2 container
    whose float64 contraction operand rides along as ``aux`` members."""
    operand = compiled.contraction_operand()
    aux = {
        "op_data": operand.data,
        "op_indices": operand.indices,
        "op_indptr": operand.indptr,
    }
    header = {
        "version": 2,
        "kind": COLLECTION_KIND,
        "digest": artifact_digest(compiled._payload_arrays()),
        **compiled._header(),
        "operand": {
            "value_grid_bits": operand.value_grid_bits,
            "max_abs_row_raw": operand.max_abs_row_raw,
        },
        "aux": sorted(aux),
        "aux_digest": artifact_digest(aux),
    }
    with open(path, "wb") as handle:
        np.savez(
            handle,
            header=np.array(json.dumps(header)),
            **compiled._payload_arrays(),
            **aux,
        )
    return path


def _same_topk(got, want):
    for g, w in zip(got, want):
        assert g.indices.tolist() == w.indices.tolist()
        assert g.values.tobytes() == w.values.tobytes()


class TestOperandPersistence:
    """The contraction operand is a cache: never stored, lowered on use."""

    def test_operand_is_lowered_lazily_after_load(self, matrix, saved_path):
        compiled = compile_collection(matrix, PAPER_DESIGNS["20b"])
        loaded = CompiledCollection.load(saved_path)
        assert loaded._operand is None
        assert loaded.digest == compiled.digest
        rebuilt = loaded.contraction_operand()
        assert rebuilt.data.tobytes() == compiled.contraction_operand().data.tobytes()

    def test_operand_does_not_change_the_digest(self, matrix, saved_path):
        """The digest covers the content only: identity is stable."""
        compiled = compile_collection(matrix, PAPER_DESIGNS["20b"])
        compiled.contraction_operand()
        assert compiled.digest == artifact_digest(compiled._payload_arrays())
        assert CompiledCollection.load(saved_path).digest == compiled.digest

    def test_gateless_designs_persist_no_operand(self, matrix, tmp_path):
        path = tmp_path / "f32.npz"
        compile_collection(matrix, PAPER_DESIGNS["f32"]).save(path)
        with np.load(path, allow_pickle=False) as archive:
            names = set(archive.files)
            header = json.loads(str(archive["header"]))
        assert "op_data" not in names
        assert header["version"] == 1
        loaded = CompiledCollection.load(path)
        assert loaded._operand is None
        assert loaded.contraction_operand().value_grid_bits is None

    def test_gated_artifacts_are_version_1_without_operand(self, matrix, tmp_path):
        compiled = compile_collection(matrix, PAPER_DESIGNS["20b"])
        path = tmp_path / "20b.npz"
        compiled.save(path)
        assert compiled._operand is None  # saving lowers nothing
        with np.load(path, allow_pickle=False) as archive:
            names = set(archive.files)
            header = json.loads(str(archive["header"]))
        assert header["version"] == 1
        assert not any(name.startswith("op_") for name in names)
        assert "aux" not in header and "operand" not in header

    def test_contraction_serving_from_loaded_artifact(self, matrix, queries, saved_path):
        direct = TopKSpmvEngine(matrix, PAPER_DESIGNS["20b"])
        loaded = TopKSpmvEngine.from_collection(CompiledCollection.load(saved_path))
        batch_a = direct.query_batch(queries, top_k=10)
        batch_b = loaded.query_batch(queries, top_k=10)
        _same_topk(batch_b.topk, batch_a.topk)


class TestVersion2Artifacts:
    """Artifacts older builds saved, operand included, load as content.

    Those builds stored an operand for every design with a fixed value
    grid, so each such design is checked."""

    @pytest.fixture(scope="class", params=["20b", "25b", "32b"])
    def design(self, request):
        return PAPER_DESIGNS[request.param]

    @pytest.fixture(scope="class")
    def v2_path(self, matrix, design, tmp_path_factory):
        compiled = compile_collection(matrix, design)
        return _save_version_2(
            compiled, tmp_path_factory.mktemp("legacy") / "v2.npz"
        )

    def test_loads_as_content_and_serves_the_same_bits(
        self, matrix, design, queries, v2_path
    ):
        compiled = compile_collection(matrix, design)
        loaded = CompiledCollection.load(v2_path)
        assert loaded.digest == compiled.digest
        assert loaded._operand is None
        got = TopKSpmvEngine.from_collection(loaded).query_batch(queries, top_k=10)
        want = TopKSpmvEngine.from_collection(compiled).query_batch(queries, top_k=10)
        _same_topk(got.topk, want.topk)
        assert loaded._operand is None

    def test_candidates_lower_the_operand_lazily(
        self, matrix, design, queries, v2_path
    ):
        compiled = compile_collection(matrix, design)
        loaded = CompiledCollection.load(v2_path)
        assert loaded._operand is None
        got, got_stats = TopKSpmvEngine.from_collection(
            loaded
        ).query_candidates_batch(queries)
        want, want_stats = TopKSpmvEngine.from_collection(
            compiled
        ).query_candidates_batch(queries)
        assert loaded._operand is not None
        assert got_stats == want_stats
        for gq, wq in zip(got, want):
            _same_topk(gq, wq)

    def test_segmented_load_adopts_it(self, matrix, design, queries, v2_path):
        from repro.core.segments import SegmentedCollection

        compiled = compile_collection(matrix, design)
        wrapped = SegmentedCollection.load(v2_path)
        assert wrapped.n_segments == 1
        assert wrapped.segments[0].digest == compiled.digest
        assert wrapped.segments[0].artifact._operand is None
        got = TopKSpmvEngine(wrapped).query_batch(queries, top_k=10)
        want = TopKSpmvEngine.from_collection(compiled).query_batch(queries, top_k=10)
        _same_topk(got.topk, want.topk)

    def test_resave_writes_version_1_bit_identically(
        self, matrix, design, v2_path, tmp_path
    ):
        fresh = tmp_path / "fresh.npz"
        compile_collection(matrix, design).save(fresh)
        resaved = tmp_path / "resaved.npz"
        CompiledCollection.load(v2_path).save(resaved)
        with np.load(resaved, allow_pickle=False) as archive:
            header = json.loads(str(archive["header"]))
            names = set(archive.files)
        assert header["version"] == 1
        assert not any(name.startswith("op_") for name in names)
        assert resaved.read_bytes() == fresh.read_bytes()


class TestSegmentedAdoption:
    """A 1-segment SegmentedCollection adopts a plain collection artifact
    unchanged — same digest, no migration."""

    def test_plain_artifact_adopts_identity_preserving(self, matrix, saved_path):
        from repro.core.segments import SegmentedCollection

        compiled = CompiledCollection.load(saved_path)
        wrapped = SegmentedCollection.load(saved_path)
        assert wrapped.n_segments == 1
        assert wrapped.generation == 0
        # The adopted artifact keeps its digest (the collection's own
        # digest is namespaced so frozen/segmented caches never collide).
        assert wrapped.segments[0].digest == compiled.digest
        # No lowering on the adoption path.
        assert wrapped.segments[0].artifact._operand is None

    def test_adopted_artifact_resaves_bit_identically(
        self, saved_path, tmp_path
    ):
        from repro.core.segments import SegmentedCollection

        wrapped = SegmentedCollection.load(saved_path)
        resaved = tmp_path / "resaved.npz"
        wrapped.segments[0].artifact.save(resaved)
        assert resaved.read_bytes() == saved_path.read_bytes()

    def test_adopted_collection_serves_and_mutates(
        self, matrix, queries, saved_path
    ):
        from repro.core.segments import SegmentedCollection

        wrapped = SegmentedCollection.load(saved_path)
        engine = TopKSpmvEngine(wrapped)
        before = engine.query_batch(queries, top_k=10)
        keys = engine.ingest(np.abs(np.random.default_rng(9).standard_normal((5, 256))))
        assert keys.tolist() == list(range(2500, 2505))
        after = engine.query_batch(queries, top_k=10)
        assert len(after.topk[0]) == 10
        assert wrapped.generation == 1
        assert len(before.topk[0]) == 10


class TestLoadFailures:
    def _resave_with(self, src, dst, *, header=None, drop=None, corrupt=None):
        """Rewrite an artifact with a tampered header / missing / bit-flipped entry."""
        with np.load(src, allow_pickle=False) as archive:
            entries = {name: archive[name] for name in archive.files}
        if header is not None:
            stored = json.loads(str(entries["header"]))
            stored.update(header)
            entries["header"] = np.array(json.dumps(stored))
        if drop is not None:
            del entries[drop]
        if corrupt is not None:
            arr = entries[corrupt].copy()
            flat = arr.reshape(-1)
            flat[0] = flat[0] ^ 1 if arr.dtype.kind in "iu" else not flat[0]
            entries[corrupt] = arr
        np.savez(dst, **entries)
        return dst

    def test_not_an_artifact(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, something=np.arange(3))
        with pytest.raises(FormatError, match="no artifact header"):
            CompiledCollection.load(path)

    def test_wrong_kind_rejected(self, saved_path, tmp_path):
        bad = self._resave_with(
            saved_path, tmp_path / "wrong-kind.npz", header={"kind": "bscsr-matrix"}
        )
        with pytest.raises(FormatError, match="expected 'compiled-collection'"):
            CompiledCollection.load(bad)

    def test_wrong_version_rejected(self, saved_path, tmp_path):
        bad = self._resave_with(
            saved_path, tmp_path / "wrong-version.npz", header={"version": 999}
        )
        with pytest.raises(FormatError, match="version"):
            CompiledCollection.load(bad)

    def test_corrupted_packet_buffer_rejected(self, saved_path, tmp_path):
        bad = self._resave_with(
            saved_path, tmp_path / "corrupt.npz", corrupt="val_raw"
        )
        with pytest.raises(FormatError, match="digest"):
            CompiledCollection.load(bad)

    def test_missing_buffer_rejected(self, saved_path, tmp_path):
        bad = self._resave_with(saved_path, tmp_path / "missing.npz", drop="ptr")
        with pytest.raises(FormatError):
            CompiledCollection.load(bad)

    def test_incomplete_header_rejected(self, saved_path, tmp_path):
        """Missing header keys surface as FormatError, never raw KeyError."""
        with np.load(saved_path, allow_pickle=False) as archive:
            stored = json.loads(str(archive["header"]))
        for key in ("rows_per_packet", "n_cols", "design", "n_partitions"):
            pruned = {k: v for k, v in stored.items() if k != key}
            bad = tmp_path / f"no-{key}.npz"
            with np.load(saved_path, allow_pickle=False) as archive:
                entries = {name: archive[name] for name in archive.files}
            entries["header"] = np.array(json.dumps(pruned))
            np.savez(bad, **entries)
            with pytest.raises(FormatError):
                CompiledCollection.load(bad)

    def test_header_codec_mismatch_rejected(self, saved_path, tmp_path):
        bad = self._resave_with(
            saved_path, tmp_path / "codec-mismatch.npz", header={"codec": "fixed25"}
        )
        with pytest.raises(FormatError, match="codec"):
            CompiledCollection.load(bad, verify=False)

    def test_header_layout_mismatch_rejected(self, saved_path, tmp_path):
        with np.load(saved_path, allow_pickle=False) as archive:
            stored = json.loads(str(archive["header"]))
        tampered_layout = dict(stored["layout"], lanes=stored["layout"]["lanes"] - 1)
        bad = self._resave_with(
            saved_path, tmp_path / "layout-mismatch.npz",
            header={"layout": tampered_layout},
        )
        with pytest.raises(FormatError, match="layout"):
            CompiledCollection.load(bad, verify=False)

    def test_truncated_zip_rejected(self, saved_path, tmp_path):
        bad = tmp_path / "truncated.npz"
        data = saved_path.read_bytes()
        bad.write_bytes(data[: len(data) // 2])
        with pytest.raises((FormatError, zipfile.BadZipFile, OSError, ValueError, KeyError)):
            CompiledCollection.load(bad)
