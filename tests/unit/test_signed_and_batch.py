"""Unit tests for the signed-value extension and batched queries."""

import numpy as np
import pytest

from repro.arithmetic.codecs import OffsetBinaryCodec, codec_for_design
from repro.arithmetic.fixed_point import FixedPointFormat
from repro.core.engine import TopKSpmvEngine
from repro.data.synthetic import synthetic_embeddings
from repro.errors import ConfigurationError
from repro.formats.bscsr import decode_to_csr, encode_bscsr
from repro.formats.layout import solve_layout
from repro.hw.design import AcceleratorDesign, PAPER_DESIGNS


@pytest.fixture
def signed_matrix():
    return synthetic_embeddings(1500, 256, 12, seed=21, non_negative=False)


@pytest.fixture
def signed_design():
    return AcceleratorDesign(
        name="signed20 32C", value_bits=20, arithmetic="signed", max_columns=256
    )


class TestOffsetBinaryCodec:
    def test_requires_signed_format(self):
        with pytest.raises(ConfigurationError):
            OffsetBinaryCodec(FixedPointFormat(1, 18, signed=False))

    def test_codes_are_unsigned_and_bounded(self, rng):
        codec = codec_for_design(20, "signed")
        codes = codec.encode(rng.standard_normal(100))
        assert codes.dtype == np.uint64
        assert int(codes.max()) < 2**20

    def test_roundtrip_on_grid(self, rng):
        codec = codec_for_design(20, "signed")
        values = codec.quantize(rng.standard_normal(100))
        assert np.array_equal(codec.decode(codec.encode(values)), values)

    def test_zero_has_nonzero_code(self):
        codec = codec_for_design(20, "signed")
        assert int(codec.encode(np.zeros(1))[0]) != 0
        assert codec.decode(codec.encode(np.zeros(1)))[0] == 0.0

    def test_negative_values_survive(self):
        codec = codec_for_design(20, "signed")
        out = codec.quantize(np.array([-0.75, 0.25]))
        assert out[0] == -0.75
        assert out[1] == 0.25

    def test_too_few_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            codec_for_design(2, "signed")


class TestSignedFormatPath:
    def test_roundtrip_through_bscsr(self, signed_matrix):
        codec = codec_for_design(20, "signed")
        layout = solve_layout(256, 20)
        stream = encode_bscsr(signed_matrix, layout, codec, rows_per_packet=7)
        back = decode_to_csr(stream)
        quantised = codec.quantize(signed_matrix.data)
        keep = quantised != 0.0
        assert np.array_equal(back.data, quantised[keep])

    def test_wire_roundtrip(self, signed_matrix):
        codec = codec_for_design(20, "signed")
        layout = solve_layout(256, 20)
        stream = encode_bscsr(signed_matrix, layout, codec, rows_per_packet=7)
        from repro.formats.bscsr import BSCSRStream

        again = BSCSRStream.from_bytes(
            stream.to_bytes(), layout, codec,
            n_rows=stream.n_rows, n_cols=stream.n_cols, nnz=stream.nnz,
        )
        assert np.array_equal(again.val_raw, stream.val_raw)

    def test_engine_with_signed_design(self, signed_matrix, signed_design, rng):
        engine = TopKSpmvEngine(signed_matrix, design=signed_design)
        x = rng.standard_normal(256)
        x /= np.linalg.norm(x)
        result = engine.query(x, top_k=20)
        exact = engine.query_exact(x, top_k=20)
        overlap = len(set(result.topk.indices.tolist()) & set(exact.indices.tolist()))
        assert overlap >= 18

    def test_signed_clock_matches_fixed(self, signed_design):
        assert signed_design.resolved_clock_mhz == pytest.approx(247.0)

    def test_unsigned_design_clips_negative_values(self, signed_matrix, rng):
        """Sanity: feeding signed data to an unsigned design loses the
        negative mass — the reason the extension exists."""
        codec = codec_for_design(20, "fixed")
        assert (codec.quantize(signed_matrix.data) >= 0).all()


class TestBatchQueries:
    def test_batch_matches_single_queries(self, small_matrix, queries):
        engine = TopKSpmvEngine(small_matrix, design=PAPER_DESIGNS["20b"])
        batch = engine.query_batch(queries, top_k=10)
        assert len(batch) == len(queries)
        for x, got in zip(queries, batch.topk):
            single = engine.query(x, top_k=10).topk
            assert got.indices.tolist() == single.indices.tolist()

    def test_batch_amortises_host_overhead(self, small_matrix, queries):
        engine = TopKSpmvEngine(small_matrix, design=PAPER_DESIGNS["20b"])
        batch = engine.query_batch(queries, top_k=10)
        singles = len(queries) * engine.timing.total_seconds
        assert batch.seconds < singles

    def test_batch_shape_checked(self, small_matrix):
        engine = TopKSpmvEngine(small_matrix, design=PAPER_DESIGNS["20b"])
        with pytest.raises(ConfigurationError):
            engine.query_batch(np.ones((2, 3)), top_k=5)

    def test_batch_reports_rates(self, small_matrix, queries):
        engine = TopKSpmvEngine(small_matrix, design=PAPER_DESIGNS["20b"])
        batch = engine.query_batch(queries, top_k=10)
        assert batch.queries_per_second == pytest.approx(len(batch) / batch.seconds)
        assert batch.energy_j > 0

    def test_candidates_batch_returns_per_query_stats(self, small_matrix, queries):
        """The batched candidate sweep must not drop DataflowStats."""
        engine = TopKSpmvEngine(small_matrix, design=PAPER_DESIGNS["20b"])
        _, all_stats = engine.query_candidates_batch(queries)
        assert len(all_stats) == len(queries)
        for x, stats in zip(queries, all_stats):
            assert stats == engine.query_candidates(x)[1]
            assert stats.rows_finished == small_matrix.n_rows

    def test_batch_validates_top_k_once(self, small_matrix, queries):
        engine = TopKSpmvEngine(small_matrix, design=PAPER_DESIGNS["20b"])
        with pytest.raises(ConfigurationError):
            engine.query_batch(queries, top_k=0)

    def test_batch_float32_design_bit_identical(self, small_matrix, queries):
        engine = TopKSpmvEngine(small_matrix, design=PAPER_DESIGNS["f32"])
        batch = engine.query_batch(queries, top_k=10)
        for x, got in zip(queries, batch.topk):
            single = engine.query(x, top_k=10).topk
            assert got.indices.tolist() == single.indices.tolist()
            assert got.values.tobytes() == single.values.tobytes()

    def test_candidates_batch_matches_single(self, small_matrix, queries):
        engine = TopKSpmvEngine(small_matrix, design=PAPER_DESIGNS["20b"])
        all_candidates, all_stats = engine.query_candidates_batch(queries)
        assert len(all_candidates) == len(all_stats) == len(queries)
        for x, cands in zip(queries, all_candidates):
            single, _ = engine.query_candidates(x)
            assert len(cands) == len(single)
            for got, want in zip(cands, single):
                assert got.indices.tolist() == want.indices.tolist()
                assert got.values.tobytes() == want.values.tobytes()

    def test_stream_plans_cached(self, small_matrix, queries):
        engine = TopKSpmvEngine(small_matrix, design=PAPER_DESIGNS["20b"])
        # Lazy until the first candidate sweep (the query path never builds
        # them); the cache lives on the compiled artifact so every consumer
        # of the collection shares it.
        engine.query_batch(queries, top_k=10)
        assert engine.collection._plans is None
        engine.query_candidates_batch(queries)
        plans = engine.collection._plans
        assert plans is engine.collection.stream_plans()
        assert len(plans) == engine.encoded.n_partitions
