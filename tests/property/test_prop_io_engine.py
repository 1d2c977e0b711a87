"""Property-based tests: persistence round-trips and engine invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arithmetic.codecs import codec_for_design
from repro.core.approx import merge_topk_candidates
from repro.core.engine import TopKSpmvEngine
from repro.data.synthetic import synthetic_embeddings
from repro.formats.bscsr import encode_bscsr
from repro.formats.io import load_stream, save_stream
from repro.formats.layout import solve_layout
from repro.hw.design import AcceleratorDesign
from repro.utils.rng import sample_unit_queries


class TestStreamPersistenceProperties:
    @given(
        seed=st.integers(0, 2**16),
        bits_arith=st.sampled_from([(20, "fixed"), (25, "fixed"), (20, "signed"), (32, "float")]),
        n_rows=st.integers(1, 300),
        avg_nnz=st.integers(1, 12),
    )
    @settings(max_examples=25, deadline=None)
    def test_save_load_identity(self, tmp_path_factory, seed, bits_arith, n_rows, avg_nnz):
        bits, arith = bits_arith
        matrix = synthetic_embeddings(
            n_rows, 128, avg_nnz, seed=seed,
            non_negative=(arith != "signed"), distribution="gamma",
        )
        codec = codec_for_design(bits, arith)
        stream = encode_bscsr(matrix, solve_layout(128, bits), codec)
        path = tmp_path_factory.mktemp("io") / "stream.npz"
        save_stream(path, stream)
        back = load_stream(path)
        assert np.array_equal(back.ptr, stream.ptr)
        assert np.array_equal(back.idx, stream.idx)
        assert np.array_equal(back.val_raw, stream.val_raw)
        assert np.array_equal(back.new_row, stream.new_row)
        assert back.codec.name == codec.name


class TestEngineProperties:
    @given(
        seed=st.integers(0, 2**16),
        cores=st.integers(1, 16),
        top_k=st.integers(1, 40),
    )
    @settings(max_examples=20, deadline=None)
    def test_engine_results_are_sorted_genuine_scores(self, seed, cores, top_k):
        matrix = synthetic_embeddings(400, 128, 8, seed=seed)
        design = AcceleratorDesign(
            name=f"p{cores}", value_bits=32, arithmetic="fixed",
            cores=cores, local_k=max(8, -(-top_k // cores)), max_columns=128,
        )
        engine = TopKSpmvEngine(matrix, design=design)
        x = sample_unit_queries(np.random.default_rng(seed), 1, 128)[0]
        result = engine.query(x, top_k=top_k).topk
        assert len(result) == min(top_k, matrix.n_rows)
        assert (np.diff(result.values) <= 0).all()
        # Every reported value is the quantised matrix's true dot product.
        quantised = matrix.with_data(engine.design.codec.quantize(matrix.data))
        scores = quantised.matvec(engine.design.quantize_query(x))
        assert np.allclose(scores[result.indices], result.values, atol=1e-9)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_global_top_local_k_always_retrieved(self, seed):
        """The approximation never loses the global top-k (Section III-A)."""
        matrix = synthetic_embeddings(600, 128, 8, seed=seed)
        design = AcceleratorDesign(
            name="g", value_bits=32, arithmetic="fixed",
            cores=8, local_k=8, max_columns=128,
        )
        engine = TopKSpmvEngine(matrix, design=design)
        x = sample_unit_queries(np.random.default_rng(seed), 1, 128)[0]
        approx = merge_topk_candidates(engine.query_candidates(x)[0], 64)
        quantised = matrix.with_data(engine.design.codec.quantize(matrix.data))
        scores = quantised.matvec(engine.design.quantize_query(x))
        best8 = set(np.argsort(-scores, kind="stable")[:8].tolist())
        assert best8 <= set(approx.indices.tolist())
