"""Integration tests: the full engine against the golden reference."""

import numpy as np
import pytest

from repro.core.approx import approximate_topk_spmv, merge_topk_candidates
from repro.core.engine import TopKSpmvEngine, as_csr_matrix
from repro.errors import CapacityError, ConfigurationError
from repro.hw.design import AcceleratorDesign, PAPER_DESIGNS


class TestEngineFunctional:
    @pytest.mark.parametrize("key", ["20b", "25b", "32b", "f32"])
    def test_high_precision_vs_exact(self, key, small_matrix, queries):
        engine = TopKSpmvEngine(small_matrix, design=PAPER_DESIGNS[key])
        hits = total = 0
        for x in queries:
            approx = engine.query(x, top_k=50).topk
            exact = engine.query_exact(x, top_k=50)
            hits += len(set(approx.indices.tolist()) & set(exact.indices.tolist()))
            total += 50
        assert hits / total >= 0.95

    def test_engine_equals_algorithmic_approximation_for_exact_codec(
        self, small_matrix, query
    ):
        """With a lossless codec the packet path's per-core candidates,
        merged, must equal the algorithmic partitioned approximation exactly
        (same candidates, same merge)."""
        design = AcceleratorDesign(
            name="exact64", value_bits=64, arithmetic="fixed", cores=8, local_k=8,
            max_columns=small_matrix.n_cols,
        )
        engine = TopKSpmvEngine(small_matrix, design=design)
        got = merge_topk_candidates(engine.query_candidates(query)[0], 40)
        # Quantising x at Q1.31 is the only difference; rebuild it.
        x_uram = design.quantize_query(query)
        expected = approximate_topk_spmv(
            small_matrix, x_uram, 40, n_partitions=8, local_k=8
        )
        assert got.indices.tolist() == expected.indices.tolist()
        assert np.allclose(got.values, expected.values)

    def test_candidates_then_merge_equals_query(self, small_matrix, query):
        """At K <= local_k every global top-K row survives its core's
        scratchpad, so the paper's merge is exact."""
        engine = TopKSpmvEngine(small_matrix, design=PAPER_DESIGNS["20b"])
        candidates, _ = engine.query_candidates(query)
        for top_k in range(1, engine.design.local_k + 1):
            direct = engine.query(query, top_k=top_k).topk
            merged = merge_topk_candidates(candidates, top_k)
            assert direct.indices.tolist() == merged.indices.tolist()
            assert direct.values.tobytes() == merged.values.tobytes()

    def test_gamma_matrix_with_empty_rows(self, gamma_matrix, query):
        engine = TopKSpmvEngine(gamma_matrix, design=PAPER_DESIGNS["20b"])
        result = engine.query(query, top_k=20)
        exact = engine.query_exact(query, top_k=20)
        overlap = len(set(result.topk.indices.tolist()) & set(exact.indices.tolist()))
        assert overlap >= 18

    def test_accepts_scipy_and_dense_inputs(self, small_matrix, query):
        from_scipy = TopKSpmvEngine(small_matrix.to_scipy(), design=PAPER_DESIGNS["20b"])
        result = from_scipy.query(query, top_k=5)
        assert len(result.topk) == 5
        dense = small_matrix.to_dense()[:200]
        from_dense = TopKSpmvEngine(dense, design=PAPER_DESIGNS["20b"])
        assert len(from_dense.query(query, top_k=5).topk) == 5

    def test_as_csr_matrix_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            as_csr_matrix("not a matrix")

    def test_wide_matrix_resolves_layout(self, rng):
        from repro.data.synthetic import synthetic_embeddings

        wide = synthetic_embeddings(500, 4096, 8, seed=3)
        engine = TopKSpmvEngine(wide, design=PAPER_DESIGNS["20b"])
        assert engine.design.layout.idx_bits == 12
        assert engine.design.layout.lanes < 15

    def test_top_k_has_no_k_times_c_cap(self, small_matrix, query):
        """The global fold serves any depth: K = k·c + 1 and K = n_rows
        return K rows ordered by (value desc, index asc)."""
        engine = TopKSpmvEngine(small_matrix, design=PAPER_DESIGNS["20b"])
        for top_k in (8 * 32 + 1, small_matrix.n_rows):
            got = engine.query(query, top_k=top_k).topk
            assert len(got) == top_k
            order = np.lexsort((got.indices, -got.values))
            assert order.tolist() == list(range(top_k))

    def test_uram_capacity_enforced(self):
        from repro.data.synthetic import synthetic_embeddings

        huge = synthetic_embeddings(50, 200_000, 4, seed=3)
        with pytest.raises(CapacityError):
            TopKSpmvEngine(huge, design=PAPER_DESIGNS["20b"])


class TestEngineReporting:
    def test_timing_and_power_populated(self, small_matrix, query):
        engine = TopKSpmvEngine(small_matrix, design=PAPER_DESIGNS["20b"])
        result = engine.query(query, top_k=10)
        assert result.latency_s > 0
        assert result.throughput_nnz_per_s > 0
        assert 30 < result.power_w < 50
        assert result.energy_j == pytest.approx(result.power_w * result.latency_s)

    def test_describe_mentions_shape(self, small_matrix):
        engine = TopKSpmvEngine(small_matrix, design=PAPER_DESIGNS["20b"])
        text = engine.describe()
        assert "2000 rows" in text
        assert "packets" in text

    def test_dataflow_stats_cover_matrix(self, small_matrix, query):
        engine = TopKSpmvEngine(small_matrix, design=PAPER_DESIGNS["20b"])
        result = engine.query(query, top_k=10)
        assert result.dataflow.rows_finished == small_matrix.n_rows
        assert result.dataflow.packets == engine.encoded.total_packets


class TestDesignComparisons:
    def test_quantisation_error_ordering(self, small_matrix, queries):
        """Coarser value formats give (weakly) worse score fidelity."""

        def max_error(key):
            engine = TopKSpmvEngine(small_matrix, design=PAPER_DESIGNS[key])
            err = 0.0
            for x in queries:
                approx = engine.query(x, top_k=10).topk
                exact_scores = small_matrix.matvec(x)
                err = max(err, float(np.abs(exact_scores[approx.indices] - approx.values).max()))
            return err

        assert max_error("20b") >= max_error("32b")

    def test_latency_ordering_matches_figure5(self, small_matrix):
        latencies = {}
        for key in ("20b", "25b", "32b", "f32"):
            engine = TopKSpmvEngine(small_matrix, design=PAPER_DESIGNS[key])
            latencies[key] = engine.timing.total_seconds
        assert latencies["20b"] <= latencies["25b"] <= latencies["32b"] <= latencies["f32"]
