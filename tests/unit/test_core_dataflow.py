"""Unit tests for the Algorithm 1 dataflow simulation."""

import numpy as np
import pytest

from repro.arithmetic.codecs import ExactCodec, codec_for_design
from repro.core.dataflow import (
    DataflowCore,
    plan_stream,
    simulate_dataflow,
    simulate_multicore,
)
from repro.core.kernels.scratchpad import batch_scratchpads
from repro.core.reference import topk_from_scores
from repro.core.topk_tracker import TopKTracker
from repro.errors import ConfigurationError
from repro.formats.bscsr import BSCSRMatrix, encode_bscsr
from repro.formats.layout import solve_layout


def _encode(matrix, val_bits=64, codec=None, r=None):
    layout = solve_layout(matrix.n_cols, val_bits)
    return encode_bscsr(matrix, layout, codec or ExactCodec(), rows_per_packet=r)


class TestFunctionalCorrectness:
    def test_exact_codec_reproduces_golden_topk(self, small_matrix, query):
        stream = _encode(small_matrix)
        result, stats = simulate_dataflow(stream, query, local_k=8)
        golden = topk_from_scores(small_matrix.matvec(query), 8)
        assert set(result.indices.tolist()) == set(golden.indices.tolist())
        assert np.allclose(np.sort(result.values), np.sort(golden.values))

    def test_row_values_match_matvec(self, small_matrix, query):
        # With k = n_rows the tracker keeps everything: full y comparison.
        stream = _encode(small_matrix)
        result, _ = simulate_dataflow(stream, query, local_k=small_matrix.n_rows)
        y = small_matrix.matvec(query)
        recovered = np.zeros_like(y)
        recovered[result.indices] = result.values
        assert np.allclose(recovered, y)

    def test_empty_rows_handled(self, gamma_matrix, query):
        stream = _encode(gamma_matrix)
        result, stats = simulate_dataflow(stream, query, local_k=8)
        assert stats.rows_finished == gamma_matrix.n_rows
        golden = topk_from_scores(gamma_matrix.matvec(query), 8)
        assert set(result.indices.tolist()) == set(golden.indices.tolist())

    def test_quantised_values_drive_results(self, small_matrix, query):
        codec = codec_for_design(20, "fixed")
        stream = _encode(small_matrix, val_bits=20, codec=codec)
        result, _ = simulate_dataflow(stream, query, local_k=small_matrix.n_rows)
        quantised = small_matrix.with_data(codec.quantize(small_matrix.data))
        y = quantised.matvec(query)
        recovered = np.zeros_like(y)
        recovered[result.indices] = result.values
        assert np.allclose(recovered, y, atol=1e-12)

    def test_stats_counts(self, small_matrix, query):
        stream = _encode(small_matrix, val_bits=20, codec=codec_for_design(20, "fixed"), r=7)
        _, stats = simulate_dataflow(stream, query, local_k=8)
        assert stats.packets == stream.n_packets
        assert stats.rows_finished == small_matrix.n_rows
        assert stats.max_rows_in_packet <= 7


class TestReferenceVsFast:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("fixture", ["small_matrix", "gamma_matrix"])
    def test_bit_identical(self, request, fixture, query, dtype):
        matrix = request.getfixturevalue(fixture)
        stream = _encode(matrix, val_bits=20, codec=codec_for_design(20, "fixed"), r=7)
        core = DataflowCore(8, query, dtype)
        ref_result, ref_stats = core.run(stream)
        fast_result, fast_stats = core.run_fast(stream)
        assert np.array_equal(ref_result.indices, fast_result.indices)
        assert np.array_equal(ref_result.values, fast_result.values)
        assert ref_stats.packets == fast_stats.packets
        assert ref_stats.rows_finished == fast_stats.rows_finished
        assert ref_stats.tracker_accepts == fast_stats.tracker_accepts
        assert ref_stats.spanning_rows == fast_stats.spanning_rows

    def test_empty_stream(self):
        from repro.formats.csr import CSRMatrix

        empty = CSRMatrix(
            indptr=np.zeros(1, dtype=np.int64),
            indices=np.empty(0, dtype=np.int64),
            data=np.empty(0),
            n_cols=16,
        )
        stream = _encode(empty)
        core = DataflowCore(4, np.ones(16))
        for runner in (core.run, core.run_fast):
            result, stats = runner(stream)
            assert len(result) == 0
            assert stats.packets == 0


class TestValidation:
    def test_uram_too_small_rejected(self, small_matrix, query):
        stream = _encode(small_matrix)
        core = DataflowCore(8, query[:100])
        with pytest.raises(ConfigurationError):
            core.run(stream)

    def test_bad_accumulate_dtype_rejected(self, query):
        with pytest.raises(ConfigurationError):
            DataflowCore(8, query, np.int32)

    def test_3d_x_rejected(self):
        with pytest.raises(ConfigurationError):
            DataflowCore(8, np.ones((2, 4, 4)))

    def test_2d_x_rejected_by_single_query_paths(self, small_matrix):
        # A (Q, n_cols) block is valid construction (for run_fast_batch) but
        # the per-query paths must refuse it.
        stream = _encode(small_matrix)
        core = DataflowCore(8, np.ones((4, small_matrix.n_cols)))
        for runner in (core.run, core.run_fast):
            with pytest.raises(ConfigurationError):
                runner(stream)


def _scratchpads_vs_trackers(row_values, local_k):
    """Assert the batched scratchpads equal per-query sequential trackers."""
    row_values = np.asarray(row_values, dtype=np.float64)
    results, accepts = batch_scratchpads(row_values, local_k)
    row_ids = np.arange(row_values.shape[1], dtype=np.int64)
    assert len(results) == row_values.shape[0]
    for q in range(row_values.shape[0]):
        tracker = TopKTracker(local_k)
        want_accepts = sum(
            tracker.insert(int(r), float(v)) for r, v in zip(row_ids, row_values[q])
        )
        want = tracker.result()
        assert accepts[q] == want_accepts
        assert results[q].indices.tolist() == want.indices.tolist()
        assert results[q].values.tobytes() == want.values.tobytes()


class TestBatchScratchpadsEdges:
    """Non-finite fallback and small-partition edges of the batched pads."""

    def test_nan_rows_multi_query(self):
        # NaN in different positions per query: the sequential path must
        # reject them exactly as the tracker does (NaN fails every >=).
        row_values = np.array(
            [
                [0.5, np.nan, 0.25, 0.75, np.nan, 0.1],
                [np.nan, np.nan, 0.9, 0.2, 0.4, 0.4],
                [0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
            ]
        )
        _scratchpads_vs_trackers(row_values, local_k=2)

    def test_nan_during_fill_diverges_per_query(self):
        # Query 0 rejects a NaN while filling, query 1 fills normally:
        # per-query fill levels diverge and must still match the trackers.
        row_values = np.array(
            [
                [np.nan, 0.5, np.nan, 0.25, 0.125],
                [0.5, 0.25, 0.75, 0.1, 0.9],
            ]
        )
        _scratchpads_vs_trackers(row_values, local_k=3)

    def test_positive_and_negative_infinity(self):
        row_values = np.array(
            [
                [np.inf, 0.5, -np.inf, 0.25, np.inf],
                [-np.inf, -np.inf, 0.5, np.inf, 0.5],
            ]
        )
        _scratchpads_vs_trackers(row_values, local_k=2)

    def test_neg_inf_fill_reuses_the_first_slot(self):
        # An accepted −inf parks the argmin on its own slot, so the
        # sequential tracker keeps overwriting slot 0 instead of advancing
        # to the next free register — the vectorised fill shortcut (slots
        # 0..k-1 in row order) diverges and must not run.  Regression for
        # the NaN-only guard that kept a −inf entry the tracker drops.
        _scratchpads_vs_trackers([[-np.inf, -np.inf]], local_k=2)
        _scratchpads_vs_trackers([[-np.inf, -np.inf, 0.25]], local_k=2)

    def test_neg_inf_fill_multi_query(self):
        # −inf at different fill positions per query: slot layouts diverge
        # across queries, and a scratchpad that still holds a −inf entry at
        # the end must drop it exactly as its sequential tracker does.
        row_values = np.array(
            [
                [-np.inf, -np.inf, 0.25],
                [0.25, -np.inf, -np.inf],
                [0.1, 0.2, 0.3],
            ]
        )
        _scratchpads_vs_trackers(row_values, local_k=2)

    def test_all_nan_block(self):
        row_values = np.full((2, 6), np.nan)
        results, accepts = batch_scratchpads(row_values, local_k=3)
        assert accepts.tolist() == [0, 0]
        assert all(len(r) == 0 for r in results)

    def test_fewer_rows_than_k(self):
        row_values = np.array([[0.5, 0.25], [0.75, 0.75]])
        _scratchpads_vs_trackers(row_values, local_k=8)

    def test_zero_rows(self):
        results, accepts = batch_scratchpads(np.empty((3, 0)), local_k=4)
        assert accepts.tolist() == [0, 0, 0]
        assert all(len(r) == 0 for r in results)

    def test_heavy_ties_across_queries(self):
        row_values = np.array(
            [
                [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
                [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0],
            ]
        )
        _scratchpads_vs_trackers(row_values, local_k=3)

    def test_empty_partition_via_batch_path(self):
        # An encoded stream with zero rows: every kernel-facing entry point
        # must return empty results, not crash.
        from repro.formats.csr import CSRMatrix

        empty = CSRMatrix(
            indptr=np.zeros(1, dtype=np.int64),
            indices=np.empty(0, dtype=np.int64),
            data=np.empty(0),
            n_cols=16,
        )
        stream = _encode(empty)
        plan = plan_stream(stream)
        assert plan.n_rows == 0
        core = DataflowCore(4, np.ones((3, 16)))
        results, stats = core.run_fast_batch(stream, plan=plan)
        assert all(len(r) == 0 for r in results)
        assert all(s.tracker_accepts == 0 for s in stats)

    def test_nan_queries_through_batch_path(self, small_matrix):
        # A NaN query component creates NaN row values end to end; the
        # batched path must equal the sequential fast path bit for bit.
        stream = _encode(small_matrix)
        x = np.ones(small_matrix.n_cols)
        x[3] = np.nan
        queries = np.vstack([x, np.ones(small_matrix.n_cols)])
        batch_results, batch_stats = DataflowCore(4, queries).run_fast_batch(stream)
        for q in range(2):
            single, single_stats = DataflowCore(4, queries[q]).run_fast(stream)
            assert batch_results[q].indices.tolist() == single.indices.tolist()
            assert batch_results[q].values.tobytes() == single.values.tobytes()
            assert batch_stats[q] == single_stats

    def test_neg_inf_queries_through_batch_path(self, small_matrix):
        # A −inf query component creates −inf row values end to end: the
        # batched path must fall back to the sequential scratchpad (the
        # fill shortcut would keep −inf entries run_fast drops) and equal
        # the per-query fast path bit for bit.
        stream = _encode(small_matrix)
        x = np.ones(small_matrix.n_cols)
        x[3] = -np.inf
        queries = np.vstack([x, np.ones(small_matrix.n_cols)])
        batch_results, batch_stats = DataflowCore(4, queries).run_fast_batch(stream)
        for q in range(2):
            single, single_stats = DataflowCore(4, queries[q]).run_fast(stream)
            assert batch_results[q].indices.tolist() == single.indices.tolist()
            assert batch_results[q].values.tobytes() == single.values.tobytes()
            assert batch_stats[q] == single_stats


class TestMulticore:
    def test_candidates_cover_all_partitions(self, small_matrix, query):
        layout = solve_layout(small_matrix.n_cols, 64)
        encoded = BSCSRMatrix.encode(small_matrix, layout, ExactCodec(), n_partitions=8)
        results, stats = simulate_multicore(encoded, query, local_k=4)
        assert len(results) == 8
        assert stats.rows_finished == small_matrix.n_rows
        # Indices globalised: each partition's ids fall in its row range.
        for part_result, offset in zip(results, encoded.row_offsets):
            if len(part_result):
                assert part_result.indices.min() >= offset

    def test_float32_accumulation_differs_from_float64(self, small_matrix, query):
        # Sanity: the F32 model is actually float32 (values differ in ulps).
        stream = _encode(small_matrix, val_bits=32, codec=codec_for_design(32, "float"))
        r64, _ = simulate_dataflow(stream, query, 8, np.float64)
        r32, _ = simulate_dataflow(stream, query, 8, np.float32)
        assert not np.array_equal(r64.values, r32.values)
