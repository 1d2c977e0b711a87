"""Unit tests for packing statistics and the fast packet counter."""

import numpy as np
import pytest

from repro.arithmetic.codecs import ExactCodec
from repro.data.synthetic import gamma_row_lengths, uniform_row_lengths
from repro.errors import ConfigurationError
from repro.formats.bscsr import encode_bscsr, encode_bscsr_reference
from repro.formats.csr import CSRMatrix
from repro.formats.layout import solve_layout
from repro.formats.stats import (
    count_packets,
    packing_stats,
    stats_from_row_lengths,
)


def _matrix_with_lengths(lengths, n_cols=64):
    rows = []
    for length in lengths:
        cols = np.arange(length) % n_cols
        rows.append((np.sort(np.unique(cols))[:length], np.ones(min(length, n_cols))))
    # Build rows with exactly `length` distinct columns when possible.
    rows = [
        (np.arange(min(length, n_cols)), np.full(min(length, n_cols), 0.5))
        for length in lengths
    ]
    return CSRMatrix.from_rows(rows, n_cols=n_cols)


class TestCountPackets:
    @pytest.mark.parametrize("dist", ["uniform", "gamma"])
    @pytest.mark.parametrize("r", [None, 2, 7])
    def test_counter_matches_encoder(self, dist, r):
        rng = np.random.default_rng(5)
        if dist == "uniform":
            lengths = uniform_row_lengths(400, 10, rng)
        else:
            lengths = gamma_row_lengths(400, 6, rng)
        lengths = np.minimum(lengths, 64)
        matrix = _matrix_with_lengths(lengths)
        layout = solve_layout(64, 32, lanes=9)
        stream = encode_bscsr_reference(matrix, layout, ExactCodec(), rows_per_packet=r)
        n, placeholders, padding = count_packets(matrix.row_lengths(), 9, r)
        assert n == stream.n_packets
        assert placeholders == int((matrix.row_lengths() == 0).sum())
        assert padding == packing_stats(stream).padding_lanes

    def test_dense_stream_has_no_padding(self):
        n, placeholders, padding = count_packets(np.full(10, 15), 15, None)
        assert (n, placeholders, padding) == (10, 0, 0)

    def test_final_packet_padding_counted(self):
        n, _, padding = count_packets(np.array([7]), 5, None)
        assert n == 2
        assert padding == 3

    def test_rows_per_packet_budget_adds_packets(self):
        lengths = np.ones(10, dtype=np.int64)
        n_unbounded, _, _ = count_packets(lengths, 10, None)
        n_budget, _, pad = count_packets(lengths, 10, 2)
        assert n_unbounded == 1
        assert n_budget == 5
        assert pad == 40

    def test_empty_input(self):
        assert count_packets(np.array([], dtype=np.int64), 15, None) == (0, 0, 0)

    def test_negative_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            count_packets(np.array([-1]), 15, None)

    def test_bad_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            count_packets(np.array([1]), 15, 16)


class TestPackingStats:
    def test_stats_from_encoded_stream(self, small_matrix):
        layout = solve_layout(small_matrix.n_cols, 64)
        stream = encode_bscsr(small_matrix, layout, ExactCodec())
        stats = packing_stats(stream)
        assert stats.nnz == small_matrix.nnz
        assert stats.n_packets == stream.n_packets
        assert stats.bytes_streamed == stream.n_bytes
        assert 0.9 < stats.fill_fraction <= 1.0

    def test_stats_identity(self, small_matrix):
        layout = solve_layout(small_matrix.n_cols, 64)
        stream = encode_bscsr(small_matrix, layout, ExactCodec())
        stats = packing_stats(stream)
        total = stats.nnz + stats.placeholders + stats.padding_lanes
        assert total == stats.total_lanes

    def test_operational_intensity(self):
        rng = np.random.default_rng(8)
        lengths = uniform_row_lengths(1000, 20, rng)
        layout = solve_layout(1024, 20)
        stats = stats_from_row_lengths(lengths, layout, rows_per_packet=7)
        # Near-dense packing: OI close to 15/64.
        assert stats.operational_intensity == pytest.approx(15 / 64, rel=0.01)

    def test_zero_matrix_stats(self):
        layout = solve_layout(1024, 20)
        stats = stats_from_row_lengths(np.array([], dtype=np.int64), layout)
        assert stats.n_packets == 0
        assert stats.operational_intensity == 0.0
        assert stats.nnz_per_packet == 0.0
