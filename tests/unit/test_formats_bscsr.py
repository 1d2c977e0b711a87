"""Unit tests for the BS-CSR encoder/decoder and wire format."""

import numpy as np
import pytest

from repro.arithmetic.codecs import ExactCodec, codec_for_design
from repro.errors import ConfigurationError, PacketDecodeError
from repro.formats.bscsr import (
    BSCSRMatrix,
    BSCSRStream,
    decode_lanes,
    decode_to_csr,
    encode_bscsr,
    validate_stream,
)
from repro.formats.csr import CSRMatrix
from repro.formats.layout import solve_layout

LAYOUT_20B = solve_layout(1024, 20)
EXACT_LAYOUT = solve_layout(256, 64)


def _csr(rows, n_cols=8):
    """Build CSR from a list of per-row [(col, val), ...] lists."""
    return CSRMatrix.from_rows(
        [
            (np.array([c for c, _ in row], dtype=np.int64),
             np.array([v for _, v in row], dtype=np.float64))
            for row in rows
        ],
        n_cols=n_cols,
    )


class TestEncoderStructure:
    def test_single_dense_packet(self):
        layout = solve_layout(8, 64, lanes=4)
        m = _csr([[(0, 1.0), (1, 2.0)], [(2, 3.0), (3, 4.0)]])
        stream = encode_bscsr(m, layout, ExactCodec())
        assert stream.n_packets == 1
        assert stream.new_row[0]
        assert stream.ptr[0].tolist() == [2, 4, 0, 0]

    def test_row_spanning_packets_sets_new_row_false(self):
        layout = solve_layout(8, 64, lanes=4)
        m = _csr([[(i, float(i + 1)) for i in range(6)]])
        stream = encode_bscsr(m, layout, ExactCodec())
        assert stream.n_packets == 2
        assert stream.new_row.tolist() == [True, False]
        assert stream.ptr[0].tolist() == [0, 0, 0, 0]  # row does not end here
        assert stream.ptr[1].tolist() == [2, 0, 0, 0]

    def test_row_ending_exactly_at_boundary(self):
        layout = solve_layout(8, 64, lanes=4)
        m = _csr([[(i, 1.0) for i in range(4)], [(0, 2.0)]])
        stream = encode_bscsr(m, layout, ExactCodec())
        assert stream.n_packets == 2
        assert stream.ptr[0].tolist() == [4, 0, 0, 0]
        assert stream.new_row.tolist() == [True, True]

    def test_empty_row_gets_placeholder_lane(self):
        layout = solve_layout(8, 64, lanes=4)
        m = _csr([[(0, 1.0)], [], [(1, 2.0)]])
        stream = encode_bscsr(m, layout, ExactCodec())
        assert stream.n_packets == 1
        assert stream.ptr[0].tolist() == [1, 2, 3, 0]
        assert stream.val_raw[0, 1] == 0  # the placeholder

    def test_all_empty_rows(self):
        layout = solve_layout(8, 64, lanes=4)
        m = _csr([[], [], [], [], []])
        stream = encode_bscsr(m, layout, ExactCodec())
        assert stream.n_packets == 2  # 5 placeholders, 4 lanes per packet
        assert stream.nnz == 0

    def test_rows_per_packet_budget_forces_split(self):
        layout = solve_layout(8, 64, lanes=4)
        m = _csr([[(0, 1.0)], [(1, 2.0)], [(2, 3.0)], [(3, 4.0)]])
        stream = encode_bscsr(m, layout, ExactCodec(), rows_per_packet=2)
        assert stream.n_packets == 2
        assert (stream.ptr > 0).sum(axis=1).max() <= 2

    def test_budget_split_mid_row_keeps_continuation(self):
        layout = solve_layout(8, 64, lanes=4)
        # Row 2 starts in packet 0 (after two 1-nnz rows exhaust r=2) but
        # can only *end* in a later packet.
        m = _csr([[(0, 1.0)], [(1, 2.0)], [(2, 3.0), (3, 4.0), (4, 5.0)]])
        stream = encode_bscsr(m, layout, ExactCodec(), rows_per_packet=2)
        assert stream.n_packets == 2
        assert not stream.new_row[1]

    def test_empty_matrix_produces_no_packets(self):
        m = _csr([])
        stream = encode_bscsr(m, EXACT_LAYOUT, ExactCodec())
        assert stream.n_packets == 0
        assert stream.n_bytes == 0

    def test_index_width_checked(self):
        m = _csr([[(0, 1.0)]], n_cols=4096)
        with pytest.raises(ConfigurationError):
            encode_bscsr(m, LAYOUT_20B, codec_for_design(20, "fixed"))

    def test_rows_per_packet_bounds_checked(self):
        m = _csr([[(0, 1.0)]])
        with pytest.raises(ConfigurationError):
            encode_bscsr(m, EXACT_LAYOUT, ExactCodec(), rows_per_packet=0)


class TestRoundTrip:
    def test_exact_roundtrip(self, small_matrix):
        layout = solve_layout(small_matrix.n_cols, 64)
        stream = encode_bscsr(small_matrix, layout, ExactCodec())
        back = decode_to_csr(stream)
        assert np.array_equal(back.indptr, small_matrix.indptr)
        assert np.array_equal(back.indices, small_matrix.indices)
        assert np.array_equal(back.data, small_matrix.data)

    def test_roundtrip_with_empty_rows(self, gamma_matrix):
        layout = solve_layout(gamma_matrix.n_cols, 64)
        stream = encode_bscsr(gamma_matrix, layout, ExactCodec())
        back = decode_to_csr(stream)
        assert np.array_equal(back.indptr, gamma_matrix.indptr)
        assert np.array_equal(back.data, gamma_matrix.data)

    def test_quantised_roundtrip_matches_codec(self, small_matrix):
        codec = codec_for_design(20, "fixed")
        layout = solve_layout(small_matrix.n_cols, 20)
        stream = encode_bscsr(small_matrix, layout, codec)
        back = decode_to_csr(stream)
        expected = codec.quantize(small_matrix.data)
        keep = expected != 0.0  # zero-quantised entries are dropped
        assert np.array_equal(back.data, expected[keep])

    def test_spmv_equivalence_through_format(self, small_matrix, query):
        layout = solve_layout(small_matrix.n_cols, 64)
        stream = encode_bscsr(small_matrix, layout, ExactCodec())
        assert np.allclose(
            decode_to_csr(stream).matvec(query), small_matrix.matvec(query)
        )


class TestWireFormat:
    def test_bit_exact_roundtrip_fixed20(self, small_matrix):
        codec = codec_for_design(20, "fixed")
        layout = solve_layout(1024, 20)
        stream = encode_bscsr(small_matrix, layout, codec, rows_per_packet=7)
        wire = stream.to_bytes()
        assert len(wire) == stream.n_packets * 64
        again = BSCSRStream.from_bytes(
            wire, layout, codec,
            n_rows=stream.n_rows, n_cols=stream.n_cols,
            nnz=stream.nnz, rows_per_packet=7,
        )
        assert np.array_equal(again.ptr, stream.ptr)
        assert np.array_equal(again.idx, stream.idx)
        assert np.array_equal(again.val_raw, stream.val_raw)
        assert np.array_equal(again.new_row, stream.new_row)

    def test_bit_exact_roundtrip_float32(self, small_matrix):
        codec = codec_for_design(32, "float")
        layout = solve_layout(1024, 32)
        stream = encode_bscsr(small_matrix, layout, codec)
        again = BSCSRStream.from_bytes(
            stream.to_bytes(), layout, codec,
            n_rows=stream.n_rows, n_cols=stream.n_cols, nnz=stream.nnz,
        )
        assert np.array_equal(again.values(), stream.values())

    def test_codec_layout_width_mismatch_rejected(self, small_matrix):
        # A 20-bit layout cannot serialise the 64-bit exact codec's codes.
        layout = solve_layout(small_matrix.n_cols, 20)
        stream = encode_bscsr(small_matrix, layout, ExactCodec())
        with pytest.raises(ConfigurationError):
            stream.to_bytes()

    def test_truncated_wire_rejected(self, small_matrix):
        codec = codec_for_design(20, "fixed")
        layout = solve_layout(1024, 20)
        stream = encode_bscsr(small_matrix, layout, codec)
        with pytest.raises(PacketDecodeError):
            BSCSRStream.from_bytes(
                stream.to_bytes()[:-1], layout, codec,
                n_rows=stream.n_rows, n_cols=stream.n_cols,
            )


class TestValidation:
    def _stream(self):
        m = _csr([[(0, 1.0), (1, 2.0)], [(2, 3.0)]])
        return encode_bscsr(m, solve_layout(8, 64, lanes=4), ExactCodec())

    def test_valid_stream_passes(self):
        validate_stream(self._stream())

    def test_corrupt_ptr_monotonicity_detected(self):
        stream = self._stream()
        stream.ptr[0, 0], stream.ptr[0, 1] = stream.ptr[0, 1], stream.ptr[0, 0]
        with pytest.raises(PacketDecodeError):
            validate_stream(stream)

    def test_row_count_mismatch_detected(self):
        stream = self._stream()
        stream.n_rows += 1
        with pytest.raises(PacketDecodeError):
            validate_stream(stream)

    def test_first_packet_must_start_row(self):
        stream = self._stream()
        stream.new_row[0] = False
        with pytest.raises(PacketDecodeError):
            validate_stream(stream)

    def test_row_budget_violation_detected(self):
        stream = self._stream()
        stream.rows_per_packet = 1
        with pytest.raises(PacketDecodeError):
            validate_stream(stream)

    def test_boundary_beyond_lanes_detected(self):
        stream = self._stream()
        stream.ptr[0, 1] = 60
        with pytest.raises(PacketDecodeError):
            validate_stream(stream)


class TestDecodeLanes:
    def test_segments_follow_boundaries(self):
        m = _csr([[(0, 1.0), (1, 2.0)], [(2, 3.0), (3, 4.0), (4, 5.0)]])
        stream = encode_bscsr(m, solve_layout(8, 64, lanes=4), ExactCodec())
        keep, starts = decode_lanes(stream)
        assert keep[0].tolist() == [True, True, True, True]
        # The spanning row's last lane, then padding.
        assert keep[1].tolist() == [True, False, False, False]
        assert starts.tolist() == [0, 2]

    def test_padding_dropped(self):
        m = _csr([[(0, 1.0)]])
        stream = encode_bscsr(m, solve_layout(8, 64, lanes=4), ExactCodec())
        keep, starts = decode_lanes(stream)
        assert keep[0].tolist() == [True, False, False, False]
        assert starts.tolist() == [0]

    def test_a_stream_of_no_rows_keeps_no_lane(self):
        # Two packets whose first does not close a row: without the
        # no-rows rule its lanes would read as row content.
        m = _csr([[(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0), (4, 5.0)]])
        stream = encode_bscsr(m, solve_layout(8, 64, lanes=4), ExactCodec())
        assert stream.new_row.tolist() == [True, False]
        stream.ptr = np.zeros_like(stream.ptr)
        stream.n_rows = 0
        keep, starts = decode_lanes(stream)
        assert not keep.any() and starts.tolist() == []

    def test_row_count_mismatch_detected(self):
        m = _csr([[(0, 1.0)], [(1, 2.0)]])
        stream = encode_bscsr(m, solve_layout(8, 64, lanes=4), ExactCodec())
        stream.n_rows = 3
        with pytest.raises(PacketDecodeError):
            decode_lanes(stream)


class TestBSCSRMatrix:
    def test_partitioned_encode_covers_all_rows(self, small_matrix):
        layout = solve_layout(small_matrix.n_cols, 64)
        encoded = BSCSRMatrix.encode(small_matrix, layout, ExactCodec(), n_partitions=8)
        assert encoded.n_partitions == 8
        assert sum(s.n_rows for s in encoded.streams) == small_matrix.n_rows
        assert encoded.nnz == small_matrix.nnz

    def test_to_csr_reassembles(self, small_matrix):
        layout = solve_layout(small_matrix.n_cols, 64)
        encoded = BSCSRMatrix.encode(small_matrix, layout, ExactCodec(), n_partitions=4)
        back = encoded.to_csr()
        assert np.array_equal(back.to_dense(), small_matrix.to_dense())

    def test_total_accounting(self, small_matrix):
        layout = solve_layout(small_matrix.n_cols, 64)
        encoded = BSCSRMatrix.encode(small_matrix, layout, ExactCodec(), n_partitions=4)
        assert encoded.total_packets == sum(s.n_packets for s in encoded.streams)
        assert encoded.total_bytes == encoded.total_packets * 64
