"""Property-based tests: BS-CSR round-trips for arbitrary matrices."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arithmetic.codecs import ExactCodec, codec_for_design
from repro.core.dataflow import DataflowCore
from repro.formats.bscsr import (
    decode_to_csr,
    encode_bscsr,
    encode_bscsr_reference,
    validate_stream,
)
from repro.formats.csr import CSRMatrix
from repro.formats.layout import solve_layout
from repro.formats.stats import count_packets, packing_stats


@st.composite
def sparse_matrices(draw, max_rows=40, max_cols=32):
    """Arbitrary small CSR matrices with positive on-grid values."""
    n_rows = draw(st.integers(0, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(n_rows):
        length = draw(st.integers(0, min(n_cols, 10)))
        cols = draw(
            st.lists(
                st.integers(0, n_cols - 1),
                min_size=length, max_size=length, unique=True,
            )
        )
        # Values strictly positive and on the Q1.19 grid so quantisation is
        # lossless and zero-lane dropping cannot touch genuine entries.
        vals = draw(
            st.lists(
                st.integers(1, 2**19 - 1),
                min_size=length, max_size=length,
            )
        )
        rows.append(
            (np.array(sorted(cols), dtype=np.int64),
             np.array(vals, dtype=np.float64) / 2**19)
        )
    return CSRMatrix.from_rows(rows, n_cols=n_cols)


@st.composite
def layouts_and_budgets(draw):
    lanes = draw(st.integers(2, 15))
    r = draw(st.integers(1, lanes))
    return lanes, r


class TestRoundTripProperties:
    @given(matrix=sparse_matrices(), lanes_r=layouts_and_budgets())
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_identity(self, matrix, lanes_r):
        lanes, r = lanes_r
        layout = solve_layout(matrix.n_cols, 64, packet_bits=2048, lanes=lanes)
        stream = encode_bscsr(matrix, layout, ExactCodec(), rows_per_packet=r)
        validate_stream(stream)
        back = decode_to_csr(stream)
        assert np.array_equal(back.indptr, matrix.indptr)
        assert np.array_equal(back.indices, matrix.indices)
        assert np.array_equal(back.data, matrix.data)

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_counter_agrees_with_encoder(self, data):
        # The counter and encode_bscsr share the lane starts, so the
        # independent oracle is the per-packet reference encoder.  Lengths
        # cluster where the rows-per-packet budget binds: empty rows, short
        # rows and rows one lane either side of a whole packet.
        lanes = data.draw(st.integers(1, 15))
        r = data.draw(st.integers(1, lanes))
        lengths = data.draw(
            st.lists(
                st.one_of(
                    st.integers(0, 3),
                    st.integers(max(lanes - 1, 0), lanes + 1),
                    st.integers(0, 2 * lanes + 2),
                ),
                max_size=60,
            )
        )
        n_cols = 2 * lanes + 3
        matrix = CSRMatrix.from_rows(
            [(np.arange(n), np.full(n, 0.5)) for n in lengths], n_cols=n_cols
        )
        layout = solve_layout(n_cols, 64, packet_bits=2048, lanes=lanes)
        stream = encode_bscsr_reference(matrix, layout, ExactCodec(), rows_per_packet=r)
        n_packets, placeholders, padding = count_packets(matrix.row_lengths(), lanes, r)
        assert n_packets == stream.n_packets
        assert placeholders == lengths.count(0)
        assert padding == packing_stats(stream).padding_lanes

    @given(matrix=sparse_matrices(), lanes_r=layouts_and_budgets())
    @settings(max_examples=40, deadline=None)
    def test_row_budget_always_respected(self, matrix, lanes_r):
        lanes, r = lanes_r
        layout = solve_layout(matrix.n_cols, 64, packet_bits=2048, lanes=lanes)
        stream = encode_bscsr(matrix, layout, ExactCodec(), rows_per_packet=r)
        if stream.n_packets:
            assert int((stream.ptr > 0).sum(axis=1).max()) <= r

    @given(matrix=sparse_matrices())
    @settings(max_examples=40, deadline=None)
    def test_bit_exact_wire_roundtrip(self, matrix):
        codec = codec_for_design(20, "fixed")
        layout = solve_layout(max(matrix.n_cols, 2), 20)
        stream = encode_bscsr(matrix, layout, codec)
        from repro.formats.bscsr import BSCSRStream

        again = BSCSRStream.from_bytes(
            stream.to_bytes(), layout, codec,
            n_rows=stream.n_rows, n_cols=stream.n_cols,
            nnz=stream.nnz, rows_per_packet=stream.rows_per_packet,
        )
        assert np.array_equal(again.ptr, stream.ptr)
        assert np.array_equal(again.idx, stream.idx)
        assert np.array_equal(again.val_raw, stream.val_raw)


class TestDataflowProperties:
    @given(matrix=sparse_matrices(), lanes_r=layouts_and_budgets(),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_reference_and_fast_paths_agree(self, matrix, lanes_r, seed):
        lanes, r = lanes_r
        layout = solve_layout(matrix.n_cols, 64, packet_bits=2048, lanes=lanes)
        stream = encode_bscsr(matrix, layout, ExactCodec(), rows_per_packet=r)
        x = np.abs(np.random.default_rng(seed).standard_normal(matrix.n_cols))
        core = DataflowCore(4, x)
        ref, _ = core.run(stream)
        fast, _ = core.run_fast(stream)
        assert np.array_equal(ref.indices, fast.indices)
        assert np.array_equal(ref.values, fast.values)

    @given(matrix=sparse_matrices(), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_dataflow_row_values_equal_matvec(self, matrix, seed):
        layout = solve_layout(matrix.n_cols, 64, packet_bits=2048, lanes=8)
        stream = encode_bscsr(matrix, layout, ExactCodec())
        x = np.abs(np.random.default_rng(seed).standard_normal(matrix.n_cols))
        core = DataflowCore(max(1, matrix.n_rows), x)
        result, _ = core.run_fast(stream)
        y = matrix.matvec(x)
        recovered = np.zeros(matrix.n_rows)
        recovered[result.indices] = result.values
        assert np.allclose(recovered, y, rtol=1e-12, atol=1e-12)
