"""Property suite locking every kernel backend to the reference dataflow.

Extends ``test_prop_batch_dataflow``'s guarantee to the whole backend
registry: for **every** registered kernel, ``simulate_multicore_batch``
must be bit-identical per query — candidate indices, float bit patterns,
tracker accept counts and merged stats — to looping
``simulate_multicore``/``run_fast`` over the block, across float64 and
float32 accumulation models, all codecs (fixed/signed/float32/exact),
spanning rows, empty rows and empty partitions.

The contraction backend is additionally driven through its exactness gate
both ways: Q1.31-quantised queries on the 20-bit design (gate passes, the
SciPy SpMM path runs) and unquantised / wide-grid requests (gate fails,
the automatic fallback must still produce the reference bits — which is
exactly what these properties assert, since they never special-case the
backend).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arithmetic.codecs import ExactCodec, codec_for_design
from repro.arithmetic.fixed_point import Q1_31
from repro.core.dataflow import (
    plan_stream,
    simulate_multicore,
    simulate_multicore_batch,
)
from repro.core.kernels import available_kernels, lower_plans
from repro.formats.bscsr import BSCSRMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.layout import solve_layout

#: The built-in backends (test stubs may join the registry mid-session, so
#: the suite pins the set it certifies and asserts they are all present).
KERNELS = ["gather", "streaming", "contraction", "auto"]
assert set(KERNELS) <= set(available_kernels())

#: Both partition executors must be bit-neutral.
EXECUTORS = ["thread", "process"]


@st.composite
def sparse_matrices(draw, max_rows=40, max_cols=24):
    """Small CSR matrices; empty rows / spanning rows appear naturally."""
    n_rows = draw(st.integers(0, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(n_rows):
        length = draw(st.integers(0, min(n_cols, 12)))
        cols = draw(
            st.lists(
                st.integers(0, n_cols - 1),
                min_size=length, max_size=length, unique=True,
            )
        )
        vals = draw(
            st.lists(st.integers(1, 2**19 - 1), min_size=length, max_size=length)
        )
        rows.append(
            (np.array(sorted(cols), dtype=np.int64),
             np.array(vals, dtype=np.float64) / 2**19)
        )
    return CSRMatrix.from_rows(rows, n_cols=n_cols)


@st.composite
def codecs(draw):
    kind = draw(st.sampled_from(["exact", "fixed20", "fixed25", "float32", "signed20"]))
    if kind == "exact":
        return ExactCodec(), 64
    if kind == "fixed20":
        return codec_for_design(20, "fixed"), 20
    if kind == "fixed25":
        return codec_for_design(25, "fixed"), 25
    if kind == "signed20":
        return codec_for_design(20, "signed"), 20
    return codec_for_design(32, "float"), 32


@st.composite
def query_blocks(draw, n_cols, quantized=False):
    n_queries = draw(st.integers(1, 5))
    flat = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False, width=32),
            min_size=n_queries * n_cols, max_size=n_queries * n_cols,
        )
    )
    block = np.array(flat, dtype=np.float64).reshape(n_queries, n_cols)
    if quantized:
        block = Q1_31.quantize(block)
    return block


def assert_kernel_matches_sequential(encoded, queries, kernel, dtype, local_k=4):
    """One kernel's multicore batch vs the per-query sequential loop."""
    batch_results, batch_stats = simulate_multicore_batch(
        encoded, queries, local_k=local_k, accumulate_dtype=dtype, kernel=kernel
    )
    for q, x in enumerate(queries):
        seq_results, seq_stats = simulate_multicore(
            encoded, x, local_k=local_k, accumulate_dtype=dtype
        )
        assert len(batch_results[q]) == len(seq_results)
        for got, want in zip(batch_results[q], seq_results):
            assert got.indices.tolist() == want.indices.tolist()
            assert got.values.tobytes() == want.values.tobytes()
        assert batch_stats[q] == seq_stats


class TestEveryBackendMatchesSequential:
    @pytest.mark.parametrize("kernel", KERNELS)
    @given(
        matrix=sparse_matrices(),
        codec_bits=codecs(),
        n_partitions=st.integers(1, 6),
        data=st.data(),
        dtype=st.sampled_from([np.float64, np.float32]),
        local_k=st.integers(1, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_per_query(
        self, kernel, matrix, codec_bits, n_partitions, data, dtype, local_k
    ):
        codec, val_bits = codec_bits
        layout = solve_layout(matrix.n_cols, val_bits, packet_bits=2048)
        encoded = BSCSRMatrix.encode(
            matrix, layout, codec, n_partitions=n_partitions, rows_per_packet=5
        )
        queries = data.draw(query_blocks(matrix.n_cols))
        assert_kernel_matches_sequential(
            encoded, queries, kernel, dtype, local_k=local_k
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    @given(
        matrix=sparse_matrices(max_rows=30),
        n_partitions=st.integers(1, 4),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_quantized_queries_fixed20(self, kernel, matrix, n_partitions, data):
        """Q1.31 queries on the 20-bit grid: the contraction gate engages."""
        codec = codec_for_design(20, "fixed")
        layout = solve_layout(matrix.n_cols, 20)
        encoded = BSCSRMatrix.encode(
            matrix, layout, codec, n_partitions=n_partitions, rows_per_packet=5
        )
        queries = data.draw(query_blocks(matrix.n_cols, quantized=True))
        assert_kernel_matches_sequential(encoded, queries, kernel, np.float64)


class TestBackendsAgreeBitwise:
    """All backends produce literally the same objects' bits on one sweep."""

    @given(
        matrix=sparse_matrices(max_rows=35),
        data=st.data(),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    @settings(max_examples=30, deadline=None)
    def test_cross_backend_agreement(self, matrix, data, dtype):
        codec = codec_for_design(20, "fixed")
        layout = solve_layout(matrix.n_cols, 20)
        encoded = BSCSRMatrix.encode(
            matrix, layout, codec, n_partitions=3, rows_per_packet=5
        )
        queries = data.draw(query_blocks(matrix.n_cols, quantized=True))
        reference = None
        for kernel in KERNELS:
            results, stats = simulate_multicore_batch(
                encoded, queries, local_k=4, accumulate_dtype=dtype, kernel=kernel
            )
            if reference is None:
                reference = (results, stats)
                continue
            ref_results, ref_stats = reference
            assert stats == ref_stats, kernel
            for got_q, want_q in zip(results, ref_results):
                for got, want in zip(got_q, want_q):
                    assert got.indices.tolist() == want.indices.tolist(), kernel
                    assert got.values.tobytes() == want.values.tobytes(), kernel


class TestKernelOptionsAreBitNeutral:
    """Workers, chunking and explicit operands must never change a bit."""

    @given(
        matrix=sparse_matrices(max_rows=35),
        data=st.data(),
        kernel=st.sampled_from(KERNELS),
        executor=st.sampled_from(EXECUTORS),
        n_workers=st.integers(2, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_workers_and_chunk(self, matrix, data, kernel, executor, n_workers):
        codec = codec_for_design(20, "fixed")
        layout = solve_layout(matrix.n_cols, 20)
        encoded = BSCSRMatrix.encode(
            matrix, layout, codec, n_partitions=4, rows_per_packet=5
        )
        queries = data.draw(query_blocks(matrix.n_cols, quantized=True))
        plans = [plan_stream(s) for s in encoded.streams]
        operand = lower_plans(plans, [s.codec for s in encoded.streams])
        base_results, base_stats = simulate_multicore_batch(
            encoded, queries, local_k=4, kernel="gather"
        )
        results, stats = simulate_multicore_batch(
            encoded,
            queries,
            local_k=4,
            plans=plans,
            kernel=kernel,
            n_workers=n_workers,
            operand=operand,
            executor=executor,
        )
        assert stats == base_stats
        for got_q, want_q in zip(results, base_results):
            for got, want in zip(got_q, want_q):
                assert got.indices.tolist() == want.indices.tolist()
                assert got.values.tobytes() == want.values.tobytes()
