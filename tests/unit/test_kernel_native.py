"""Unit tests for the native compiled kernel (loop model, gating, fallback).

The correctness heart of the backend is :func:`reduceat_segment_sums` — the
transcription of NumPy's pairwise ``np.add.reduceat`` segment model the
sweep reduces rows with.  The differential tests here drive it against the
real ufunc across dtypes, segment lengths (sequential base, the
8-accumulator unroll, the recursive split) and signed-zero/infinity
specials, asserting *bit* equality.  Where Numba is absent the identical
loop bodies run interpreted (``REPRO_NATIVE_INTERPRET=1``), so these lock
the semantics the compiled functions execute everywhere.
"""

import numpy as np
import pytest

from repro.arithmetic.codecs import codec_for_design
from repro.arithmetic.fixed_point import Q1_31
from repro.core.dataflow import plan_stream, simulate_multicore_batch
from repro.core.kernels import (
    BatchScratchpads,
    KernelRequest,
    Queries,
    get_kernel,
    lower_plans,
    native_available,
    reduceat_segment_sums,
    run_kernel,
)
from repro.core.kernels.native import INTERPRET_ENV_VAR
from repro.core.kernels.segmented import select_segment_kernel
from repro.core.topk_tracker import TopKTracker
from repro.data.synthetic import synthetic_embeddings
from repro.formats.bscsr import BSCSRMatrix
from repro.formats.layout import solve_layout


@pytest.fixture()
def interpreted(monkeypatch):
    """Force the backend available (no-op where Numba is installed)."""
    monkeypatch.setenv(INTERPRET_ENV_VAR, "1")


@pytest.fixture()
def unavailable(monkeypatch):
    """Force the interpret override off (numba, if present, stays)."""
    monkeypatch.delenv(INTERPRET_ENV_VAR, raising=False)


def _encoded(n_rows=250, n_cols=48, seed=7):
    matrix = synthetic_embeddings(
        n_rows=n_rows, n_cols=n_cols, avg_nnz=6, distribution="uniform", seed=seed
    )
    layout = solve_layout(n_cols, 20)
    return BSCSRMatrix.encode(
        matrix,
        layout,
        codec_for_design(20, "fixed"),
        n_partitions=3,
        rows_per_packet=5,
    )


class TestReduceatModel:
    """Differential lock: the segment-sum tree == np.add.reduceat, bitwise."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "seg_len",
        # Sequential base (<8), the unroll boundary (8, 9), a full unroll
        # block with tail, the base-case cap (128), and the recursive
        # split (129, 300, 1000 — two levels deep).
        [1, 2, 7, 8, 9, 100, 127, 128, 129, 300, 1000],
    )
    def test_uniform_segment_lengths(self, dtype, seg_len):
        rng = np.random.default_rng(seg_len)
        n_segments = 5
        values = rng.standard_normal(n_segments * seg_len).astype(dtype)
        starts = np.arange(0, len(values), seg_len, dtype=np.int64)
        want = np.add.reduceat(values, starts)
        got = reduceat_segment_sums(values, starts)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_random_ragged_segments(self, dtype):
        rng = np.random.default_rng(11)
        for trial in range(20):
            n = int(rng.integers(1, 700))
            values = rng.standard_normal(n).astype(dtype)
            n_starts = int(rng.integers(1, min(n, 40) + 1))
            starts = np.sort(
                rng.choice(n, size=n_starts, replace=False)
            ).astype(np.int64)
            starts[0] = 0
            want = np.add.reduceat(values, starts)
            got = reduceat_segment_sums(values, starts)
            assert got.tobytes() == want.tobytes(), (trial, n, starts)

    def test_negative_zero_single_lane_is_bit_preserved(self):
        # A one-lane segment must return the value's bits untouched:
        # summing in +0.0 would flip -0.0 to +0.0.
        values = np.array([-0.0, 1.5, -0.0], dtype=np.float64)
        starts = np.array([0, 1, 2], dtype=np.int64)
        want = np.add.reduceat(values, starts)
        got = reduceat_segment_sums(values, starts)
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got[0]) and np.signbit(got[2])

    def test_infinities_match(self):
        values = np.array(
            [np.inf, 1.0, -np.inf, 2.0, np.inf, np.inf, -3.0, 4.0],
            dtype=np.float64,
        )
        for starts in ([0], [0, 2], [0, 3, 6], list(range(8))):
            starts = np.asarray(starts, dtype=np.int64)
            want = np.add.reduceat(values, starts)
            got = reduceat_segment_sums(values, starts)
            # inf + -inf = nan: compare bit patterns where finite/inf and
            # nan-ness elsewhere (nan payloads are unspecified).
            for g, w in zip(got, want):
                if np.isnan(w):
                    assert np.isnan(g)
                else:
                    assert g.tobytes() == w.tobytes()


class TestAvailabilityGate:
    def test_unavailable_backend_declines_and_falls_back(self, unavailable):
        backend = get_kernel("native")
        encoded = _encoded()
        plans = tuple(plan_stream(s) for s in encoded.streams)
        X = np.linspace(0, 1, 2 * 48).reshape(2, 48)
        request = KernelRequest(
            X=X, plans=plans, accumulate_dtype=np.dtype(np.float64), local_k=4
        )
        if native_available():  # pragma: no cover - numba installed
            pytest.skip("numba present: the backend is always available")
        assert not backend.supports(request)
        # run_kernel silently substitutes the declared streaming fallback.
        out = run_kernel(request, "native")
        want = run_kernel(request, "streaming")
        assert np.array_equal(out.accepts, want.accepts)
        for gp, wp in zip(out.results, want.results):
            for g, w in zip(gp, wp):
                assert g.values.tobytes() == w.values.tobytes()

    def test_auto_prefers_native_when_available(self, interpreted):
        encoded = _encoded()
        plans = tuple(plan_stream(s) for s in encoded.streams)
        X = np.linspace(0, 1, 2 * 48).reshape(2, 48)
        request = KernelRequest(
            X=X, plans=plans, accumulate_dtype=np.dtype(np.float64), local_k=4
        )
        assert get_kernel("auto").select(request).name == "native"

    def test_segment_selection_honours_availability(self, unavailable):
        if native_available():  # pragma: no cover - numba installed
            pytest.skip("numba present: the backend is always available")
        from repro.core.collection import compile_collection
        from repro.hw.design import PAPER_DESIGNS

        matrix = synthetic_embeddings(
            n_rows=60, n_cols=48, avg_nnz=5, distribution="uniform", seed=1
        )
        collection = compile_collection(matrix, PAPER_DESIGNS["20b"])
        X = Q1_31.quantize(np.linspace(0, 1, 48)[None, :])
        name = select_segment_kernel(
            collection, X, "native", np.float64, top_k=4
        )
        assert name == "streaming"

    def test_segment_selection_uses_native_when_available(self, interpreted):
        from repro.core.collection import compile_collection
        from repro.hw.design import PAPER_DESIGNS

        matrix = synthetic_embeddings(
            n_rows=60, n_cols=48, avg_nnz=5, distribution="uniform", seed=1
        )
        collection = compile_collection(matrix, PAPER_DESIGNS["20b"])
        X = Q1_31.quantize(np.linspace(0, 1, 48)[None, :])
        for request in ("native", None, "auto"):
            assert (
                select_segment_kernel(
                    collection, X, request, np.float64, top_k=4
                )
                == "native"
            )
        # Explicit names other than native/auto are still honoured.
        assert (
            select_segment_kernel(collection, X, "gather", np.float64, top_k=4)
            == "gather"
        )


class TestNativeBitIdentity:
    def test_matches_gather_and_engages_exact_path(self, interpreted):
        # Q1.31 queries on the 20-bit grid: the contraction gate passes,
        # so the native run takes the exact sequential-sum path — and must
        # still produce the reference bits.
        encoded = _encoded()
        plans = tuple(plan_stream(s) for s in encoded.streams)
        operand = lower_plans(plans, [s.codec for s in encoded.streams])
        X = Q1_31.quantize(np.linspace(0, 1, 3 * 48).reshape(3, 48))
        request = KernelRequest(
            X=X,
            plans=plans,
            accumulate_dtype=np.dtype(np.float64),
            local_k=4,
            operand=operand,
        )
        assert get_kernel("contraction").supports(request)  # gate engaged
        out = get_kernel("native").run(request)
        want = get_kernel("gather").run(request)
        assert np.array_equal(out.accepts, want.accepts)
        for gp, wp in zip(out.results, want.results):
            for g, w in zip(gp, wp):
                assert g.indices.tolist() == w.indices.tolist()
                assert g.values.tobytes() == w.values.tobytes()

    def test_skips_on_skewed_rows_without_changing_bits(self, interpreted):
        from repro.formats.csr import CSRMatrix

        rng = np.random.default_rng(5)
        # Screening is block-granular (~16k lanes / 5 lanes per row ≈ 3.3k
        # rows per block): the magnitude decay must span many whole blocks
        # for the tail to be provably skippable.
        n_rows, n_cols = 20_000, 32
        rows = []
        for r in range(n_rows):
            cols = np.sort(rng.choice(n_cols, size=5, replace=False))
            scale = 2.0 ** (-(r // 500))
            rows.append(
                (cols.astype(np.int64), scale * (0.5 + 0.5 * rng.random(5)))
            )
        matrix = CSRMatrix.from_rows(rows, n_cols=n_cols)
        from repro.arithmetic.codecs import ExactCodec

        layout = solve_layout(n_cols, 64)
        encoded = BSCSRMatrix.encode(
            matrix, layout, ExactCodec(), n_partitions=1, rows_per_packet=5
        )
        X = rng.random((4, n_cols))
        want, want_stats = simulate_multicore_batch(
            encoded, X, local_k=4, kernel="gather"
        )
        got, got_stats = simulate_multicore_batch(
            encoded, X, local_k=4, kernel="native"
        )
        assert got_stats == want_stats
        for gq, wq in zip(got, want):
            for g, w in zip(gq, wq):
                assert g.indices.tolist() == w.indices.tolist()
                assert g.values.tobytes() == w.values.tobytes()
        out = get_kernel("native").run(
            KernelRequest(
                X=X,
                plans=tuple(plan_stream(s) for s in encoded.streams),
                accumulate_dtype=np.dtype(np.float64),
                local_k=4,
            )
        )
        # Per-query screening on the magnitude-sorted collection prunes
        # most of the tail (the provable-skip win the backend compiles).
        assert out.skip_fraction > 0.5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("backend", ["gather", "streaming", "native"])
    def test_fold_plan_into_warm_pads_matches_tracker_inserts(
        self, interpreted, backend, masked, dtype
    ):
        # The contract every per-partition backend's one entry point
        # states (and both drivers rely on): folding plan 1's live rows
        # into scratchpads already warmed by plan 0 equals a per-query
        # TopKTracker offered the same rows one by one — threshold
        # carry-over, renumbered live ids and accept counts included.
        encoded = _encoded(n_rows=180)
        plans = [plan_stream(s) for s in encoded.streams]
        X = np.linspace(0, 1, 3 * 48).reshape(3, 48)
        acc = np.dtype(dtype)
        live = None
        if masked:
            live = np.random.default_rng(3).random(plans[1].n_rows) < 0.7
        kernel = get_kernel(backend)
        pads = BatchScratchpads(3, 5)
        offset = plans[0].n_rows
        assert kernel.fold_plan(Queries.of(X, acc), plans[0], pads)[0] == 0
        skipped, screened = kernel.fold_plan(
            Queries.of(X, acc), plans[1], pads, offset, live
        )
        n_live = plans[1].n_rows if live is None else int(live.sum())
        assert screened == (0 if backend == "gather" else 3 * n_live)
        assert 0 <= skipped <= screened
        got, got_accepts = pads.finish()
        for q in range(3):
            tracker = TopKTracker(5)
            accepts = 0
            row = 0
            for plan, mask in ((plans[0], None), (plans[1], live)):
                products = plan.kept_values.astype(acc) * X[q].astype(acc)[plan.kept_idx]
                scores = np.add.reduceat(products, plan.starts).astype(acc)
                for r, score in enumerate(scores.tolist()):
                    if mask is None or mask[r]:
                        accepts += tracker.insert(row, float(score))
                        row += 1
            want = tracker.result()
            assert got_accepts[q] == accepts
            assert got[q].indices.tolist() == want.indices.tolist()
            assert got[q].values.tobytes() == want.values.tobytes()

    def test_run_partition_is_neutral_to_query_chunking(
        self, interpreted, monkeypatch
    ):
        # One run_partition serves every per-partition backend: fresh pads
        # per block of queries, fold_plan, finish.  The native sweep folds
        # all queries at once, the streaming walk in blocks of fold_width —
        # chunking is bit-neutral by contract.
        from repro.core.kernels import streaming

        encoded = _encoded(n_rows=80)
        plan = plan_stream(encoded.streams[0])
        X = np.linspace(0, 1, 5 * 48).reshape(5, 48)
        params = {"X": X, "accumulate_dtype": np.dtype(np.float64), "local_k": 3}
        a = get_kernel("native").run_partition(0, plan, **params)
        monkeypatch.setattr(streaming, "auto_chunk_width", lambda *args: 2)
        b = get_kernel("streaming").run_partition(0, plan, **params)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tolist() == b[1].tolist()
        assert a[2].tolist() == b[2].tolist()
