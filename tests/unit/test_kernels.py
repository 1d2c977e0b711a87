"""Unit tests for the kernel backend subsystem (registry, gates, plumbing)."""

import weakref

import numpy as np
import pytest

from repro.arithmetic.codecs import ExactCodec, codec_for_design
from repro.arithmetic.fixed_point import Q1_31
from repro.core.collection import compile_collection
from repro.core.dataflow import plan_stream, simulate_multicore_batch
from repro.core.engine import TopKSpmvEngine
from repro.core.kernels import (
    BatchScratchpads,
    ContractionOperand,
    KernelBackend,
    KernelOutput,
    KernelRequest,
    Queries,
    auto_chunk_width,
    available_kernels,
    get_kernel,
    lower_plans,
    native_available,
    register_kernel,
    resolve_kernel_name,
    resolve_workers,
    run_kernel,
    run_segmented,
)
from repro.core.segments import SegmentedCollection
from repro.core.topk_tracker import TopKTracker
from repro.data.synthetic import synthetic_embeddings
from repro.errors import ConfigurationError
from repro.formats.bscsr import BSCSRMatrix, encode_bscsr
from repro.formats.csr import CSRMatrix
from repro.formats.layout import solve_layout
from repro.hw.design import PAPER_DESIGNS


def _encoded(matrix, n_partitions=4, val_bits=20, arithmetic="fixed"):
    codec = codec_for_design(val_bits, arithmetic)
    layout = solve_layout(matrix.n_cols, val_bits)
    return BSCSRMatrix.encode(
        matrix, layout, codec, n_partitions=n_partitions, rows_per_packet=5
    )


@pytest.fixture(scope="module")
def tiny_matrix():
    return synthetic_embeddings(
        n_rows=300, n_cols=64, avg_nnz=6, distribution="uniform", seed=3
    )


class TestRegistry:
    def test_builtin_backends_registered(self):
        # This module's stub joins the registry at import; nothing else may.
        names = set(available_kernels()) - {_SHARED_STUB.name}
        assert names == {"gather", "streaming", "contraction", "auto"}

    def test_there_is_no_native_backend(self, tiny_matrix):
        # A stale name fails loudly, listing what exists, instead of
        # running some other backend.
        assert native_available() is False
        with pytest.raises(ConfigurationError, match="unknown kernel 'native'"):
            get_kernel("native")
        with pytest.raises(ConfigurationError, match="available: "):
            simulate_multicore_batch(
                _encoded(tiny_matrix), np.ones((1, 64)), local_k=2, kernel="native"
            )

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            get_kernel("no-such-backend")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_kernel(get_kernel("gather"))

    def test_resolve_default(self):
        assert resolve_kernel_name() == "auto"
        assert resolve_kernel_name("streaming") == "streaming"

    def test_resolve_typo_fails_fast(self):
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            resolve_kernel_name("contracton")

    def test_resolve_workers(self):
        assert resolve_workers() == 1
        assert resolve_workers(3) == 3
        assert resolve_workers("4") == 4
        with pytest.raises(ConfigurationError, match="not an integer"):
            resolve_workers("zero")
        with pytest.raises(ConfigurationError, match="must be >= 1"):
            resolve_workers(-2)

    def test_resolve_workers_auto_means_all_cores(self):
        import os as _os

        cores = _os.cpu_count() or 1
        assert resolve_workers("auto") == cores
        assert resolve_workers(0) == cores

    def test_the_environment_does_not_pick_the_kernel(self, monkeypatch):
        # The candidate path's settings come from arguments only: a name
        # left in the environment is not read, not even a typo.
        monkeypatch.setenv("REPRO_KERNEL", "contracton")
        assert resolve_kernel_name() == "auto"

    def test_the_environment_does_not_set_the_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_WORKERS", "zero")
        assert resolve_workers() == 1


class TestAutoQueryChunk:
    def test_small_lane_counts_hit_the_cap(self):
        assert auto_chunk_width(10, 8, 1024) == 128

    def test_large_lane_counts_shrink_but_stay_vectorised(self):
        chunk = auto_chunk_width(4_000_000, 8, 1024)
        assert chunk == 8

    def test_never_exceeds_query_count(self):
        assert auto_chunk_width(10, 8, 5) == 5

    def test_multiple_of_eight_between_bounds(self):
        chunk = auto_chunk_width(20_000, 8, 1024)
        assert 8 <= chunk <= 128 and chunk % 8 == 0


class TestContractionGate:
    """The provable-exactness gate of the contraction backend."""

    def _request(self, matrix, X, dtype=np.float64, operand=None, plans=None):
        if plans is None:
            encoded = _encoded(matrix)
            plans = [plan_stream(s) for s in encoded.streams]
            if operand is None:
                operand = lower_plans(plans, [s.codec for s in encoded.streams])
        return KernelRequest(
            X=np.atleast_2d(X),
            plans=tuple(plans),
            accumulate_dtype=np.dtype(dtype),
            local_k=4,
            operand=operand,
        )

    def test_quantised_queries_pass(self, tiny_matrix):
        X = Q1_31.quantize(np.linspace(0, 1, 2 * 64).reshape(2, 64))
        request = self._request(tiny_matrix, X)
        assert get_kernel("contraction").supports(request)
        assert get_kernel("auto").select(request).name == "contraction"

    def test_engaged_contraction_matches_gather(self, tiny_matrix):
        # Q1.31 queries on the 20-bit grid: the gate passes, the SpMM
        # runs, and it must still give the reference bits.
        X = Q1_31.quantize(np.linspace(0, 1, 3 * 64).reshape(3, 64))
        request = self._request(tiny_matrix, X)
        assert get_kernel("contraction").supports(request)
        out = get_kernel("contraction").run(request)
        want = get_kernel("gather").run(request)
        assert np.array_equal(out.accepts, want.accepts)
        assert out.rows.tolist() == want.rows.tolist()
        assert out.values.tobytes() == want.values.tobytes()

    def test_unquantised_queries_fall_back(self, tiny_matrix):
        # 1/3 is on no 2^-31 grid: order-independence is unprovable.
        X = np.full((2, 64), 1.0 / 3.0)
        request = self._request(tiny_matrix, X)
        assert not get_kernel("contraction").supports(request)
        assert get_kernel("auto").select(request).name == "streaming"

    def test_float32_accumulation_falls_back(self, tiny_matrix):
        X = Q1_31.quantize(np.linspace(0, 1, 64))
        request = self._request(tiny_matrix, X, dtype=np.float32)
        assert not get_kernel("contraction").supports(request)

    def test_exact_codec_has_no_grid(self, tiny_matrix):
        # Encode with the exact codec: no fixed value grid.
        layout = solve_layout(tiny_matrix.n_cols, 64)
        encoded = BSCSRMatrix.encode(
            tiny_matrix, layout, ExactCodec(), n_partitions=4, rows_per_packet=5
        )
        plans = [plan_stream(s) for s in encoded.streams]
        operand = lower_plans(plans, [s.codec for s in encoded.streams])
        assert operand.value_grid_bits is None
        X = Q1_31.quantize(np.linspace(0, 1, 64))
        request = self._request(tiny_matrix, X, operand=operand, plans=plans)
        assert not get_kernel("contraction").supports(request)

    @pytest.mark.parametrize(
        "max_abs_row_raw, supported",
        [(2**21 - 1, True), (2**21, False), (2**60, False)],
        ids=["just-under-2^52", "exactly-2^52", "2^91"],
    )
    def test_dynamic_range_overflow_falls_back(
        self, tiny_matrix, max_abs_row_raw, supported
    ):
        encoded = _encoded(tiny_matrix)
        plans = [plan_stream(s) for s in encoded.streams]
        operand = lower_plans(plans, [s.codec for s in encoded.streams])
        # Same grid, but a chosen row magnitude.  The query's max_raw_x is
        # 2^31, so the bound products are 2^52 - 2^31 (exact), 2^52 (the
        # strict budget edge) and 2^91.
        operand = ContractionOperand(
            data=operand.data,
            indices=operand.indices,
            indptr=operand.indptr,
            part_rows=operand.part_rows,
            value_grid_bits=operand.value_grid_bits,
            max_abs_row_raw=float(max_abs_row_raw),
        )
        X = Q1_31.quantize(np.linspace(0, 1, 64))
        request = self._request(tiny_matrix, X, operand=operand, plans=plans)
        assert get_kernel("contraction").supports(request) is supported

    def test_mismatched_operand_falls_back(self, tiny_matrix):
        encoded = _encoded(tiny_matrix)
        plans = [plan_stream(s) for s in encoded.streams]
        operand = lower_plans(plans[:2], [s.codec for s in encoded.streams[:2]])
        X = Q1_31.quantize(np.linspace(0, 1, 64))
        request = self._request(tiny_matrix, X, operand=operand, plans=plans)
        assert not get_kernel("contraction").supports(request)

    def test_missing_operand_falls_back(self, tiny_matrix):
        X = Q1_31.quantize(np.linspace(0, 1, 64))
        request = self._request(tiny_matrix, X, operand=None)
        request = KernelRequest(
            X=request.X,
            plans=request.plans,
            accumulate_dtype=request.accumulate_dtype,
            local_k=request.local_k,
            operand=None,
        )
        assert not get_kernel("contraction").supports(request)
        # run_kernel silently substitutes the declared fallback.
        out = run_kernel(request, "contraction")
        want = run_kernel(request, "gather")
        assert np.array_equal(out.accepts, want.accepts)

    def test_simulate_lowers_operand_for_explicit_contraction(self, tiny_matrix):
        # kernel="contraction" without an operand lowers one on the fly.
        encoded = _encoded(tiny_matrix)
        X = Q1_31.quantize(np.linspace(0, 1, 2 * 64).reshape(2, 64))
        got, got_stats = simulate_multicore_batch(
            encoded, X, local_k=4, kernel="contraction"
        )
        want, want_stats = simulate_multicore_batch(
            encoded, X, local_k=4, kernel="gather"
        )
        assert got_stats == want_stats
        for gq, wq in zip(got, want):
            for g, w in zip(gq, wq):
                assert g.indices.tolist() == w.indices.tolist()
                assert g.values.tobytes() == w.values.tobytes()

    @pytest.mark.parametrize("driver", ["frozen", "segmented"])
    def test_score_block_budget_splits_evenly_and_keeps_bits(
        self, tiny_matrix, monkeypatch, driver
    ):
        from repro.core.kernels import contraction, streaming

        X = Q1_31.quantize(np.random.default_rng(5).random((9, 64)) / 8.0)
        spmm_rows = []
        if driver == "frozen":
            request = self._request(tiny_matrix, X)
            home = contraction  # the module whose fold consumes the blocks
            itemsize = 8  # the candidate path's exact float64 blocks

            def run():
                out = get_kernel("contraction").run(request)
                return out.values.tobytes(), out.rows.tolist(), out.accepts.tolist()

        else:
            # Enough uniform rows that the walk scores them by one SpMM.
            matrix = synthetic_embeddings(
                n_rows=4000, n_cols=64, avg_nnz=6, distribution="uniform", seed=3
            )
            collection = SegmentedCollection.from_collection(
                compile_collection(matrix, PAPER_DESIGNS["20b"])
            )
            home = streaming  # the sorted-run walk's large chunks
            itemsize = 4  # the run's float32 blocks

            def run():
                out = run_segmented(collection, X, 4)
                assert out.segment_kernels == ("streaming",)
                assert out.rescored_rows > 0
                return (
                    [r.values.tobytes() for r in out.results],
                    [r.indices.tolist() for r in out.results],
                )

        widths = []
        chunks = contraction.score_chunks

        def spy(matrix, X):
            spmm_rows.append(matrix.shape[0])
            for q0, scores in chunks(matrix, X):
                # No SpMM block outgrows the budget in force (20 MiB).
                assert scores.itemsize == itemsize
                assert scores.nbytes <= contraction._SCORE_BLOCK_BYTES
                widths.append(scores.shape[1])
                yield q0, scores
                # The consumer asks for the next block only after dropping
                # every reference to this one, views included.
                released = weakref.ref(scores)
                del scores
                assert released() is None

        monkeypatch.setattr(home, "score_chunks", spy)
        whole = run()
        assert widths == [9] and len(spmm_rows) == 1
        # Room for 4 queries per block: 9 queries need three chunks, and
        # three equal chunks are 3 + 3 + 3, not 4 + 4 + 1.
        n_rows = spmm_rows[0]
        monkeypatch.setattr(contraction, "_SCORE_BLOCK_BYTES", 4 * itemsize * n_rows)
        assert run() == whole
        assert widths == [9, 3, 3, 3] and spmm_rows == [n_rows] * 2


class TestOperandLowering:
    def test_rows_and_lanes_cover_every_partition(self, tiny_matrix):
        encoded = _encoded(tiny_matrix, n_partitions=5)
        plans = [plan_stream(s) for s in encoded.streams]
        operand = lower_plans(plans, [s.codec for s in encoded.streams])
        assert operand.n_rows == sum(p.n_rows for p in plans)
        assert operand.part_rows.tolist() == [p.n_rows for p in plans]
        assert len(operand.data) == sum(len(p.kept_values) for p in plans)
        assert operand.value_grid_bits == 19  # Q1.19 for the 20-bit design

    def test_codec_count_mismatch_rejected(self, tiny_matrix):
        encoded = _encoded(tiny_matrix)
        plans = [plan_stream(s) for s in encoded.streams]
        with pytest.raises(ConfigurationError, match="codecs"):
            lower_plans(plans, [encoded.streams[0].codec])

    def test_collection_caches_operand(self, tiny_matrix):
        collection = compile_collection(tiny_matrix, PAPER_DESIGNS["20b"])
        assert collection._operand is None  # lazy until first use
        operand = collection.contraction_operand()
        assert collection.contraction_operand() is operand

    def test_gateless_design_skips_lowering_on_save_and_auto(
        self, tiny_matrix, tmp_path
    ):
        # A float32 design has no fixed value grid: the contraction gate
        # can never pass, so neither save(), the query path nor the
        # auto-kernel candidate path may pay the O(nnz) operand lowering
        # (regression: they used to lower and then discard it).
        from repro.core.engine import TopKSpmvEngine
        from repro.serving.sharded import ShardedEngine

        collection = compile_collection(tiny_matrix, PAPER_DESIGNS["f32"])
        assert collection.contraction_grid_bits() is None
        collection.save(tmp_path / "f32.bin")
        assert collection._operand is None
        X = np.linspace(0, 1, 2 * 64).reshape(2, 64)
        engine = TopKSpmvEngine(collection)
        engine.query_batch(X, top_k=4)
        assert collection._operand is None
        ShardedEngine(collection, n_shards=2).query_batch(X, top_k=4)
        assert collection._operand is None
        engine.query_candidates_batch(X)
        assert collection._operand is None
        # Even an explicit contraction request skips the lowering: with no
        # codec grid the gate is guaranteed to fall back to gather with
        # identical bits, so the operand would be pure waste.
        assert not collection.wants_contraction_operand("contraction")
        sweep = dict(
            local_k=collection.design.local_k,
            accumulate_dtype=collection.design.accumulate_dtype,
            plans=collection.stream_plans(),
        )
        X_uram = collection.design.quantize_query(X)
        want, _ = simulate_multicore_batch(
            collection.encoded, X_uram, kernel="gather", **sweep
        )
        got, _ = simulate_multicore_batch(
            collection.encoded, X_uram, kernel="contraction", **sweep
        )
        assert collection._operand is None
        for gq, wq in zip(got, want):
            for g, w in zip(gq, wq):
                assert g.indices.tolist() == w.indices.tolist()
                assert g.values.tobytes() == w.values.tobytes()

    def test_gated_design_saves_content_only(self, tiny_matrix, tmp_path):
        import json

        collection = compile_collection(tiny_matrix, PAPER_DESIGNS["20b"])
        assert collection.contraction_grid_bits() == 19
        path = tmp_path / "20b.bin"
        collection.save(path)
        assert collection._operand is None  # saving lowers nothing
        with np.load(path, allow_pickle=False) as archive:
            names = set(archive.files)
            header = json.loads(str(archive["header"]))
        assert header["version"] == 1
        assert not any(name.startswith("op_") for name in names)
        # The candidate path still lowers it on first use.
        assert collection.contraction_operand().value_grid_bits == 19


class TestStreamingSkip:
    def test_skewed_rows_are_skipped_without_changing_bits(self):
        # Rows sorted by decreasing magnitude: after the scratchpads fill,
        # whole tail blocks fall below every threshold and are never
        # gathered.
        rng = np.random.default_rng(5)
        n_rows, n_cols = 20_000, 64
        rows = []
        for r in range(n_rows):
            cols = np.sort(rng.choice(n_cols, size=6, replace=False))
            scale = 2.0 ** (-(r // 500))  # plateaus spanning 2^0 .. 2^-39
            rows.append((cols.astype(np.int64), scale * (0.5 + 0.5 * rng.random(6))))
        matrix = CSRMatrix.from_rows(rows, n_cols=n_cols)
        layout = solve_layout(n_cols, 64)
        stream = encode_bscsr(matrix, layout, ExactCodec(), rows_per_packet=5)
        encoded = BSCSRMatrix(
            streams=[stream], row_offsets=np.array([0]), n_rows=n_rows, n_cols=n_cols
        )
        X = rng.random((8, n_cols))
        want, want_stats = simulate_multicore_batch(
            encoded, X, local_k=4, kernel="gather"
        )
        got, got_stats = simulate_multicore_batch(
            encoded, X, local_k=4, kernel="streaming"
        )
        # Skip accounting rides the per-run KernelOutput only; the PR-5
        # last_skip_fraction singleton mirror is gone (the backend must
        # stay stateless for process workers and concurrent engines).
        backend = get_kernel("streaming")
        assert not hasattr(backend, "last_skip_fraction")
        out = backend.run(
            KernelRequest(
                X=X,
                plans=tuple(plan_stream(s) for s in encoded.streams),
                accumulate_dtype=np.dtype(np.float64),
                local_k=4,
            )
        )
        assert out.skip_fraction > 0.5
        assert got_stats == want_stats
        for gq, wq in zip(got, want):
            for g, w in zip(gq, wq):
                assert g.indices.tolist() == w.indices.tolist()
                assert g.values.tobytes() == w.values.tobytes()

    def test_per_run_skip_stats_with_threaded_partitions(self):
        # Skip counters ride each partition's return value, so a threaded
        # run must aggregate them without lost updates, and the per-run
        # KernelOutput (not just the singleton mirror) must carry them.
        rng = np.random.default_rng(13)
        # Partitions must span several lane-budget blocks for any block to
        # be skippable, hence the row count.
        n_rows, n_cols, n_parts = 32_000, 64, 4
        rows = []
        for r in range(n_rows):
            cols = np.sort(rng.choice(n_cols, size=6, replace=False))
            scale = 2.0 ** (-((r % (n_rows // n_parts)) // 50))
            rows.append((cols.astype(np.int64), scale * (0.5 + 0.5 * rng.random(6))))
        matrix = CSRMatrix.from_rows(rows, n_cols=n_cols)
        layout = solve_layout(n_cols, 64)
        encoded = BSCSRMatrix.encode(
            matrix, layout, ExactCodec(), n_partitions=n_parts, rows_per_packet=5
        )
        plans = tuple(plan_stream(s) for s in encoded.streams)
        X = rng.random((8, n_cols))
        backend = get_kernel("streaming")
        request = KernelRequest(
            X=X,
            plans=plans,
            accumulate_dtype=np.dtype(np.float64),
            local_k=4,
            n_workers=3,
        )
        out = backend.run(request)
        assert out.total_rows == n_rows * X.shape[0]
        assert 0 < out.skipped_rows <= out.total_rows
        assert out.skip_fraction > 0.5
        # Regression: the deprecated singleton mirror must stay gone — a
        # reintroduction would be shared mutable state across pool workers.
        assert not hasattr(backend, "last_skip_fraction")
        assert not hasattr(backend, "_last_skip_fraction")
        inline = backend.run(
            KernelRequest(
                X=X,
                plans=plans,
                accumulate_dtype=np.dtype(np.float64),
                local_k=4,
                n_workers=1,
            )
        )
        assert inline.skipped_rows == out.skipped_rows
        assert inline.total_rows == out.total_rows

    def test_screen_slack_covers_a_bound_just_above_the_threshold(self):
        """Segment 0's row A scores 1 − 2⁻²⁰; segment 1's row B scores
        exactly 1.0 with a screen bound Σ|v|·max|x| of exactly 1.0.  Only
        a slack above 1 keeps B's block unskipped: one that shrinks the
        bound (say 1 − 4(n+8)ε) would drop B and return row A."""
        n_cols = 64
        design = PAPER_DESIGNS["f32"]
        row_a = CSRMatrix.from_rows(
            [(np.array([0]), np.array([2.0 - 2.0**-19]))], n_cols=n_cols
        )
        collection = SegmentedCollection.from_matrix(row_a, design)
        collection.ingest([(np.arange(8), np.full(8, 0.25))])
        collection.seal()
        x = np.zeros(n_cols)
        x[:8] = 0.5
        got = TopKSpmvEngine(collection).query(x, 1).topk
        assert got.indices.tolist() == [1]
        assert got.values.tolist() == [1.0]

    def test_non_skipping_backends_report_zero(self, tiny_matrix):
        encoded = _encoded(tiny_matrix)
        plans = tuple(plan_stream(s) for s in encoded.streams)
        X = np.linspace(0, 1, 2 * 64).reshape(2, 64)
        request = KernelRequest(
            X=X, plans=plans, accumulate_dtype=np.dtype(np.float64), local_k=4
        )
        out = get_kernel("gather").run(request)
        assert out.skipped_rows == 0 and out.total_rows == 0
        assert out.skip_fraction == 0.0

    def test_uniform_rows_skip_nothing_and_match(self, tiny_matrix):
        encoded = _encoded(tiny_matrix, n_partitions=2)
        X = np.linspace(0, 1, 3 * 64).reshape(3, 64)
        want, _ = simulate_multicore_batch(encoded, X, local_k=4, kernel="gather")
        got, _ = simulate_multicore_batch(encoded, X, local_k=4, kernel="streaming")
        for gq, wq in zip(got, want):
            for g, w in zip(gq, wq):
                assert g.values.tobytes() == w.values.tobytes()


class TestPartitionFoldContract:
    """What every per-partition backend's :meth:`fold_plan` and the shared
    :meth:`run_partition` promise the candidate driver."""

    @staticmethod
    def _plans(n_rows):
        matrix = synthetic_embeddings(
            n_rows=n_rows, n_cols=48, avg_nnz=6, distribution="uniform", seed=7
        )
        return [plan_stream(s) for s in _encoded(matrix, n_partitions=3).streams]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("backend", ["gather", "streaming"])
    def test_fold_plan_into_warm_pads_matches_tracker_inserts(self, backend, dtype):
        # Folding plan 1's rows into scratchpads already warmed by plan 0
        # equals a per-query TopKTracker offered the same rows one by one —
        # threshold carry-over and accept counts included.  Each plan
        # offers its rows under plan-local ids.
        plans = self._plans(180)
        X = np.linspace(0, 1, 3 * 48).reshape(3, 48)
        acc = np.dtype(dtype)
        kernel = get_kernel(backend)
        pads = BatchScratchpads(3, 5)
        assert kernel.fold_plan(Queries.of(X, acc), plans[0], pads)[0] == 0
        skipped, screened = kernel.fold_plan(Queries.of(X, acc), plans[1], pads)
        assert screened == (0 if backend == "gather" else 3 * plans[1].n_rows)
        assert 0 <= skipped <= screened
        got, got_accepts = pads.finish()
        for q in range(3):
            tracker = TopKTracker(5)
            accepts = 0
            for plan in plans[:2]:
                products = plan.kept_values.astype(acc) * X[q].astype(acc)[plan.kept_idx]
                scores = np.add.reduceat(products, plan.starts).astype(acc)
                for r, score in enumerate(scores.tolist()):
                    accepts += tracker.insert(r, float(score))
            want = tracker.result()
            assert got_accepts[q] == accepts
            assert got[q].indices.tolist() == want.indices.tolist()
            assert got[q].values.tobytes() == want.values.tobytes()

    def test_run_partition_is_neutral_to_query_chunking(self, monkeypatch):
        # One run_partition serves every per-partition backend: fresh pads
        # per block of queries, fold_plan, finish.  The gather sweep folds
        # all five queries at once, the streaming walk here two at a time.
        from repro.core.kernels import streaming

        plan = self._plans(80)[0]
        X = np.linspace(0, 1, 5 * 48).reshape(5, 48)
        params = {"X": X, "accumulate_dtype": np.dtype(np.float64), "local_k": 3}
        a = get_kernel("gather").run_partition(0, plan, **params)
        monkeypatch.setattr(streaming, "auto_chunk_width", lambda *args: 2)
        assert get_kernel("streaming").fold_width(plan, Queries.of(X, np.float64)) == 2
        b = get_kernel("streaming").run_partition(0, plan, **params)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tolist() == b[1].tolist()
        assert a[2].tolist() == b[2].tolist()


class TestRowLengthBoundaries:
    """Every candidate backend sums a row exactly as a per-query
    ``np.add.reduceat`` over its lanes does, at the row lengths where
    NumPy's pairwise summation changes shape: the sequential base (< 8),
    the 8-accumulator unroll (8, 9), a full unroll block with a tail, the
    128-lane base-case cap and the recursive split (129, 300, 1000)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "row_len", [1, 2, 7, 8, 9, 100, 127, 128, 129, 300, 1000]
    )
    def test_uniform_row_lengths(self, row_len, dtype):
        rng = np.random.default_rng(row_len)
        n_rows, n_cols, local_k = 24, 1024, 4
        rows = [
            (
                np.sort(rng.choice(n_cols, size=row_len, replace=False)),
                rng.uniform(0.05, 0.95, row_len) * rng.choice([-1.0, 1.0], row_len),
            )
            for _ in range(n_rows)
        ]
        encoded = _encoded(CSRMatrix.from_rows(rows, n_cols=n_cols), n_partitions=3)
        plans = [plan_stream(s) for s in encoded.streams]
        for plan in plans:
            assert np.all(np.diff(plan.starts) == row_len)
        # Off every fixed-point grid, so each sum depends on its order.
        X = rng.uniform(-1.0, 1.0, (3, n_cols))
        acc = np.dtype(dtype)
        want = []
        for q in range(len(X)):
            per_part = []
            for plan, offset in zip(plans, encoded.row_offsets):
                products = plan.kept_values.astype(acc) * X[q].astype(acc)[plan.kept_idx]
                scores = np.add.reduceat(products, plan.starts).astype(acc)
                tracker = TopKTracker(local_k)
                for r, score in enumerate(scores.tolist()):
                    tracker.insert(r, float(score))
                result = tracker.result()
                per_part.append((result.indices + int(offset), result.values))
            want.append(per_part)
        for kernel in ["gather", "streaming", "contraction", "auto"]:
            got, _ = simulate_multicore_batch(
                encoded, X, local_k=local_k, accumulate_dtype=acc, kernel=kernel
            )
            for gq, wq in zip(got, want):
                for g, (w_rows, w_values) in zip(gq, wq):
                    assert g.indices.tolist() == w_rows.tolist(), kernel
                    assert g.values.tobytes() == w_values.tobytes(), kernel


class _SharedBufferKernel(KernelBackend):
    """Stub returning the *same* candidate buffers for every partition.

    Models a backend that caches its output buffers; the multicore driver
    must globalise into fresh arrays instead of offsetting these in place
    (the PR-1..3 `__iadd__` aliasing hazard).
    """

    name = "shared-buffer-stub"

    def run(self, request):
        n_parts = len(request.plans)
        shape = (n_parts, request.n_queries, 2)
        self.shared_rows = np.array([0, 1], dtype=np.int64)
        self.shared_values = np.array([2.0, 1.0])
        return KernelOutput(
            values=np.broadcast_to(self.shared_values, shape),
            rows=np.broadcast_to(self.shared_rows, shape),
            accepts=np.zeros((n_parts, request.n_queries), dtype=np.int64),
        )


_SHARED_STUB = register_kernel(_SharedBufferKernel())


class TestGlobalisationAliasing:
    """Regression for the in-place ``indices.__iadd__(offset)`` hazard."""

    def test_shared_backend_buffers_are_never_mutated(self, tiny_matrix):
        encoded = _encoded(tiny_matrix, n_partitions=4)
        X = np.linspace(0, 1, 2 * 64).reshape(2, 64)
        results, _ = simulate_multicore_batch(
            encoded, X, local_k=2, kernel=_SHARED_STUB.name
        )
        # The stub's buffer must still hold its local ids...
        assert _SHARED_STUB.shared_rows.tolist() == [0, 1]
        assert _SHARED_STUB.shared_values.tolist() == [2.0, 1.0]
        # ...while every partition's returned ids carry exactly its offset
        # (in-place offsetting of the shared array would compound them).
        for q_results in results:
            for local, offset in zip(q_results, encoded.row_offsets):
                assert local.indices.tolist() == [offset, offset + 1]

    def test_batch_results_stable_across_repeat_runs(self, tiny_matrix):
        # End-to-end: two identical runs over cached plans must agree even
        # if a backend reuses intermediates between calls.
        collection = compile_collection(tiny_matrix, PAPER_DESIGNS["20b"])
        X = Q1_31.quantize(np.linspace(0, 1, 2 * 64).reshape(2, 64))
        first, _ = simulate_multicore_batch(
            collection.encoded,
            X,
            local_k=4,
            plans=collection.stream_plans(),
            operand=collection.contraction_operand(),
        )
        second, _ = simulate_multicore_batch(
            collection.encoded,
            X,
            local_k=4,
            plans=collection.stream_plans(),
            operand=collection.contraction_operand(),
        )
        for fq, sq in zip(first, second):
            for f, s in zip(fq, sq):
                assert f.indices.tolist() == s.indices.tolist()
                assert f.values.tobytes() == s.values.tobytes()


class TestEngineCandidateKernelThreading:
    """The engines' candidate sweep runs the default backend, and every
    explicitly named backend of the sweep gives its bits."""

    @staticmethod
    def _assert_same_candidates(got, want, label):
        for gq, wq in zip(got, want):
            for g, w in zip(gq, wq):
                assert g.indices.tolist() == w.indices.tolist(), label
                assert g.values.tobytes() == w.values.tobytes(), label

    @pytest.mark.parametrize(
        "kernel", ["gather", "streaming", "contraction", "auto"]
    )
    def test_engine_candidates_match_across_kernels(
        self, tiny_matrix, kernel, monkeypatch
    ):
        import repro.core.engine as engine_module

        collection = compile_collection(tiny_matrix, PAPER_DESIGNS["20b"])
        engine = TopKSpmvEngine(collection)
        rng = np.random.default_rng(9)
        X = rng.random((5, tiny_matrix.n_cols))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        seen = []
        sweep = engine_module.simulate_multicore_batch

        def spy(*args, **kwargs):
            seen.append(kwargs["kernel"])
            return sweep(*args, **kwargs)

        monkeypatch.setattr(engine_module, "simulate_multicore_batch", spy)
        want, want_stats = engine.query_candidates_batch(X)
        assert seen == ["auto"]
        got, got_stats = sweep(
            collection.encoded,
            collection.design.quantize_query(X),
            local_k=collection.design.local_k,
            accumulate_dtype=collection.design.accumulate_dtype,
            plans=collection.stream_plans(),
            kernel=kernel,
            row_map=collection.row_map,
        )
        self._assert_same_candidates(got, want, kernel)
        assert got_stats == want_stats

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_aligned_fleet_candidates_match_engine(self, tiny_matrix, n_shards):
        from repro.serving.sharded import ShardedEngine

        collection = compile_collection(tiny_matrix, PAPER_DESIGNS["20b"])
        fleet = ShardedEngine(collection, n_shards=n_shards)
        rng = np.random.default_rng(11)
        X = rng.random((4, tiny_matrix.n_cols))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        want, want_stats = TopKSpmvEngine(collection).query_candidates_batch(X)
        got, got_stats = fleet.query_candidates_batch(X)
        self._assert_same_candidates(got, want, "fleet")
        assert got_stats == want_stats
