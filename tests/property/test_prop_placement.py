"""Property suite locking placement invariance: layout never changes bits.

The placement layer (:mod:`repro.core.placement`) permutes rows across HBM
channels for performance — channel balance and streaming block-skip — and
its whole contract is that top-k output is **bit-identical** to the
unpermuted compile.  Two exactness regimes are locked:

* **unconditional** — engine queries run the multi-segment driver (a
  global fold with no candidate cap), so *any* ``top_k`` must match
  bit-for-bit;
* **covered** — the paper's ``k·c`` candidate approximation
  (``query_candidates`` then a host merge) must match at any
  ``top_k <= local_k``: every global top-``k`` row ranks ``<= k`` inside
  its partition under **any** placement, so the candidate union always
  covers the answer.  (``top_k > local_k`` is *inherently*
  placement-dependent — the approximation itself changes with the
  partition contents — and is intentionally out of contract.)

Also locked here: save/load round-trips the permutation digest-covered,
identity/legacy artifacts load with no placement, and the per-partition
plan cache is shared between ``stream_plans`` and ``stream_plans_range``.
"""

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx import merge_topk_candidates
from repro.core.collection import CompiledCollection, compile_collection
from repro.core.kernels import run_segmented
from repro.core.placement import PLACEMENT_STRATEGIES, Placement, plan_placement
from repro.core.segments import SegmentedCollection
from repro.core.engine import TopKSpmvEngine
from repro.formats.csr import CSRMatrix
from repro.hw.design import PAPER_DESIGNS

NON_UNIFORM = [s for s in PLACEMENT_STRATEGIES if s != "uniform"]
KERNELS = ["gather", "streaming", "contraction", "native"]


@st.composite
def sparse_matrices(draw, max_rows=40, max_cols=20, n_cols=None):
    """Small grid-valued CSR matrices; empty rows appear naturally."""
    n_rows = draw(st.integers(0, max_rows))
    if n_cols is None:
        n_cols = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(n_rows):
        length = draw(st.integers(0, min(n_cols, 8)))
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


def continuous_matrix(seed: int, n_rows: int, n_cols: int) -> CSRMatrix:
    """A seeded continuous-valued matrix (exact score ties measure-zero)."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_rows):
        length = int(rng.integers(0, min(n_cols, 10) + 1))
        cols = np.sort(rng.choice(n_cols, size=length, replace=False))
        vals = np.abs(rng.standard_normal(length)) + 1e-6
        rows.append((cols.astype(np.int64), vals))
    return CSRMatrix.from_rows(rows, n_cols=n_cols)


def assert_batches_identical(got, want, label=""):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.indices.tolist() == w.indices.tolist(), label
        assert g.values.tobytes() == w.values.tobytes(), label


def query_block(seed: int, n_queries: int, n_cols: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((n_queries, n_cols))


class TestUnconditionalInvariance:
    """Engine queries: any top_k, any placement."""

    @pytest.mark.parametrize("strategy", NON_UNIFORM)
    @given(
        matrix=sparse_matrices(),
        n_partitions=st.integers(1, 5),
        design_name=st.sampled_from(["20b", "f32"]),
        top_k=st.integers(1, 12),
        qseed=st.integers(0, 2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_any_top_k(
        self, strategy, matrix, n_partitions, design_name, top_k, qseed
    ):
        design = replace(
            PAPER_DESIGNS[design_name], local_k=max(1, matrix.n_rows)
        )
        base = compile_collection(matrix, design, n_partitions=n_partitions)
        placed = compile_collection(
            matrix, design, n_partitions=n_partitions, placement=strategy
        )
        X = query_block(qseed, 3, matrix.n_cols)
        k = min(top_k, max(1, matrix.n_rows))
        want = TopKSpmvEngine.from_collection(base).query_batch(X, k)
        got = TopKSpmvEngine.from_collection(placed).query_batch(X, k)
        assert_batches_identical(got.topk, want.topk, strategy)


class TestCoveredInvariance:
    """The paper's k·c candidate merge at ``top_k <= local_k``."""

    @pytest.mark.parametrize("strategy", NON_UNIFORM)
    @given(
        seed=st.integers(0, 2**31),
        n_partitions=st.integers(2, 6),
        kernel=st.sampled_from(KERNELS),
        design_name=st.sampled_from(["20b", "25b", "f32"]),
        top_k=st.integers(1, 8),
    )
    @settings(max_examples=15, deadline=None)
    def test_top_k_le_local_k(
        self, strategy, seed, n_partitions, kernel, design_name, top_k
    ):
        matrix = continuous_matrix(seed, n_rows=120, n_cols=24)
        design = PAPER_DESIGNS[design_name]
        assert top_k <= design.local_k
        base = compile_collection(matrix, design, n_partitions=n_partitions)
        placed = compile_collection(
            matrix, design, n_partitions=n_partitions, placement=strategy
        )
        X = query_block(seed ^ 0x5EED, 4, matrix.n_cols)

        def merged(collection):
            engine = TopKSpmvEngine.from_collection(collection, kernel=kernel)
            candidates, _ = engine.query_candidates_batch(X)
            return [merge_topk_candidates(c, top_k) for c in candidates]

        assert_batches_identical(merged(placed), merged(base), f"{strategy}/{kernel}")
        # The engine's own answer agrees too.
        one_want = TopKSpmvEngine.from_collection(base).query(X[0], top_k)
        one_got = TopKSpmvEngine.from_collection(placed).query(X[0], top_k)
        assert one_got.topk.indices.tolist() == one_want.topk.indices.tolist()
        assert one_got.topk.values.tobytes() == one_want.topk.values.tobytes()


class TestSegmentedInvariance:
    """The multi-segment driver's global fold: unconditional, any top_k."""

    @pytest.mark.parametrize("strategy", NON_UNIFORM)
    @given(
        seed=st.integers(0, 2**31),
        top_k=st.integers(1, 20),
        design_name=st.sampled_from(["20b", "f32"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_placed_segment_fold(self, strategy, seed, top_k, design_name):
        matrix = continuous_matrix(seed, n_rows=90, n_cols=20)
        design = PAPER_DESIGNS[design_name]
        base = SegmentedCollection.from_collection(
            compile_collection(matrix, design, n_partitions=4)
        )
        placed = SegmentedCollection.from_collection(
            compile_collection(
                matrix, design, n_partitions=4, placement=strategy
            )
        )
        X = query_block(seed + 7, 3, matrix.n_cols)
        want = TopKSpmvEngine(base).query_batch(X, top_k)
        got = TopKSpmvEngine(placed).query_batch(X, top_k)
        assert_batches_identical(got.topk, want.topk, strategy)
        # Continuous values never tie at the K-th score: nothing falls
        # back to the ordered fold, and the placed segment streamed.
        out = run_segmented(placed, PAPER_DESIGNS[design_name].quantize_query(X), top_k)
        assert out.ordered_lanes == 0
        assert out.segment_kernels == ("streaming",)

    @pytest.mark.parametrize("strategy", NON_UNIFORM)
    @given(
        matrix=sparse_matrices(max_rows=40, max_cols=8),
        design_name=st.sampled_from(["20b", "f32"]),
        top_k=st.integers(1, 12),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_tie_heavy_placed_segment_fold(
        self, strategy, matrix, design_name, top_k, data
    ):
        """Grid values x grid queries tie at the K-th score all the time;
        the stream-order fold plus the boundary-tie guard still returns the
        identity compile's bits, tombstones on the placed segment and a
        trailing unplaced segment + delta included."""
        design = PAPER_DESIGNS[design_name]
        n_cols = matrix.n_cols
        tail = data.draw(sparse_matrices(max_rows=6, n_cols=n_cols))
        dead = data.draw(
            st.lists(st.integers(0, max(0, matrix.n_rows - 1)), max_size=10, unique=True)
        )
        flat = data.draw(
            st.lists(st.integers(0, 2), min_size=3 * n_cols, max_size=3 * n_cols)
        )
        X = design.quantize_query(
            np.array(flat, dtype=np.float64).reshape(3, n_cols) / 2
        )
        outs = []
        for placement in (None, strategy):
            collection = SegmentedCollection.from_collection(
                compile_collection(
                    matrix, design, n_partitions=4, placement=placement
                )
            )
            if tail.n_rows:
                collection.ingest(tail)
                collection.seal()
                collection.ingest(tail)
            if matrix.n_rows:
                collection.delete(dead)
            outs.append(run_segmented(collection, X, top_k))
        want, got = outs
        assert_batches_identical(got.results, want.results, strategy)
        assert want.ordered_lanes == 0  # nothing placed, nothing to guard
        assert got.total_rows == want.total_rows  # every live pair accounted

    @pytest.mark.parametrize("strategy", NON_UNIFORM)
    def test_tie_guard_fires_on_grid_ties(self, strategy):
        """Every row scores the same (rows differ only in columns the
        queries zero out, which is what the placement sorts on): all ties
        at the K-th score, so the guard must send every query through the
        ordered fold."""
        design = PAPER_DESIGNS["20b"]
        rows = []
        for i in range(24):
            extra = 1 + i % 3
            cols = np.arange(extra + 1, dtype=np.int64)
            vals = np.concatenate([[0.5], np.full(extra, (i + 1) / 64)])
            rows.append((cols, vals))
        matrix = CSRMatrix.from_rows(rows, n_cols=4)
        X = design.quantize_query(np.array([[0.5, 0, 0, 0], [0.25, 0, 0, 0]]))
        base = SegmentedCollection.from_collection(
            compile_collection(matrix, design, n_partitions=3)
        )
        placed = SegmentedCollection.from_collection(
            compile_collection(matrix, design, n_partitions=3, placement=strategy)
        )
        assert placed.segments[0].artifact.placement is not None
        want = run_segmented(base, X, 5)
        got = run_segmented(placed, X, 5)
        assert got.ordered_lanes == 2
        assert_batches_identical(got.results, want.results, strategy)
        assert got.accepts.tolist() == want.accepts.tolist()


class TestPersistence:
    """Placement round-trips digest-covered; identity stays legacy-shaped."""

    @pytest.mark.parametrize("strategy", NON_UNIFORM)
    def test_save_load_round_trip(self, tmp_path, strategy):
        matrix = continuous_matrix(11, n_rows=80, n_cols=16)
        placed = compile_collection(
            matrix, PAPER_DESIGNS["20b"], n_partitions=4, placement=strategy
        )
        path = tmp_path / "placed.npz"
        placed.save(path)
        loaded = CompiledCollection.load(path)
        assert loaded.placement is not None
        assert loaded.placement.strategy == strategy
        assert loaded.placement.order.tolist() == placed.placement.order.tolist()
        assert (
            loaded.placement.boundaries.tolist()
            == placed.placement.boundaries.tolist()
        )
        assert loaded.digest == placed.digest
        X = query_block(3, 3, matrix.n_cols)
        want = TopKSpmvEngine.from_collection(placed).query_batch(X, 8)
        got = TopKSpmvEngine.from_collection(loaded).query_batch(X, 8)
        assert_batches_identical(got.topk, want.topk, strategy)

    def test_identity_payload_is_legacy_shaped(self, tmp_path):
        """Identity placements persist nothing; legacy files load as None."""
        matrix = continuous_matrix(12, n_rows=60, n_cols=16)
        base = compile_collection(matrix, PAPER_DESIGNS["20b"], n_partitions=4)
        assert base.placement is None
        assert "placement_order" not in base._payload_arrays()
        identity = Placement.identity(matrix.n_rows, 4)
        via_identity = compile_collection(
            matrix, PAPER_DESIGNS["20b"], n_partitions=4, placement=identity
        )
        # Explicit identity resolves to no placement: digests byte-match.
        assert via_identity.placement is None
        assert via_identity.digest == base.digest
        path = tmp_path / "legacy.npz"
        base.save(path)
        loaded = CompiledCollection.load(path)
        assert loaded.placement is None
        assert loaded.row_map is None
        assert loaded.digest == base.digest

    def test_placed_digest_differs_from_identity(self):
        matrix = continuous_matrix(13, n_rows=60, n_cols=16)
        base = compile_collection(matrix, PAPER_DESIGNS["20b"], n_partitions=4)
        placed = compile_collection(
            matrix, PAPER_DESIGNS["20b"], n_partitions=4, placement="skew"
        )
        assert placed.digest != base.digest


class TestPlanCacheSharing:
    """stream_plans and stream_plans_range share one per-partition cache."""

    @pytest.mark.parametrize("placement", [None, "skew"])
    def test_one_build_per_partition(self, monkeypatch, placement):
        import repro.core.collection as collection_mod

        matrix = continuous_matrix(14, n_rows=64, n_cols=16)
        col = compile_collection(
            matrix, PAPER_DESIGNS["20b"], n_partitions=4, placement=placement
        )
        calls = []
        real = collection_mod.plan_stream

        def counting(stream):
            calls.append(stream)
            return real(stream)

        monkeypatch.setattr(collection_mod, "plan_stream", counting)
        col.stream_plans_range(0, 2)
        col.stream_plans_range(1, 3)  # partition 1 must come from the cache
        col.stream_plans()            # only 3 is still unbuilt
        col.stream_plans_range(0, 4)
        assert len(calls) == col.n_partitions
        # And the returned plan objects are literally shared.
        assert col.stream_plans()[1] is col.stream_plans_range(1, 2)[0]


class TestPlanPlacementShapes:
    """Strategy passes always produce valid permutations/boundaries."""

    @given(matrix=sparse_matrices(), n_partitions=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_strategies_are_valid_permutations(self, matrix, n_partitions):
        for strategy in PLACEMENT_STRATEGIES:
            placement = plan_placement(strategy, matrix, n_partitions)
            placement.validate()
            assert placement.n_rows == matrix.n_rows
            assert placement.n_partitions == n_partitions
            assert np.array_equal(
                np.sort(placement.order), np.arange(matrix.n_rows)
            )
            # inverse really inverts
            if matrix.n_rows:
                assert np.array_equal(
                    placement.order[placement.inverse], np.arange(matrix.n_rows)
                )

    @given(matrix=sparse_matrices(max_rows=30), n_partitions=st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_nnz_balanced_never_worse_than_uniform(self, matrix, n_partitions):
        from repro.core.placement import row_weights  # noqa: F401 (import check)

        lengths = matrix.row_lengths().astype(np.int64)

        def imbalance(placement):
            b = placement.boundaries
            loads = [
                int(lengths[placement.order[b[p]:b[p + 1]]].sum())
                for p in range(n_partitions)
            ]
            return max(loads) if loads else 0

        uniform = plan_placement("uniform", matrix, n_partitions)
        balanced = plan_placement("nnz_balanced", matrix, n_partitions)
        assert imbalance(balanced) <= imbalance(uniform)
