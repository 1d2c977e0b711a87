"""Property suite: the sorted-run walk's float32 SpMM screen keeps the bits.

Every segment walks its sorted run; a chunk too large to gather cheaply is
scored by one float32 SpMM, screened with that SpMM's error bound as
margin, and only the survivors are rescored exactly
(:func:`~repro.core.kernels.streaming.fold_run`).  The answer must still
be exactly :func:`~repro.core.reference.topk_from_scores` of the quantised
scores.

The directed cases make the margin load-bearing: two rows whose float32
SpMM scores rank them the other way round from their exact scores,
straddling the K-th place.  With the margin the exact row wins; with the
slack forced to 1.0 (margin 0) the screen drops it and the answer is
wrong — so the margin is what keeps the bits, not luck.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.collection import compile_collection
from repro.core.engine import TopKSpmvEngine
from repro.core.kernels import Queries, run_segmented, streaming
from repro.core.kernels.gather import plan_row_scores
from repro.core.reference import topk_from_scores
from repro.core.segments import SegmentedCollection
from repro.formats.csr import CSRMatrix
from repro.hw.design import PAPER_DESIGNS

DESIGN = PAPER_DESIGNS["20b"]
N_COLS = 8
TOP_K = 3
#: Queries per block: enough that the chunk after the first is past the
#: gather budget, so the walk scores it by SpMM.
N_QUERIES = 64

#: Two one-lane rows, ``(column, raw value, raw query)`` on the 2^-19 value
#: and 2^-31 query grids: row ``LOW`` scores below row ``HIGH`` exactly,
#: but rounding the query to float32 ranks it above.
LOW, HIGH = (0, 141446, 345426681), (1, 161391, 302738210)

#: Rows by walk position: 1024 zero-scoring decoys are heaviest, so the
#: first chunk scores all of them 0 and rules nothing out, and the whole
#: run is one SpMM block.  After them, each special row leads its own
#: 64-row screen group, padded by zero-scoring spacers of weights between.
N_DECOYS, GROUP = 1024, 64
A_ROW = N_DECOYS
B_ROW = A_ROW + GROUP
HIGH_ROW = B_ROW + GROUP
LOW_ROW = HIGH_ROW + GROUP


def exact_scores(matrix, X, design=DESIGN) -> np.ndarray:
    """``(Q, n_rows)`` reference score bits of ``X`` against ``matrix``."""
    queries = Queries.of(X, design.accumulate_dtype)
    plans = compile_collection(matrix, design).stream_plans()
    return np.concatenate(
        [plan_row_scores(queries, plan) for plan in plans if plan.n_rows], axis=1
    )


def float32_spmm(matrix, X) -> np.ndarray:
    """``(n_rows, Q)`` float32 SpMM scores of ``X`` against ``matrix``."""
    csr = sp.csr_matrix(
        (matrix.data.astype(np.float32), matrix.indices, matrix.indptr),
        shape=(matrix.n_rows, matrix.n_cols),
    )
    return csr @ X.astype(np.float32).T


def assert_topk_from_scores(results, scores, top_k):
    for got, row_scores in zip(results, scores):
        want = topk_from_scores(row_scores, top_k)
        assert got.indices.tolist() == want.indices.tolist()
        assert got.values.tobytes() == want.values.tobytes()


def near_tie_case():
    """The near-tie pair for third place behind two clear winners, each of
    the four leading its own screen group (module constants), then low
    fillers; one query repeated ``N_QUERIES`` times."""

    def on_grid(value):
        return np.array([round(value * 2**19) / 2**19])

    def zero_scoring(value):  # column 5 meets a zero query coordinate
        return (np.array([5]), on_grid(value))

    rows = [zero_scoring(0.9)] * N_DECOYS
    rows.append((np.array([2]), np.array([0.75])))
    rows += [zero_scoring(0.7)] * (GROUP - 1)
    rows.append((np.array([3]), np.array([0.5])))
    rows += [zero_scoring(0.45)] * (GROUP - 1)
    rows.append((np.array([HIGH[0]]), np.array([HIGH[1] / 2**19])))
    rows += [zero_scoring(0.29)] * (GROUP - 1)
    rows.append((np.array([LOW[0]]), np.array([LOW[1] / 2**19])))
    rows += [(np.array([4]), np.array([1.0 / 1024]))] * 1024
    x = np.zeros(N_COLS)
    x[2], x[3], x[4] = 0.5, 0.5, 1.0 / 16
    for col, _, raw_x in (LOW, HIGH):
        x[col] = raw_x / 2**31
    return CSRMatrix.from_rows(rows, n_cols=N_COLS), np.repeat(x[None], N_QUERIES, 0)


class TestTheMarginIsLoadBearing:
    def test_the_case_is_misordered_by_float32(self):
        matrix, X = near_tie_case()
        assert np.array_equal(DESIGN.quantize_query(X), X)  # already on grid
        exact = exact_scores(matrix, X[:1])[0]
        approx = float32_spmm(matrix, X[:1])[:, 0]
        assert exact[HIGH_ROW] > exact[LOW_ROW]
        assert approx[HIGH_ROW] < approx[LOW_ROW]
        # ...and the pair straddles the K-th place.
        assert np.argsort(-exact, kind="stable")[TOP_K - 1] == HIGH_ROW
        assert np.argsort(-approx, kind="stable")[TOP_K - 1] == LOW_ROW

    def test_query_batch_returns_the_exact_answer(self):
        matrix, X = near_tie_case()
        engine = TopKSpmvEngine(compile_collection(matrix, DESIGN))
        got = engine.query_batch(X, TOP_K)
        assert_topk_from_scores(got.topk, exact_scores(matrix, X), TOP_K)
        assert HIGH_ROW in got.topk[0].indices

        out = run_segmented(
            SegmentedCollection.from_matrix(matrix, DESIGN), X, TOP_K
        )
        assert out.segment_kernels == ("streaming",)
        assert out.rescored_rows > 0  # the SpMM screen served the pair
        assert_topk_from_scores(out.results, exact_scores(matrix, X), TOP_K)

    def test_without_the_margin_the_answer_is_wrong(self, monkeypatch):
        monkeypatch.setattr(streaming, "_slack", lambda n, dtype: 1.0)
        matrix, X = near_tie_case()
        engine = TopKSpmvEngine(compile_collection(matrix, DESIGN))
        got = engine.query_batch(X, TOP_K).topk[0]
        assert HIGH_ROW not in got.indices and LOW_ROW in got.indices
        with pytest.raises(AssertionError):
            assert_topk_from_scores([got], exact_scores(matrix, X[:1]), TOP_K)


#: The walk's budgets: as shipped, and with every chunk after the first K
#: rows past the gather budget, so it is scored by SpMM and screened.
BUDGETS = {
    "default": {"_CHUNK_BYTES": streaming._CHUNK_BYTES},
    "spmm": {"_CHUNK_BYTES": 0},
}


@st.composite
def grid_collections(draw):
    """A 20b segmented collection on grid values — several sealed segments,
    some tombstones, maybe a delta — and a grid query block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_cols = draw(st.integers(2, 12))
    # A small value pool makes ties and near-ties across rows common.
    pool = rng.integers(1, 2**19, size=draw(st.integers(1, 40)))

    def block(n_rows):
        rows = []
        for _ in range(n_rows):
            length = int(rng.integers(1, min(n_cols, 3) + 1))
            cols = np.sort(rng.choice(n_cols, size=length, replace=False))
            rows.append((cols, rng.choice(pool, size=length) / 2**19))
        return CSRMatrix.from_rows(rows, n_cols=n_cols)

    sizes = draw(st.lists(st.integers(1, 400), min_size=1, max_size=4))
    collection = SegmentedCollection.from_matrix(block(sizes[0]), DESIGN)
    for n_rows in sizes[1:]:
        collection.ingest(block(n_rows))
        if draw(st.booleans()):
            collection.seal()
    n_dead = draw(st.integers(0, collection.n_live - 1))
    if n_dead:
        keys = collection.live_keys()
        collection.delete(rng.choice(keys, size=n_dead, replace=False))
    n_queries = draw(st.integers(1, 4))
    X = rng.integers(0, 2**31, size=(n_queries, n_cols)) / 2**31
    return collection, X


class TestGridProperty:
    @pytest.mark.parametrize("budgets", sorted(BUDGETS))
    @given(case=grid_collections(), top_k=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_same_bits_as_topk_from_scores(self, budgets, case, top_k):
        collection, X = case
        with mock.patch.multiple(streaming, **BUDGETS[budgets]):
            out = run_segmented(collection, X, top_k)
        assert set(out.segment_kernels) == {"streaming"}
        assert_topk_from_scores(
            out.results, exact_scores(collection.matrix, X), top_k
        )


F32 = PAPER_DESIGNS["f32"]


@st.composite
def f32_crossings(draw):
    """A float32 collection whose two rows ``high`` and ``low`` cross at
    the K-th place: ``high`` scores above ``low`` exactly (the reference's
    pairwise float32 sum) but below it by float32 SpMM (a sequential sum).

    ``high`` has several lanes of mixed sign and magnitude, so the two
    summation orders round apart; ``low`` scores a float32 strictly
    between the two.  Column 0 meets a query coordinate of 1 and column 1
    one of 0, so ballast on column 1 orders the rows by weight without
    moving a score: the ``K − 1`` winners are heaviest, then ``low``, then
    ``high``, then fillers scoring below ``low``.  The first chunk of K
    rows therefore puts ``low``'s exact score in the pads, and ``high`` is
    screened against it.  Returns the matrix, the query, ``K`` and the two
    rows' ids.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_cols = 16
    x = np.concatenate([[1.0, 0.0], rng.uniform(0.25, 1.0, n_cols - 2)])
    x = x.astype(np.float32)
    for _ in range(64):
        n_lanes = int(rng.integers(3, n_cols - 1))
        cols = np.sort(rng.choice(np.arange(2, n_cols), n_lanes, replace=False))
        scales = 2.0 ** rng.integers(-6, 7, n_lanes)
        values = (rng.uniform(-1.0, 1.0, n_lanes) * scales).astype(np.float32)
        products = x[cols] * values
        exact = np.add.reduceat(products, [0])[0]
        approx = np.float32(0)
        for p in products:
            approx = np.float32(approx + p)
        low = np.nextafter(approx, exact)
        if 0 < approx < low < exact:
            break
    else:
        assume(False)
    weight = float(np.abs(values).sum())
    n_winners = draw(st.integers(0, 4))
    rows = [
        (np.array([0, 1]), np.array([4.0 * exact + i, 4.0 * weight + i]))
        for i in range(n_winners)
    ]
    rows.append((np.array([0, 1]), np.array([low, 2.0 * weight])))
    rows.append((cols, values.astype(np.float64)))
    for _ in range(draw(st.integers(0, 60))):
        filler = np.sort(rng.choice(np.arange(2, n_cols), 3, replace=False))
        rows.append((filler, rng.uniform(0.0, float(low) / 8, 3)))
    order = rng.permutation(len(rows))
    matrix = CSRMatrix.from_rows([rows[i] for i in order], n_cols=n_cols)
    where = np.argsort(order)
    return matrix, x.astype(np.float64)[None], n_winners + 1, (
        int(where[n_winners + 1]),
        int(where[n_winners]),
    )


class TestFloat32Crossings:
    @pytest.mark.parametrize("budgets", sorted(BUDGETS))
    @given(case=f32_crossings())
    @settings(max_examples=60, deadline=None)
    def test_rows_that_cross_at_the_kth_place_are_answered_exactly(
        self, budgets, case
    ):
        matrix, X, top_k, (high, low) = case
        exact = exact_scores(matrix, X, F32)
        approx = float32_spmm(matrix, X)[:, 0]
        assert exact[0, high] > exact[0, low] and approx[high] < approx[low]
        assert np.argsort(-exact[0], kind="stable")[top_k - 1] == high
        with mock.patch.multiple(streaming, **BUDGETS[budgets]):
            out = TopKSpmvEngine(compile_collection(matrix, F32)).query_batch(
                X, top_k
            )
        assert_topk_from_scores(out.topk, exact, top_k)
        assert high in out.topk[0].indices
