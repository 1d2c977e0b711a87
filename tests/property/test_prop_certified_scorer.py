"""Property suite: the certified float32 scorer returns the exact bits.

A contraction-gated segment is scored by a float32 SpMM, screened with the
SpMM's error bound as margin, and only the survivors are rescored exactly
(:mod:`repro.core.kernels.contraction`).  The answer must still be exactly
:func:`~repro.core.reference.topk_from_scores` of the quantised scores.

The directed case makes the margin load-bearing: two rows whose float32
scores rank them the other way round from their exact scores, straddling
the K-th place.  With the margin the exact row wins; with the slack forced
to 1.0 (margin 0) the screen drops it and the answer is wrong — so the
margin is what keeps the bits, not luck.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collection import compile_collection
from repro.core.engine import TopKSpmvEngine
from repro.core.kernels import Queries, contraction, run_segmented
from repro.core.kernels.gather import plan_row_scores
from repro.core.reference import topk_from_scores
from repro.core.segments import SegmentedCollection
from repro.formats.csr import CSRMatrix
from repro.hw.design import PAPER_DESIGNS

DESIGN = PAPER_DESIGNS["20b"]
N_COLS = 8
TOP_K = 3

#: Two one-lane rows, ``(column, raw value, raw query)`` on the 2^-19 value
#: and 2^-31 query grids: row ``LOW`` scores below row ``HIGH`` exactly,
#: but rounding the query to float32 ranks it above.
LOW, HIGH = (0, 141446, 345426681), (1, 161391, 302738210)


def exact_scores(matrix, X) -> np.ndarray:
    """``(Q, n_rows)`` reference score bits of ``X`` against ``matrix``."""
    queries = Queries.of(X, DESIGN.accumulate_dtype)
    plans = compile_collection(matrix, DESIGN).stream_plans()
    return np.concatenate(
        [plan_row_scores(queries, plan) for plan in plans if plan.n_rows], axis=1
    )


def assert_topk_from_scores(results, scores, top_k):
    for got, row_scores in zip(results, scores):
        want = topk_from_scores(row_scores, top_k)
        assert got.indices.tolist() == want.indices.tolist()
        assert got.values.tobytes() == want.values.tobytes()


def near_tie_case():
    """512 one-lane rows: two clear winners (rows 0 and 100), the near-tie
    pair for third place (rows 200 and 300), and low fillers — each of the
    four in its own 64-row screen group."""
    rows = [(np.array([4]), np.array([1.0 / 1024]))] * 512
    rows[0] = (np.array([2]), np.array([0.75]))
    rows[100] = (np.array([3]), np.array([0.5]))
    for at, (col, raw_v, _) in ((200, LOW), (300, HIGH)):
        rows[at] = (np.array([col]), np.array([raw_v / 2**19]))
    x = np.zeros(N_COLS)
    x[2], x[3], x[4] = 0.5, 0.5, 1.0 / 16
    for col, _, raw_x in (LOW, HIGH):
        x[col] = raw_x / 2**31
    return CSRMatrix.from_rows(rows, n_cols=N_COLS), x[None, :]


class TestTheMarginIsLoadBearing:
    def test_the_case_is_misordered_by_float32(self):
        matrix, X = near_tie_case()
        assert np.array_equal(DESIGN.quantize_query(X), X)  # already on grid
        exact = exact_scores(matrix, X)[0]
        operand = compile_collection(matrix, DESIGN).contraction_operand()
        approx = (
            contraction.certified_operand(operand, N_COLS).matrix
            @ X.astype(np.float32).T
        )[:, 0]
        assert exact[300] > exact[200] and approx[300] < approx[200]
        # ...and the pair straddles the K-th place.
        assert np.argsort(-exact, kind="stable")[TOP_K - 1] == 300
        assert np.argsort(-approx, kind="stable")[TOP_K - 1] == 200

    def test_query_batch_returns_the_exact_answer(self):
        matrix, X = near_tie_case()
        engine = TopKSpmvEngine(compile_collection(matrix, DESIGN))
        got = engine.query_batch(X, TOP_K)
        assert_topk_from_scores(got.topk, exact_scores(matrix, X), TOP_K)
        assert 300 in got.topk[0].indices

        out = run_segmented(
            SegmentedCollection.from_matrix(matrix, DESIGN), X, TOP_K
        )
        assert out.segment_kernels == ("contraction",)
        assert_topk_from_scores(out.results, exact_scores(matrix, X), TOP_K)

    def test_without_the_margin_the_answer_is_wrong(self, monkeypatch):
        monkeypatch.setattr(contraction, "_slack", lambda n, dtype: 1.0)
        matrix, X = near_tie_case()
        engine = TopKSpmvEngine(compile_collection(matrix, DESIGN))
        got = engine.query_batch(X, TOP_K).topk[0]
        assert 300 not in got.indices and 200 in got.indices
        with pytest.raises(AssertionError):
            assert_topk_from_scores([got], exact_scores(matrix, X), TOP_K)


@st.composite
def gated_collections(draw):
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


class TestCertifiedScorerProperty:
    @given(case=gated_collections(), top_k=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_same_bits_as_topk_from_scores(self, case, top_k):
        collection, X = case
        out = run_segmented(collection, X, top_k)
        assert "contraction" in out.segment_kernels
        assert_topk_from_scores(
            out.results, exact_scores(collection.matrix, X), top_k
        )
