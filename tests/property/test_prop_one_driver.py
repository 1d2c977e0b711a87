"""Property suite: one answer per query, whichever engine serves it.

``query``/``query_batch`` run one driver
(:func:`~repro.core.kernels.segmented.run_segmented`) on every collection
type, and return exactly :func:`~repro.core.reference.topk_from_scores` of
the quantised scores — value descending, NaN below −inf, ties by ascending
row.  So on tie-heavy grids these five must return that oracle's bits —
indices and float bit patterns — at every ``K`` from 1 to ``n_rows``, for
every codec and placement:

* ``TopKSpmvEngine(artifact)`` — a frozen artifact;
* ``TopKSpmvEngine(SegmentedCollection.from_collection(artifact))`` — the
  same artifact wrapped as one segment;
* ``TopKSpmvEngine(SegmentedCollection.from_matrix(matrix))`` — a fresh,
  unplaced segmented compile;
* ``ShardedEngine(artifact, n_shards=2)`` — an aligned fleet;
* ``ShardedEngine(artifact, n_shards=2, cores_per_shard=2)`` — a full-board
  fleet, one segment per shard.

So must a mutated segmented collection (tombstones, a sealed tail, a
delta) and a NaN/±inf query.

The paper's per-core approximation survives as ``query_candidates``: for
``K <= local_k`` every global top-``K`` row ranks ``<= local_k`` in its own
core, so the host merge of those candidates is the engine's answer.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx import merge_topk_candidates
from repro.core.collection import compile_collection
from repro.core.engine import TopKSpmvEngine
from repro.core.kernels import Queries, run_segmented
from repro.core.kernels.gather import plan_row_scores
from repro.core.reference import topk_from_scores
from repro.core.segments import SegmentedCollection
from repro.data.synthetic import synthetic_embeddings
from repro.formats.csr import CSRMatrix
from repro.hw.design import PAPER_DESIGNS, AcceleratorDesign
from repro.serving.sharded import ShardedEngine
from repro.utils.rng import sample_unit_queries

#: Every codec family, with few cores and a shallow ``local_k`` so small
#: matrices still give multi-row partitions whose candidates get cut.
DESIGNS = {
    name: replace(PAPER_DESIGNS[name], cores=3, local_k=2)
    for name in ("20b", "32b", "f32")
}
DESIGNS["exact64"] = AcceleratorDesign(
    name="exact64", value_bits=64, arithmetic="fixed", cores=3, local_k=2,
    max_columns=64,
)


@st.composite
def sparse_matrices(draw, max_rows=24, max_cols=12, n_cols=None):
    """Small grid-valued CSR matrices (at least one row; empty rows and
    duplicate rows appear naturally)."""
    n_rows = draw(st.integers(1, max_rows))
    n_cols = n_cols or draw(st.integers(1, max_cols))
    rows = []
    for _ in range(n_rows):
        length = draw(st.integers(0, min(n_cols, 6)))
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


def query_block(seed: int, n_cols: int, ties: bool) -> np.ndarray:
    """Three queries; ``ties`` puts them on a coarse grid so scores tie."""
    rng = np.random.default_rng(seed)
    if ties:
        return rng.integers(0, 3, size=(3, n_cols)) / 2.0
    return rng.random((3, n_cols))


def assert_same_bits(got, want, label):
    assert len(got) == len(want), label
    for g, w in zip(got, want):
        assert g.indices.tolist() == w.indices.tolist(), label
        assert g.values.tobytes() == w.values.tobytes(), label


def quantised_scores(matrix, design, X) -> np.ndarray:
    """``(Q, n_rows)`` score bits of quantised queries ``X`` against the
    quantised ``matrix``, in row order: the reference kernel's arithmetic
    on a fresh identity compile (the kernel suite locks it to
    ``run_fast``)."""
    queries = Queries.of(X, design.accumulate_dtype)
    plans = compile_collection(matrix, design).stream_plans()
    return np.concatenate(
        [plan_row_scores(queries, plan) for plan in plans if plan.n_rows], axis=1
    )


def assert_topk_from_scores(results, scores, top_k, label):
    want = [topk_from_scores(row, top_k) for row in scores]
    assert_same_bits(results, want, f"{label} K={top_k}")


#: The five engines of the module docstring, each built from an artifact
#: (and, for the fresh segmented compile, its matrix and design).
ENGINE_FORMS = {
    "frozen": lambda art, matrix, design: TopKSpmvEngine(art),
    "one-segment": lambda art, matrix, design: TopKSpmvEngine(
        SegmentedCollection.from_collection(art)
    ),
    "fresh-segmented": lambda art, matrix, design: TopKSpmvEngine(
        SegmentedCollection.from_matrix(matrix, design)
    ),
    "aligned-fleet": lambda art, matrix, design: ShardedEngine(art, n_shards=2),
    "full-board-fleet": lambda art, matrix, design: ShardedEngine(
        art, n_shards=2, cores_per_shard=2
    ),
}


def check_every_engine(matrix, codec, placement, X):
    design = DESIGNS[codec]
    artifact = compile_collection(matrix, design, placement=placement)
    engines = {
        name: build(artifact, matrix, design)
        for name, build in ENGINE_FORMS.items()
    }
    scores = quantised_scores(matrix, design, design.quantize_query(X))
    for top_k in range(1, matrix.n_rows + 1):
        for name, engine in engines.items():
            got = engine.query_batch(X, top_k).topk
            assert_topk_from_scores(got, scores, top_k, f"{name} {codec}/{placement}")
    # query is a one-row query_batch on every engine.
    for name, engine in engines.items():
        got = engine.query(X[0], matrix.n_rows).topk
        assert_topk_from_scores([got], scores[:1], matrix.n_rows, f"{name} query")


def check_mutated(matrix, tail, dead, codec, placement, X):
    """Tombstones on the base segment, a sealed tail segment and a delta."""
    design = DESIGNS[codec]
    collection = SegmentedCollection.from_collection(
        compile_collection(matrix, design, placement=placement)
    )
    collection.ingest(tail)
    collection.seal()
    collection.ingest(tail)
    collection.delete(dead)
    X = design.quantize_query(X)
    scores = quantised_scores(collection.matrix, design, X)
    for top_k in range(1, collection.n_live + 1):
        got = run_segmented(collection, X, top_k).results
        assert_topk_from_scores(got, scores, top_k, f"mutated {codec}/{placement}")


class TestOneAnswer:
    @given(
        matrix=sparse_matrices(),
        codec=st.sampled_from(sorted(DESIGNS)),
        placement=st.sampled_from(["uniform", "skew"]),
        seed=st.integers(0, 2**31),
        ties=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_engine_is_topk_from_scores_at_every_k(
        self, matrix, codec, placement, seed, ties
    ):
        X = query_block(seed, matrix.n_cols, ties)
        check_every_engine(matrix, codec, placement, X)

    @given(
        matrix=sparse_matrices(),
        codec=st.sampled_from(sorted(DESIGNS)),
        placement=st.sampled_from(["uniform", "skew"]),
        seed=st.integers(0, 2**31),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_mutated_collection_is_topk_from_scores_at_every_k(
        self, matrix, codec, placement, seed, data
    ):
        tail = data.draw(sparse_matrices(max_rows=6, n_cols=matrix.n_cols))
        dead = data.draw(
            st.lists(st.integers(0, matrix.n_rows - 1), max_size=8, unique=True)
        )
        X = query_block(seed, matrix.n_cols, True)
        check_mutated(matrix, tail, dead, codec, placement, X)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("placement", ["uniform", "skew"])
    @pytest.mark.parametrize("form", sorted(ENGINE_FORMS))
    def test_non_finite_query_is_topk_from_scores(self, bad, placement, form):
        """NaN ranks below −inf and ±inf compare as usual, on every path —
        a query coordinate of ``bad`` turns some scores NaN or ±inf.  The
        block goes straight to each engine's query view: the fixed-point
        query quantiser would not keep a non-finite coordinate."""
        matrix = synthetic_embeddings(60, 16, 5, seed=3)
        design = DESIGNS["20b"]
        engine = ENGINE_FORMS[form](
            compile_collection(matrix, design, placement=placement), matrix, design
        )
        X = design.quantize_query(sample_unit_queries(np.random.default_rng(3), 3, 16))
        X[0, 2] = bad
        X[1, :] = bad
        scores = quantised_scores(matrix, design, X)
        assert not np.isfinite(scores[:2]).all()
        for top_k in (1, 5, 60):
            got = run_segmented(engine._query_view, X, top_k).results
            assert_topk_from_scores(got, scores, top_k, f"{bad} {placement}/{form}")


def grid_corpus(n_rows=2000, n_cols=32, seed=0) -> CSRMatrix:
    """Grid values on a random sparsity pattern: with grid queries, most
    queries tie at their K-th score."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_rows):
        cols = np.sort(rng.choice(n_cols, size=int(rng.integers(1, 7)), replace=False))
        rows.append((cols, rng.integers(1, 5, size=len(cols)) / 8.0))
    return CSRMatrix.from_rows(rows, n_cols=n_cols)


@pytest.mark.parametrize("codec", ["20b", "f32"])
@pytest.mark.parametrize("placement", ["uniform", "skew"])
@pytest.mark.parametrize("form", sorted(ENGINE_FORMS))
def test_grid_corpus_is_topk_from_scores(codec, placement, form):
    """Long blocks take the grouped screen (a K-th value bounded by group
    maxima): still exactly ``topk_from_scores`` with ties everywhere, on
    every engine."""
    design = DESIGNS[codec]
    matrix = grid_corpus()
    X = np.random.default_rng(1).integers(0, 3, size=(50, 32)) / 2.0
    engine = ENGINE_FORMS[form](
        compile_collection(matrix, design, placement=placement), matrix, design
    )
    scores = quantised_scores(matrix, design, design.quantize_query(X))
    for top_k in (1, 10, 64):
        got = engine.query_batch(X, top_k).topk
        assert_topk_from_scores(got, scores, top_k, f"{form} {codec}/{placement}")


@pytest.mark.parametrize("codec", ["20b", "f32"])
@pytest.mark.parametrize("placement", ["uniform", "skew"])
def test_mutated_grid_corpus_is_topk_from_scores(codec, placement):
    """The grouped screen with tombstones on the base segment and a delta
    behind it."""
    design = DESIGNS[codec]
    X = np.random.default_rng(1).integers(0, 3, size=(50, 32)) / 2.0
    collection = SegmentedCollection.from_collection(
        compile_collection(grid_corpus(), design, placement=placement)
    )
    collection.delete(list(range(0, 2000, 7)))
    collection.ingest(grid_corpus(40, seed=2))
    Xq = design.quantize_query(X)
    mutated = quantised_scores(collection.matrix, design, Xq)
    for top_k in (1, 10, 64):
        got = run_segmented(collection, Xq, top_k).results
        assert_topk_from_scores(got, mutated, top_k, f"mutated {codec}/{placement}")


class TestBridgeToThePaperModel:
    """``query_candidates`` keeps the per-core approximation; merged at
    ``K <= local_k`` it is the engine's answer (continuous scores, so no
    K-th-value tie makes the surviving row order-dependent)."""

    @pytest.mark.parametrize("codec", sorted(DESIGNS))
    @given(seed=st.integers(0, 2**31), placement=st.sampled_from([None, "skew"]))
    @settings(max_examples=10, deadline=None)
    def test_merged_candidates_equal_query(self, codec, seed, placement):
        design = DESIGNS[codec]
        matrix = synthetic_embeddings(60, 16, 5, seed=seed)
        engine = TopKSpmvEngine(
            compile_collection(matrix, design, placement=placement)
        )
        for x in sample_unit_queries(np.random.default_rng(seed), 3, 16):
            candidates, _ = engine.query_candidates(x)
            for top_k in range(1, design.local_k + 1):
                want = engine.query(x, top_k).topk
                got = merge_topk_candidates(candidates, top_k)
                assert_same_bits([got], [want], f"{codec} K={top_k}")


def test_frozen_engine_is_exact_past_the_per_core_depth():
    """A 4 000 x 64 ``20b`` corpus at K = 100 > local_k: on some of these
    queries a partition holds more than 8 of the true top-100, so a merge
    of per-core depth-8 candidates would lose rows.  The frozen engine must
    equal the one-segment wrap on every query."""
    matrix = synthetic_embeddings(4000, 64, 20, seed=5)
    artifact = compile_collection(matrix, PAPER_DESIGNS["20b"])
    X = sample_unit_queries(np.random.default_rng(5), 200, 64)
    got = TopKSpmvEngine(artifact).query_batch(X, 100).topk
    want = TopKSpmvEngine(
        SegmentedCollection.from_collection(artifact)
    ).query_batch(X, 100).topk
    assert_same_bits(got, want, "frozen vs one-segment at K=100")
