"""Property suite: one answer per query, whichever engine serves it.

``query``/``query_batch`` run one driver
(:func:`~repro.core.kernels.segmented.run_segmented`) on every collection
type, and return the exact global Top-K of the quantised scores.  So on one
matrix these five must return the same bits — indices and float bit
patterns — at every ``K`` from 1 to ``n_rows``, for every codec and
placement:

* ``TopKSpmvEngine(artifact)`` — a frozen artifact;
* ``TopKSpmvEngine(SegmentedCollection.from_collection(artifact))`` — the
  same artifact wrapped as one segment;
* ``TopKSpmvEngine(SegmentedCollection.from_matrix(matrix))`` — a fresh,
  unplaced segmented compile;
* ``ShardedEngine(artifact, n_shards=2)`` — an aligned fleet;
* ``ShardedEngine(artifact, n_shards=2, cores_per_shard=2)`` — a full-board
  fleet, one segment per shard.

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
#: ``native`` falls back to ``streaming`` (same bits) where Numba is absent.
KERNELS = ["auto", "gather", "streaming", "contraction", "native"]


@st.composite
def sparse_matrices(draw, max_rows=24, max_cols=12):
    """Small grid-valued CSR matrices (at least one row; empty rows and
    duplicate rows appear naturally)."""
    n_rows = draw(st.integers(1, max_rows))
    n_cols = draw(st.integers(1, max_cols))
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


class TestOneAnswer:
    @given(
        matrix=sparse_matrices(),
        codec=st.sampled_from(sorted(DESIGNS)),
        placement=st.sampled_from(["uniform", "skew"]),
        kernel=st.sampled_from(KERNELS),
        seed=st.integers(0, 2**31),
        ties=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_engine_same_bits_at_every_k(
        self, matrix, codec, placement, kernel, seed, ties
    ):
        design = DESIGNS[codec]
        artifact = compile_collection(matrix, design, placement=placement)
        engines = {
            "frozen": TopKSpmvEngine(artifact, kernel=kernel),
            "one-segment": TopKSpmvEngine(
                SegmentedCollection.from_collection(artifact), kernel=kernel
            ),
            "fresh-segmented": TopKSpmvEngine(
                SegmentedCollection.from_matrix(matrix, design), kernel=kernel
            ),
            "aligned-fleet": ShardedEngine(artifact, n_shards=2, kernel=kernel),
            "full-board-fleet": ShardedEngine(
                artifact, n_shards=2, cores_per_shard=2, kernel=kernel
            ),
        }
        X = query_block(seed, matrix.n_cols, ties)
        for top_k in range(1, matrix.n_rows + 1):
            want = engines["frozen"].query_batch(X, top_k).topk
            assert all(len(r) == top_k for r in want)
            for name, engine in engines.items():
                got = engine.query_batch(X, top_k).topk
                assert_same_bits(got, want, f"{name} {codec}/{placement} K={top_k}")
        # query is a one-row query_batch on every engine.
        for name, engine in engines.items():
            got = engine.query(X[0], matrix.n_rows).topk
            assert_same_bits([got], want[:1], f"{name} query")


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
