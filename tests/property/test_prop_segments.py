"""Property suite: segmented collections == recompiled-from-scratch, bitwise.

The headline guarantee of the mutable-collection layer (ISSUE-5): after
*any* sequence of ingest / update / delete / seal / compact operations, a
:class:`~repro.core.segments.SegmentedCollection`'s query results are
bit-identical — indices and float bit patterns — to a fresh
``compile_collection`` of the equivalent final matrix queried through the
same multi-segment driver, whichever fold each segment takes (gate-engaged
contraction included), for every design codec (fixed / signed / float32).

A model (an ordered list of ``(key, row)`` pairs mirroring the documented
ordering semantics: live rows in segment order then delta order, updates
move to the end) independently predicts both the key ordering and the
equivalent final matrix, so the collection's own bookkeeping is verified
too, not just used.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collection import compile_collection
from repro.core.kernels import run_segmented
from repro.core.segments import SegmentedCollection
from repro.formats.csr import CSRMatrix
from repro.hw.design import AcceleratorDesign

#: Small design points covering every codec family (cores kept low so tiny
#: collections still exercise multi-row partitions).
DESIGNS = {
    "fixed20": AcceleratorDesign(
        name="seg 20b", value_bits=20, arithmetic="fixed", cores=3,
        local_k=4, max_columns=64, rows_per_packet=5,
    ),
    "signed20": AcceleratorDesign(
        name="seg s20", value_bits=20, arithmetic="signed", cores=3,
        local_k=4, max_columns=64, rows_per_packet=5,
    ),
    "float32": AcceleratorDesign(
        name="seg f32", value_bits=32, arithmetic="float", cores=3,
        local_k=4, max_columns=64, rows_per_packet=5,
    ),
}


@st.composite
def rows_strategy(draw, n_cols, min_rows=0, max_rows=12):
    """A batch of sparse rows on the fixed-point grid (ties appear freely)."""
    n_rows = draw(st.integers(min_rows, max_rows))
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
    return rows


class _Model:
    """Ordered (key, row) list mirroring the documented semantics."""

    def __init__(self):
        self.entries = []  # list of (key, (indices, values))

    def keys(self):
        return [k for k, _ in self.entries]

    def ingest(self, keys, rows):
        self.entries.extend(zip(keys, rows))

    def delete(self, key):
        self.entries = [(k, r) for k, r in self.entries if k != key]

    def update(self, key, row):
        self.delete(key)
        self.entries.append((key, row))

    def matrix(self, n_cols):
        return CSRMatrix.from_rows([r for _, r in self.entries], n_cols=n_cols)


def apply_ops(collection, model, ops, data, n_cols):
    """Drive a random op sequence through both the collection and the model."""
    for op in ops:
        if op == "ingest":
            rows = data.draw(rows_strategy(n_cols, min_rows=1), label="ingest rows")
            keys = collection.ingest(rows)
            model.ingest(keys.tolist(), rows)
        elif op == "delete" and model.entries:
            key = data.draw(
                st.sampled_from(model.keys()), label="delete key"
            )
            collection.delete(key)
            model.delete(key)
        elif op == "update" and model.entries:
            key = data.draw(st.sampled_from(model.keys()), label="update key")
            row = data.draw(rows_strategy(n_cols, min_rows=1, max_rows=1))[0]
            collection.update(key, row)
            model.update(key, row)
        elif op == "seal":
            collection.seal()
        elif op == "compact":
            keep = data.draw(
                st.sampled_from([None, 1, 8]), label="keep_clean_over"
            )
            collection.compact(keep_clean_over=keep)


def query_block(data, n_cols, design):
    n_queries = data.draw(st.integers(1, 3), label="n_queries")
    flat = data.draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False, width=32),
            min_size=n_queries * n_cols, max_size=n_queries * n_cols,
        ),
        label="queries",
    )
    X = np.array(flat, dtype=np.float64).reshape(n_queries, n_cols)
    return design.quantize_query(X)


def assert_results_identical(got, want, context=""):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.indices.tolist() == w.indices.tolist(), context
        assert g.values.tobytes() == w.values.tobytes(), context


class TestSegmentedEqualsRecompiled:
    @pytest.mark.parametrize("design_key", sorted(DESIGNS))
    @given(
        ops=st.lists(
            st.sampled_from(["ingest", "delete", "update", "seal", "compact"]),
            min_size=1, max_size=8,
        ),
        seal_rows=st.integers(2, 40),
        top_k=st.integers(1, 12),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_op_sequences(self, design_key, ops, seal_rows, top_k, data):
        design = DESIGNS[design_key]
        n_cols = data.draw(st.integers(4, 24), label="n_cols")
        initial = data.draw(rows_strategy(n_cols, max_rows=20), label="initial")
        model = _Model()
        collection = SegmentedCollection.from_matrix(
            CSRMatrix.from_rows(initial, n_cols=n_cols),
            design,
            seal_rows=seal_rows,
        )
        model.ingest(list(range(len(initial))), initial)
        apply_ops(collection, model, ops, data, n_cols)

        # The collection's bookkeeping must match the model's prediction.
        assert collection.live_keys().tolist() == model.keys()
        expected = model.matrix(n_cols)
        assert collection.n_live == expected.n_rows
        got_matrix = collection.matrix
        assert got_matrix.indptr.tolist() == expected.indptr.tolist()
        assert got_matrix.indices.tolist() == expected.indices.tolist()
        assert got_matrix.data.tobytes() == expected.data.tobytes()

        # Query equivalence: mutated collection vs fresh compile of the
        # equivalent final matrix, through the same driver.
        X = query_block(data, n_cols, design)
        fresh = SegmentedCollection.from_collection(
            compile_collection(expected, design)
        )
        got = run_segmented(collection, X, top_k)
        want = run_segmented(fresh, X, top_k)
        assert_results_identical(got.results, want.results, design_key)

    @given(
        ops=st.lists(
            st.sampled_from(["ingest", "delete", "update", "seal"]),
            min_size=1, max_size=6,
        ),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_compaction_is_invisible_to_queries(self, ops, data):
        """compact() at any point never changes any result bit."""
        design = DESIGNS["fixed20"]
        n_cols = 16
        initial = data.draw(rows_strategy(n_cols, max_rows=15), label="initial")
        model = _Model()
        collection = SegmentedCollection.from_matrix(
            CSRMatrix.from_rows(initial, n_cols=n_cols), design, seal_rows=4
        )
        model.ingest(list(range(len(initial))), initial)
        apply_ops(collection, model, ops, data, n_cols)
        X = query_block(data, n_cols, design)
        before = run_segmented(collection, X, top_k=6)
        collection.compact()
        assert collection.n_segments <= 1
        after = run_segmented(collection, X, top_k=6)
        assert_results_identical(before.results, after.results, "compact")
        assert collection.live_keys().tolist() == model.keys()

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_single_segment_wrap_is_migration_free(self, data):
        """Wrapping a frozen artifact adopts it verbatim (its digest kept),
        while the collection's own digest is namespaced so frozen and
        segmented result caches never collide."""
        design = DESIGNS["fixed20"]
        n_cols = 12
        rows = data.draw(rows_strategy(n_cols, min_rows=1, max_rows=15))
        matrix = CSRMatrix.from_rows(rows, n_cols=n_cols)
        compiled = compile_collection(matrix, design)
        wrapped = SegmentedCollection.from_collection(compiled)
        assert wrapped.segments[0].digest == compiled.digest
        assert wrapped.digest != compiled.digest
        assert wrapped.generation == 0
        assert wrapped.live_keys().tolist() == list(range(matrix.n_rows))
