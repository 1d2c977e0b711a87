"""Property suite: the lane-parallel Top-K update stage vs the tracker.

:meth:`BatchScratchpads.fold_partitions` folds every partition × query
scratchpad of an ``(n_rows, Q)`` score block as one lane set.  Its contract
is the tracker's: per lane the *slot layout* (which decides later tie
evictions), the result indices and value bytes, and the accept count equal
a loop of :meth:`TopKTracker.insert` over that lane's rows — whichever
replay schedule (lockstep or scalar) a window happens to pick, so every
property runs under both forced schedules and the measured default.

Also locked here: ``query(x)`` is ``query_batch(x[None])[0]`` — top-k bytes
and :class:`DataflowStats` — on frozen, placed, aligned-sharded and
full-board-sharded engines, and neither engine module imports the
per-query ``simulate_multicore`` walk any more.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import engine as engine_module
from repro.core.collection import compile_collection
from repro.core.engine import TopKSpmvEngine
from repro.core.kernels import BatchScratchpads, scratchpad
from repro.core.topk_tracker import TopKTracker
from repro.data.synthetic import synthetic_embeddings
from repro.hw.design import PAPER_DESIGNS
from repro.serving import ShardedEngine, sharded as sharded_module
from repro.utils.rng import sample_unit_queries

#: Forced lockstep, the shipped threshold, forced scalar.
SCHEDULES = [1, scratchpad._LOCKSTEP_MIN_WIDTH, 10**9]


def forced_schedule(min_width):
    return mock.patch.object(scratchpad, "_LOCKSTEP_MIN_WIDTH", min_width)


@st.composite
def lane_blocks(draw, values, max_parts=5, max_len=24, max_queries=4):
    """``(scores, offsets)``: unequal partition lengths, empty partitions
    and partitions shorter than any ``k`` all appear naturally."""
    lengths = draw(st.lists(st.integers(0, max_len), min_size=1, max_size=max_parts))
    n_queries = draw(st.integers(1, max_queries))
    n_rows = sum(lengths)
    flat = draw(
        st.lists(values, min_size=n_rows * n_queries, max_size=n_rows * n_queries)
    )
    scores = np.array(flat, dtype=np.float64).reshape(n_rows, n_queries)
    return scores, np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)


#: Ties at the eviction threshold on nearly every row.
small_integers = st.integers(-2, 3).map(float)
#: >= 80 % exact zeros, signed zeros included (−0.0 == 0.0 for the tracker).
mostly_zeros = st.one_of(
    st.sampled_from([0.0] * 7 + [-0.0]), st.sampled_from([0.0, 0.0, 0.5, 1.0, -1.0])
)
with_non_finite = st.sampled_from([-np.inf, np.inf, np.nan, 0.0, 0.25, 0.5, 1.0])


class LaneTrackers:
    """The oracle: one :class:`TopKTracker` per partition × query lane."""

    def __init__(self, n_parts, n_queries, k):
        self.n_queries = n_queries
        self.trackers = [TopKTracker(k) for _ in range(n_parts * n_queries)]
        self.accepts = [0] * (n_parts * n_queries)

    def fold(self, scores, offsets, first_row=0):
        for p in range(len(offsets) - 1):
            for j, row in enumerate(scores[offsets[p] : offsets[p + 1]]):
                for q, value in enumerate(row.tolist()):
                    lane = p * self.n_queries + q
                    self.accepts[lane] += self.trackers[lane].insert(
                        first_row + j, value
                    )

    def assert_matches(self, pads):
        vals, rows, accepts = pads.export_state()
        results, finish_accepts = pads.finish()
        assert accepts.tolist() == self.accepts
        assert finish_accepts.tolist() == self.accepts
        for lane, tracker in enumerate(self.trackers):
            # Slot for slot: the layout decides every later tie eviction.
            assert rows[lane].tolist() == tracker._indices.tolist()
            assert vals[lane].tobytes() == tracker._values.tobytes()
            want = tracker.result()
            assert results[lane].indices.tolist() == want.indices.tolist()
            assert results[lane].values.tobytes() == want.values.tobytes()


def check_single_fold(block, k, min_width):
    scores, offsets = block
    n_parts, n_queries = len(offsets) - 1, scores.shape[1]
    oracle = LaneTrackers(n_parts, n_queries, k)
    oracle.fold(scores, offsets)
    pads = BatchScratchpads(n_parts * n_queries, k)
    with forced_schedule(min_width):
        pads.fold_partitions(scores, offsets)
    oracle.assert_matches(pads)


class TestLaneFoldMatchesTrackers:
    @pytest.mark.parametrize("min_width", SCHEDULES)
    @given(block=lane_blocks(small_integers), k=st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_small_integer_scores(self, block, k, min_width):
        check_single_fold(block, k, min_width)

    @pytest.mark.parametrize("min_width", SCHEDULES)
    @given(block=lane_blocks(mostly_zeros), k=st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_mostly_zero_blocks(self, block, k, min_width):
        check_single_fold(block, k, min_width)

    @pytest.mark.parametrize("min_width", SCHEDULES)
    @given(block=lane_blocks(with_non_finite, max_len=10), k=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_non_finite_blocks_take_the_sequential_path(self, block, k, min_width):
        scores, offsets = block
        with mock.patch.object(
            BatchScratchpads,
            "_fold_sequential",
            autospec=True,
            side_effect=BatchScratchpads._fold_sequential,
        ) as sequential:
            check_single_fold(block, k, min_width)
        n_non_empty = int((np.diff(offsets) > 0).sum())
        if np.isfinite(scores).all():
            assert sequential.call_count == 0
        else:
            assert sequential.call_count == n_non_empty

    @pytest.mark.parametrize("min_width", SCHEDULES)
    @given(
        lengths=st.lists(st.integers(0, 12), min_size=2, max_size=4),
        n_parts=st.integers(1, 4),
        n_queries=st.integers(1, 3),
        k=st.integers(1, 6),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_incremental_folds_with_skip_rows_and_state_round_trip(
        self, lengths, n_parts, n_queries, k, data, min_width
    ):
        """Several folds of equal-length partitions with provably-rejected
        rows skipped in between, and the state exported and re-imported
        into fresh scratchpads half way."""
        oracle = LaneTrackers(n_parts, n_queries, k)
        pads = BatchScratchpads(n_parts * n_queries, k)
        first_row = 0
        for step, n in enumerate(lengths):
            flat = data.draw(
                st.lists(
                    small_integers,
                    min_size=n_parts * n * n_queries,
                    max_size=n_parts * n * n_queries,
                )
            )
            scores = np.array(flat, dtype=np.float64).reshape(n_parts * n, n_queries)
            offsets = np.arange(n_parts + 1, dtype=np.int64) * n
            oracle.fold(scores, offsets, first_row)
            with forced_schedule(min_width):
                pads.fold_partitions(scores, offsets, first_row)
            first_row += n
            # Rows strictly below every lane's threshold are rejected
            # without an accept: skipping them is bit-neutral.
            worst = float(pads.worst_thresholds().min())
            if np.isfinite(worst):
                skipped = np.full((n_parts * 3, n_queries), worst - 1.0)
                oracle.fold(
                    skipped, np.arange(n_parts + 1, dtype=np.int64) * 3, first_row
                )
                pads.skip_rows(3)
                first_row += 3
            if step == 0:
                moved = BatchScratchpads(n_parts * n_queries, k)
                moved.import_state(*pads.export_state(), seen_rows=first_row)
                pads = moved
        oracle.assert_matches(pads)

    def test_default_schedule_mixes_lockstep_and_scalar(self):
        """128 lanes: the doubling windows keep every lane busy (lockstep),
        the one-row remainder window has a single survivor (scalar) — same
        bits as the trackers."""
        rng = np.random.default_rng(3)
        n_parts, n_queries, n, k = 8, 16, 129, 8
        scores = rng.integers(0, 1000, size=(n_parts * n, n_queries)).astype(np.float64)
        offsets = np.arange(n_parts + 1, dtype=np.int64) * n
        scores[offsets[1:] - 1] = -1.0  # every partition's last row loses ...
        scores[offsets[1] - 1, 0] = 2000.0  # ... except in lane 0
        oracle = LaneTrackers(n_parts, n_queries, k)
        oracle.fold(scores, offsets)
        pads = BatchScratchpads(n_parts * n_queries, k)
        with mock.patch.object(
            BatchScratchpads,
            "_replay_scalar",
            autospec=True,
            side_effect=BatchScratchpads._replay_scalar,
        ) as scalar, mock.patch.object(
            BatchScratchpads, "_replay", autospec=True, side_effect=BatchScratchpads._replay
        ) as replay:
            pads.fold_partitions(scores, offsets)
        assert 0 < scalar.call_count < replay.call_count
        oracle.assert_matches(pads)

    def test_per_query_fold_is_the_one_partition_lane_fold(self):
        """``fold`` (lanes = queries) and ``fold_partitions`` agree."""
        rng = np.random.default_rng(5)
        scores = rng.integers(0, 6, size=(90, 7)).astype(np.float64)
        lanes = BatchScratchpads(7, 4)
        lanes.fold_partitions(scores, np.array([0, 90]))
        queries = BatchScratchpads(7, 4)
        queries.fold(scores.T, 0)  # a strided view, screened in place
        for got, want in zip(lanes.export_state(), queries.export_state()):
            assert got.tobytes() == want.tobytes()

    def test_lane_count_mismatch_is_rejected(self):
        pads = BatchScratchpads(6, 2)
        with pytest.raises(ValueError, match="lanes"):
            pads.fold_partitions(np.zeros((4, 2)), np.array([0, 2, 4]))


# ---------------------------------------------------------------------- #
# fold(row_ids=): renamed rows in arrival order, and the evicted-value tracker
# ---------------------------------------------------------------------- #
class TestRenamedRowsAndEvictedValues:
    @pytest.mark.parametrize("min_width", SCHEDULES)
    @given(
        lengths=st.lists(st.integers(0, 30), min_size=1, max_size=4),
        n_queries=st.integers(1, 9),
        k=st.integers(1, 6),
        first_row=st.integers(0, 50),
        values=st.sampled_from([small_integers, with_non_finite]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_permuted_ids_match_a_tracker_loop(
        self, lengths, n_queries, k, first_row, values, data, min_width
    ):
        """Incremental ``fold(row_ids=perm)`` calls with provably-rejected
        rows skipped in between: slots, accepts and results equal trackers
        offered the permuted ids in column order, and ``evicted_values`` is
        the largest value each tracker ever dropped (``nonfinite_lanes``
        the lanes ever offered a NaN or ±inf)."""
        trackers = [TopKTracker(k) for _ in range(n_queries)]
        accepts = [0] * n_queries
        dropped = [-np.inf] * n_queries
        non_finite = [False] * n_queries

        def offer(lane, row, value):
            non_finite[lane] |= not np.isfinite(value)
            worst = float(trackers[lane]._values.min())
            if trackers[lane].insert(row, value):
                accepts[lane] += 1
                dropped[lane] = max(dropped[lane], worst)

        pads = BatchScratchpads(n_queries, k)
        for n in lengths:
            flat = data.draw(
                st.lists(values, min_size=n_queries * n, max_size=n_queries * n)
            )
            scores = np.array(flat, dtype=np.float64).reshape(n_queries, n)
            ids = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
            for lane in range(n_queries):
                for j in range(n):
                    offer(lane, first_row + int(ids[j]), float(scores[lane, j]))
            with forced_schedule(min_width):
                pads.fold(scores, first_row, ids)
            first_row += n
            worst = float(pads.worst_thresholds().min())
            if np.isfinite(worst):
                for lane in range(n_queries):
                    for j in range(3):
                        offer(lane, first_row + j, worst - 1.0)
                pads.skip_rows(3)
                first_row += 3
        vals, rows, got_accepts = pads.export_state()
        results, _ = pads.finish()
        assert got_accepts.tolist() == accepts
        assert pads.evicted_values().tolist() == dropped
        assert pads.nonfinite_lanes().tolist() == non_finite
        for lane, tracker in enumerate(trackers):
            assert rows[lane].tolist() == tracker._indices.tolist()
            assert vals[lane].tobytes() == tracker._values.tobytes()
            want = tracker.result()
            assert results[lane].indices.tolist() == want.indices.tolist()
            assert results[lane].values.tobytes() == want.values.tobytes()

    def test_import_without_evicted_assumes_a_dropped_tie(self):
        """An importer that does not report what it dropped must not be
        able to hide a boundary tie from the guard."""
        pads = BatchScratchpads(2, 2)
        pads.fold(np.array([[3.0, 1.0, 2.0], [1.0, 1.0, 1.0]]), 0)
        assert pads.evicted_values().tolist() == [1.0, 1.0]
        moved = BatchScratchpads(2, 2)
        moved.import_state(*pads.export_state())
        assert moved.evicted_values().tolist() == moved.worst_thresholds().tolist()
        kept = BatchScratchpads(2, 2)
        kept.import_state(*pads.export_state(), evicted=pads.evicted_values())
        assert kept.evicted_values().tolist() == [1.0, 1.0]


# ---------------------------------------------------------------------- #
# query == one-row query_batch, on every engine shape
# ---------------------------------------------------------------------- #
def _matrix():
    return synthetic_embeddings(
        n_rows=900, n_cols=64, avg_nnz=6, distribution="uniform", seed=11
    )


ENGINES = {
    "frozen": lambda: TopKSpmvEngine(_matrix(), design=PAPER_DESIGNS["20b"]),
    "placed": lambda: TopKSpmvEngine(
        compile_collection(_matrix(), PAPER_DESIGNS["20b"], placement="skew")
    ),
    "aligned-sharded": lambda: ShardedEngine(
        _matrix(), n_shards=4, design=PAPER_DESIGNS["20b"]
    ),
    "full-board-sharded": lambda: ShardedEngine(
        _matrix(), n_shards=3, design=PAPER_DESIGNS["20b"], cores_per_shard=4
    ),
}


@pytest.mark.parametrize("shape", sorted(ENGINES))
def test_query_is_a_one_row_batch(shape):
    engine = ENGINES[shape]()
    for x in sample_unit_queries(np.random.default_rng(2), 6, 64):
        for top_k in (1, 10):
            single = engine.query(x, top_k)
            batch = engine.query_batch(x[None, :], top_k)
            assert single.topk.indices.tobytes() == batch.topk[0].indices.tobytes()
            assert single.topk.values.tobytes() == batch.topk[0].values.tobytes()
            assert single.dataflow == batch.dataflow[0]


def test_engines_no_longer_walk_the_streams_per_query():
    assert not hasattr(engine_module, "simulate_multicore")
    assert not hasattr(sharded_module, "simulate_multicore")
