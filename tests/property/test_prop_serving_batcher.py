"""Property suite: micro-batching dispatch invariants (hypothesis).

The example-based unit tests in ``tests/unit/test_serving_batcher.py`` pin
known scenarios; these properties assert the dispatch *contract* over
arbitrary arrival patterns (bursts, ties, unsorted, idle gaps), on a
single board served as a 1-replica ``ClusterRuntime``:

* no batch ever exceeds ``max_batch_size``;
* dispatch never precedes full-or-deadline — a partial batch leaves no
  earlier than its oldest member's deadline, no batch leaves before its
  youngest member arrives, and never while the board is busy;
* the request indices across all batches are a permutation of the input.

An O(1) stub engine keeps the search fast: these are schedule properties,
independent of the Top-K math (locked elsewhere).
"""

import numpy as np
from hypothesis import given, strategies as st

from serving_stubs import StubBatchEngine
from repro.serving.cluster import ClusterRuntime


arrival_lists = st.lists(
    st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
    min_size=1,
    max_size=40,
)

batcher_params = st.tuples(
    st.integers(min_value=1, max_value=9),        # max_batch_size
    st.sampled_from([0.0, 1e-4, 2e-3, 0.5]),      # max_wait_s
    st.sampled_from([1e-4, 1e-3]),                # stub base service time
    st.sampled_from([0.0, 5e-4]),                 # stub per-query service
)


def _run(arrivals, params):
    max_batch, max_wait, base_s, per_query_s = params
    engine = StubBatchEngine(base_s=base_s, per_query_s=per_query_s)
    runtime = ClusterRuntime(
        [engine], max_batch_size=max_batch, max_wait_s=max_wait
    )
    queries = np.ones((len(arrivals), 8))
    results, report = runtime.run(queries, np.array(arrivals), top_k=1)
    return results, report, runtime


@given(arrivals=arrival_lists, params=batcher_params)
def test_no_batch_exceeds_max_batch_size(arrivals, params):
    _, report, runtime = _run(arrivals, params)
    assert all(b.size <= runtime.max_batch_size for b in report.batches)
    assert all(b.size >= 1 for b in report.batches)


@given(arrivals=arrival_lists, params=batcher_params)
def test_dispatch_never_precedes_full_or_deadline(arrivals, params):
    _, report, runtime = _run(arrivals, params)
    arrivals = np.asarray(arrivals)
    t_free = 0.0
    for batch in report.batches:
        member_arrivals = arrivals[list(batch.indices)]
        # Never before the youngest member has arrived...
        assert batch.dispatch_s >= member_arrivals.max()
        # ...never while the board still runs the previous batch...
        assert batch.dispatch_s >= t_free
        # ...and a partial batch only on (or after) the head's deadline.
        if batch.size < runtime.max_batch_size:
            head = member_arrivals.min()
            assert batch.dispatch_s >= head + runtime.max_wait_s
        t_free = batch.completion_s


@given(arrivals=arrival_lists, params=batcher_params)
def test_batch_indices_are_a_permutation_of_the_input(arrivals, params):
    results, report, _ = _run(arrivals, params)
    dispatched = [i for b in report.batches for i in b.indices]
    assert sorted(dispatched) == list(range(len(arrivals)))
    assert len(results) == len(arrivals)
    assert report.n_queries == len(arrivals)


@given(arrivals=arrival_lists, params=batcher_params)
def test_latencies_cover_queue_wait_plus_service(arrivals, params):
    """Each request's latency is exactly its batch completion minus arrival."""
    _, report, _ = _run(arrivals, params)
    arrivals = np.asarray(arrivals)
    for batch in report.batches:
        for rid in batch.indices:
            assert report.latencies_s[rid] == batch.completion_s - arrivals[rid]


# --------------------------------------------------------------------- #
# The arrivals-win-ties rule at max_wait_s=0 (the sharpest case: every
# dispatch instant is an arrival instant, so ties are the common path,
# not a corner).  Streams are built by duplicating drawn arrival values,
# so exact float ties are guaranteed, not incidental.
# --------------------------------------------------------------------- #
tie_streams = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.02, allow_nan=False),
        st.integers(min_value=1, max_value=3),    # exact repeats of the value
    ),
    min_size=1,
    max_size=12,
).map(
    lambda groups: sorted(t for value, repeats in groups for t in [value] * repeats)
)


def _run_zero_wait(arrivals, max_batch, base_s):
    engine = StubBatchEngine(base_s=base_s, per_query_s=0.0)
    runtime = ClusterRuntime([engine], max_batch_size=max_batch, max_wait_s=0.0)
    results, report = runtime.run(
        np.ones((len(arrivals), 8)), np.array(arrivals), top_k=1
    )
    return results, report


@given(
    arrivals=tie_streams,
    max_batch=st.integers(min_value=1, max_value=4),
    base_s=st.sampled_from([0.0, 1e-3, 7e-3]),
)
def test_zero_wait_arrival_at_dispatch_instant_joins_departing_batch(
    arrivals, max_batch, base_s
):
    """A request landing exactly at a dispatch instant joins that batch.

    Contract form: if a batch left with spare capacity, then every request
    dispatched *later* arrived strictly after that batch's dispatch instant
    — an arrival at or before it (ties included) would have joined.
    """
    _, report = _run_zero_wait(arrivals, max_batch, base_s)
    arrivals = np.asarray(arrivals)
    for b, batch in enumerate(report.batches):
        if batch.size == max_batch:
            continue
        later = [i for nxt in report.batches[b + 1:] for i in nxt.indices]
        assert all(arrivals[i] > batch.dispatch_s for i in later), (
            f"batch {b} left partial at {batch.dispatch_s} although a "
            "tie-or-earlier arrival was dispatched later"
        )


@given(
    arrivals=tie_streams,
    max_batch=st.integers(min_value=1, max_value=4),
    base_s=st.sampled_from([0.0, 1e-3, 7e-3]),
)
def test_zero_wait_dispatches_at_head_or_board_free_exactly(
    arrivals, max_batch, base_s
):
    """With no coalescing window the rule degenerates to
    ``dispatch = max(head arrival, board free)`` — exactly, in floats."""
    _, report = _run_zero_wait(arrivals, max_batch, base_s)
    arrivals = np.asarray(arrivals)
    t_free = 0.0
    for batch in report.batches:
        head = arrivals[list(batch.indices)].min()
        assert batch.dispatch_s == max(head, t_free)
        t_free = batch.completion_s


@given(
    arrivals=tie_streams,
    max_batch=st.integers(min_value=1, max_value=4),
    base_s=st.sampled_from([0.0, 1e-3]),
)
def test_zero_wait_everything_is_served_once(arrivals, max_batch, base_s):
    results, report = _run_zero_wait(arrivals, max_batch, base_s)
    dispatched = [i for b in report.batches for i in b.indices]
    assert sorted(dispatched) == list(range(len(arrivals)))
    assert all(r is not None for r in results)
