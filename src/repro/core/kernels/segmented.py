"""The one query driver: per-segment sweeps, one global Top-K fold.

Every engine's ``query``/``query_batch`` runs here, on a
:class:`~repro.core.segments.SegmentedCollection` — a frozen artifact is
served as a pristine one-segment collection, and a fleet serves its parent
collection the same way.  The paper's per-core candidate path cannot serve them
all: per-partition ``local_k`` candidate sets depend on the partition
geometry, and a mutated collection's segments are partitioned differently
from the fresh ``compile_collection`` of the same logical matrix (that
path lives on behind ``query_candidates``, as the hardware model).  What
*is* geometry-invariant is the per-row score itself —
``run_fast`` reduces each row's kept lanes contiguously in column order, so
a row's score bits do not depend on which partition, packet or segment the
row sits in (the PR-4 kernel suite locks every backend to those bits).

The driver therefore computes per-row scores segment by segment (each with
the kernel backend best suited to it) and folds them — segments in order,
delta last — into **one global depth-K**
:class:`~repro.core.kernels.scratchpad.BatchScratchpads` per query block.
Unplaced segments and the delta are offered in live-row order; because
incremental folding is bit-identical to a monolithic fold (the scratchpad
invariants of PR-4), the result is bit-identical to querying a fresh
compile of the equivalent final matrix through this same driver — the
property ``tests/property/test_prop_segments.py`` locks.  A *placed*
segment is offered in stream order instead (below), which changes no bit
either — ``tests/property/test_prop_placement.py`` locks that.

Per-segment kernel choice is the registry's (:func:`select_segment_kernel`
→ :func:`~repro.core.kernels.base.resolve_backend`, the frozen driver's
rule), and a per-partition backend folds the segment plan by plan through
:meth:`~repro.core.kernels.base.KernelBackend.fold_plan`.  The scratchpads
carry the current global K-th score *across* segments, so later segments
skip more (the LSM win: a hot head segment warms the thresholds the tail
segments are pruned by).  The driver adds only what needs a whole segment:

* **a placed segment always takes the screened streaming fold, heaviest
  block first,** whatever backend was asked for: the placement exists to
  feed the threshold screen, so the segment's fine screen blocks are
  visited by descending bound under their live-matrix ids and the walk
  stops at the first block every query provably rejects
  (:func:`_fold_segment_screened` has the order-independence argument);
* an unplaced ``streaming`` segment takes the same walk in stream order —
  either way the query-independent half of the screen (bounds, cast
  values, live-row ids) is cached on the segment per tombstone state;
* a ``contraction`` segment is scored from its artifact's collection-level
  operand, one exact SpMM per byte-budgeted query chunk;
* the unsealed delta buffer (a small 1-partition snapshot) is folded by the
  reference backend.

The one thing a stream-order fold can change is *which* rows sharing a
query's K-th value survive, so :func:`run_segmented` ends with a
**boundary-tie guard**: a query whose final threshold equals the largest
value its scratchpad ever dropped, or that met a non-finite score, is
folded again with every placed segment in live-row order
(:func:`_fold_segment_ordered`) and counted in
:attr:`SegmentedOutput.ordered_lanes` — never silently.

Tombstoned rows are excluded from the fold (their scores are computed with
their block but never offered, and a block with no live row is never
gathered), and surviving rows are renumbered to their positions in the
live logical matrix — exactly the ids a fresh compile would produce.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.dataflow import DataflowStats
from repro.core.kernels.base import (
    FALLBACK_KERNEL,
    KernelRequest,
    Queries,
    get_kernel,
    resolve_backend,
    resolve_kernel_name,
)
from repro.core.kernels.contraction import score_chunks
from repro.core.kernels.gather import plan_row_scores
from repro.core.kernels.scratchpad import BatchScratchpads
from repro.core.kernels.streaming import (
    _BLOCK_LANE_BUDGET,
    BlockScreen,
    build_screen,
    fold_screen,
)
from repro.errors import ConfigurationError

__all__ = ["SegmentedOutput", "run_segmented", "select_segment_kernel"]

#: Lanes per screen block of a placed segment.  Much finer than the
#: streaming kernel's working-set budget: here a block is the unit the
#: heaviest-first walk can stop at, and a 1 000-row partition would be a
#: single 16 384-lane block.  Measured flat between 256 and 2 048.
_PLACED_BLOCK_LANES = 1_024


@dataclass
class SegmentedOutput:
    """Everything one multi-segment sweep produces.

    ``results[q]`` is query ``q``'s global Top-K (indices are positions in
    the live logical matrix; translate with
    :meth:`~repro.core.segments.SegmentedCollection.keys_for`).
    ``segment_kernels`` records which backend served each sealed segment in
    order (the delta, when present, always runs ``gather`` and is not
    listed; a placed segment always reports ``streaming``).
    ``skipped_rows``/``total_rows`` count live (row, query) pairs the
    streaming screens provably pruned vs. offered — diagnostics only.
    ``ordered_lanes`` counts the queries the boundary-tie / non-finite
    guard folded a second time with placed segments in live-row order
    (0 unless a placed segment met a K-th-value tie or a non-finite score).
    """

    results: list
    accepts: np.ndarray
    base_stats: DataflowStats
    segment_kernels: "tuple[str, ...]" = ()
    skipped_rows: int = 0
    total_rows: int = 0
    ordered_lanes: int = 0

    @property
    def skip_fraction(self) -> float:
        """Skipped share of live (row, query) pairs (0.0 when none)."""
        return self.skipped_rows / self.total_rows if self.total_rows else 0.0

    def stats_per_query(self) -> "list[DataflowStats]":
        """Whole-collection counters per query (accepts grafted in)."""
        return [
            replace(self.base_stats, tracker_accepts=int(a)) for a in self.accepts
        ]


def select_segment_kernel(
    artifact, X: np.ndarray, kernel: "str | None", accumulate_dtype, top_k: int
) -> str:
    """The backend that will sweep one sealed segment's artifact.

    Resolved exactly like :func:`~repro.core.kernels.base.run_kernel`: the
    segment and query block are described as a :class:`KernelRequest` (the artifact's
    contraction operand attached under the engines' own eligibility policy,
    ``wants_contraction_operand``) and :func:`~repro.core.kernels.base.
    resolve_backend` applies ``supports`` → declared fallback → the
    ``auto`` preference order.
    """
    name = resolve_kernel_name(kernel)
    request = KernelRequest(
        X=X,
        plans=tuple(artifact.stream_plans()),
        accumulate_dtype=np.dtype(accumulate_dtype),
        local_k=top_k,
        operand=(
            artifact.contraction_operand()
            if artifact.wants_contraction_operand(name)
            else None
        ),
    )
    return resolve_backend(request, name).name


def _fold_segment_contraction(segment, queries, pads, first_live) -> int:
    """Contraction fold: exact SpMM blocks, partitions folded in row order.

    The global scratchpads span every query but the SpMM is budgeted by
    query chunk (:func:`~repro.core.kernels.contraction.score_chunks`), so
    each chunk's lanes cross the dense export/import seam: advanced on
    their own scratchpads, then adopted back in one
    sequential-tracker-exact import.  Nothing is screened: returns 0.
    """
    operand = segment.artifact.contraction_operand()
    offsets = operand.part_offsets.tolist()
    live = None if segment.all_live else segment.live
    live_cum = segment.live_cumsum()
    vals, rows, accepts = pads.export_state()
    evicted = pads.evicted_values()
    for q0, scores in score_chunks(operand, queries.X):
        q = slice(q0, q0 + scores.shape[1])  # this chunk's lanes
        part = BatchScratchpads(scores.shape[1], pads.local_k)
        part.import_state(vals[q], rows[q], accepts[q], evicted=evicted[q])
        for r0, r1 in zip(offsets[:-1], offsets[1:]):
            # No named view of ``scores`` may outlive the loop: it would pin
            # the block while the next chunk's is allocated.
            cols = slice(None) if live is None else live[r0:r1]
            part.fold(scores[r0:r1].T[:, cols], first_live + int(live_cum[r0]))
        del scores  # released before the next chunk's block is allocated
        vals[q], rows[q], accepts[q] = part.export_state()
        evicted[q] = part.evicted_values()
    pads.import_state(vals, rows, accepts, seen_rows=segment.n_live, evicted=evicted)
    return 0


def _segment_screen(segment, acc) -> BlockScreen:
    """Build a segment's :class:`BlockScreen` (cached by the caller per
    accumulate dtype and tombstone state).

    Stream position ``j`` of a placed artifact holds artifact row
    ``placement.order[j]``, so its mask and live-matrix positions are
    gathered through ``order`` once, here.
    """
    placement = segment.artifact.placement
    stream_ids = segment.live_cumsum()[:-1]
    stream_live = None if segment.all_live else segment.live
    if placement is not None:
        stream_ids = stream_ids[placement.order]
        if stream_live is not None:
            stream_live = stream_live[placement.order]
    return build_screen(
        segment.artifact.stream_plans(),
        acc,
        stream_live,
        stream_ids,
        _BLOCK_LANE_BUDGET if placement is None else _PLACED_BLOCK_LANES,
        descending=placement is not None,
    )


def _fold_segment_screened(segment, queries, pads, first_live) -> int:
    """Screened fold of one sealed segment against the *global* scratchpads.

    The streaming backend's own block walk (:func:`~repro.core.kernels.
    streaming.fold_screen`) over the segment's cached screen: the
    thresholds screened against are already warmed by every earlier
    segment, and tombstoned rows weigh nothing in the bound (they are never
    offered, so they must never inhibit a skip).  The query block is not
    chunked: the scratchpads are shared state, so every query folds
    together.  Returns the (row, query) pairs skipped.

    An unplaced segment is walked in stream order, which is live-row order.
    A **placed** artifact's streams hold *permuted* rows (heavy rows first
    under ``skew``/``norm_sorted``), which is exactly what a threshold
    screen wants — so it is folded out of live-row order, descending.

    Why the bits do not depend on that order: a scratchpad always holds the
    top-K *multiset* of what it was offered, ``finish`` sorts by (value
    desc, id asc), and skipped or rejected rows lie strictly below the
    final threshold — so the only order-dependent outcome is *which* rows
    sharing the K-th value survive.  :func:`run_segmented` detects exactly
    that (the boundary-tie guard on
    :meth:`BatchScratchpads.evicted_values`) and re-runs the affected
    queries through :func:`_fold_segment_ordered`.  ``tracker_accepts`` of
    a placed segment are therefore stream-order counts, as on the per-core
    candidate path and on the hardware.
    """
    acc = queries.acc
    screen = segment.derived(
        ("screen", acc.str), lambda: _segment_screen(segment, acc)
    )
    return fold_screen(queries, screen, pads, first_live)[0]


def _fold_segment_ordered(segment, queries, pads, first_live) -> None:
    """Live-row-order fold of a placed segment: the tie guard's fallback.

    Per-row score bits are placement-invariant (row-contiguous
    ``reduceat``), so this computes the full permuted score block,
    reorders columns through ``placement.inverse`` back to original row
    order and folds once — offering exactly the sequence an identity
    compile of the same matrix would, hence unconditionally bit-identical,
    boundary ties and non-finite scores included.  Every row is
    materialised; only queries :func:`run_segmented`'s guard singles out
    come here.
    """
    artifact = segment.artifact
    blocks = [
        plan_row_scores(queries, plan)
        for plan in artifact.stream_plans()
        if plan.n_rows
    ]
    if not blocks:
        return
    scores_perm = np.concatenate(blocks, axis=1)
    scores = np.ascontiguousarray(scores_perm[:, artifact.placement.inverse])
    if not segment.all_live:
        scores = scores[:, segment.live]
    pads.fold(scores, first_live)


def _fold_segment(segment, queries, pads, kernel_name, first_live, ordered) -> int:
    """Fold one sealed segment; returns the (row, query) pairs it skipped."""
    if ordered and segment.artifact.placement is not None:
        _fold_segment_ordered(segment, queries, pads, first_live)
        return 0
    # Two folds need the whole segment — its cached screen, its
    # collection-level operand; every other backend folds plan by plan.
    if kernel_name == "streaming":
        return _fold_segment_screened(segment, queries, pads, first_live)
    if kernel_name == "contraction":
        return _fold_segment_contraction(segment, queries, pads, first_live)
    backend = get_kernel(kernel_name)
    live = None if segment.all_live else segment.live
    live_cum = segment.live_cumsum()
    skipped = row = 0
    for plan in segment.artifact.stream_plans():
        part_live = None if live is None else live[row : row + plan.n_rows]
        skipped += backend.fold_plan(
            queries, plan, pads, first_live + int(live_cum[row]), part_live
        )[0]
        row += plan.n_rows
    return skipped


def _sweep(collection, X, top_k, kernel, ordered):
    """One pass over every segment and the delta: the scratchpads and the
    output they finish to.  ``ordered`` folds placed segments in live-row
    order."""
    queries = Queries.of(X, collection.design.accumulate_dtype)
    pads = BatchScratchpads(X.shape[0], top_k)
    stats = DataflowStats()
    kernels_used = []
    skipped = offset = 0
    for segment in collection.segments:
        stats = stats.merge(segment.artifact.plan_stats())
        # A placed segment keeps its block-skip whatever backend was asked
        # for: it always takes the screened fold, heaviest block first.
        if segment.artifact.placement is not None:
            name = "streaming"
        else:
            name = select_segment_kernel(
                segment.artifact, X, kernel, queries.acc, top_k
            )
        kernels_used.append(name)
        skipped += _fold_segment(segment, queries, pads, name, offset, ordered)
        offset += segment.n_live
    delta = collection.compiled_delta()
    if delta is not None:
        stats = stats.merge(delta.plan_stats())
        reference = get_kernel(FALLBACK_KERNEL)
        for plan in delta.stream_plans():
            reference.fold_plan(queries, plan, pads, offset)
            offset += plan.n_rows
    results, accepts = pads.finish()
    return pads, SegmentedOutput(
        results, accepts, stats, tuple(kernels_used), skipped, offset * len(queries)
    )


def run_segmented(
    collection,
    X: np.ndarray,
    top_k: int,
    kernel: "str | None" = None,
) -> SegmentedOutput:
    """Sweep a segmented collection: per-segment kernels, one global Top-K.

    Parameters
    ----------
    collection:
        A :class:`~repro.core.segments.SegmentedCollection`.
    X:
        ``(Q, n_cols)`` float64 query block *as stored in URAM* (already
        quantised by the caller; a 1-D query is promoted).
    top_k:
        Global scratchpad depth ``K`` — unlike the per-core candidate path
        there is no ``k·c`` cap, the fold is exact at any depth.
    kernel:
        Backend preference per segment (see :func:`select_segment_kernel`);
        ``None`` defers to ``$REPRO_KERNEL`` or the registry default.
        Every choice returns bit-identical results.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.ndim != 2 or X.shape[1] != collection.n_cols:
        raise ConfigurationError(
            f"queries must have shape (Q, {collection.n_cols}), got {X.shape}"
        )
    if top_k < 1:
        raise ConfigurationError(f"top_k must be >= 1, got {top_k}")
    top_k = int(top_k)
    pads, out = _sweep(collection, X, top_k, kernel, False)
    if any(s.artifact.placement is not None for s in collection.segments):
        # The boundary-tie guard (see _fold_segment_screened): a query whose
        # K-th value equals the largest value it dropped, or that met a
        # non-finite score, may hold order-dependent rows — fold it again
        # with every placed segment in live-row order.
        thresholds = pads.worst_thresholds()
        tied = (pads.evicted_values() == thresholds) & (thresholds > -np.inf)
        redo = np.flatnonzero(tied | pads.nonfinite_lanes())
        if len(redo):
            _, ordered = _sweep(collection, X[redo], top_k, kernel, True)
            out.accepts[redo] = ordered.accepts
            for lane, result in zip(redo.tolist(), ordered.results):
                out.results[lane] = result
            out.ordered_lanes = len(redo)
    return out
