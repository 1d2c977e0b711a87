"""Multi-segment query driver: per-segment sweeps, one global Top-K fold.

A :class:`~repro.core.segments.SegmentedCollection` cannot reuse the frozen
collections' candidate path as-is: per-partition ``local_k`` candidate sets
depend on the partition geometry, and a mutated collection's segments are
partitioned differently from the fresh ``compile_collection`` of the same
logical matrix.  What *is* geometry-invariant is the per-row score itself —
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

Per-segment kernel choice (``auto``):

* **streaming, heaviest block first,** for every segment whose artifact
  carries a row placement, whatever backend was asked for: the placement
  exists to feed the threshold screen, so the segment's fine screen blocks
  are visited by descending bound under their live-matrix ids and the walk
  stops at the first block every query provably rejects
  (:func:`_fold_segment_streaming` has the order-independence argument);
* **native** everywhere else, whenever the compiled backend is available
  (Numba installed, or interpreted mode forced): the same global-fold
  semantics as streaming below — the scratchpad state is exported dense,
  advanced by the compiled sweep (per-query screens against the carried
  thresholds, live rows renumbered to live-matrix ids) and imported back
  sequential-tracker-exact, so the cross-segment threshold carry-over is
  preserved bit for bit;
* **contraction** where the segment's exactness gate passes (fixed-point
  grid × Q1.31 queries × the 2^52 budget — judged by the registered
  backend's own ``supports``): one SciPy SpMM per segment, provably the
  same bits;
* **streaming** elsewhere, in stream order: row blocks are screened
  against the *global* scratchpads' eviction thresholds before any lane is
  touched — and since the scratchpads carry the current global K-th score
  *across* segments, later segments skip more (the LSM win: a hot head
  segment warms the thresholds the tail segments are pruned by).  The
  query-independent half of every screen (bounds, cast values, live-row
  ids) is cached on the segment per tombstone state;
* **gather** for the unsealed delta buffer (a small 1-partition snapshot)
  and as the explicit-request fallback.

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

from dataclasses import dataclass, field

import numpy as np

from repro.core.dataflow import DataflowStats
from repro.core.kernels.base import (
    KernelRequest,
    get_kernel,
    resolve_kernel_name,
)
from repro.core.kernels.gather import plan_row_scores
from repro.core.kernels.native import native_available, sweep_plan_into_pads
from repro.core.kernels.scratchpad import BatchScratchpads
from repro.core.kernels.streaming import (
    _BLOCK_LANE_BUDGET,
    block_scores,
    screen_blocks,
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
        from dataclasses import replace

        return [
            replace(self.base_stats, tracker_accepts=int(a)) for a in self.accepts
        ]


@dataclass
class _FoldCounters:
    """Mutable tallies shared by the per-segment fold helpers."""

    skipped: int = 0
    total: int = 0
    stats: DataflowStats = field(default_factory=DataflowStats)


@dataclass(frozen=True)
class _Queries:
    """The query block of one sweep and its casts, made once per sweep."""

    X: np.ndarray  # (Q, n_cols) float64, as stored in URAM
    Xc: np.ndarray  # X in the accumulate dtype
    xmax: np.ndarray  # (Q,) float64 max |x| — the query half of the bound

    @classmethod
    def of(cls, X: np.ndarray, accumulate_dtype) -> "_Queries":
        Xc = X.astype(accumulate_dtype)
        return cls(X, Xc, np.abs(Xc).max(axis=1).astype(np.float64))

    @property
    def acc(self) -> np.dtype:
        """The accumulate dtype."""
        return self.Xc.dtype


@dataclass(frozen=True)
class _SegmentScreen:
    """Query-independent screen precompute of one sealed segment.

    Every partition stream cut into row blocks, each with its provable
    ``Σ|v| · slack`` peak (:func:`~repro.core.kernels.streaming.
    screen_blocks`, tombstones zero-weighted).  ``blocks[i]`` is
    ``(kept_idx, values, row_starts, ids, live)``: views of one plan's
    lanes for a run of consecutive stream rows (values in the accumulate
    dtype), the live-matrix positions of its live rows relative to the
    segment's first, and the mask that selects them (``None`` = all live).
    Blocks without a live row are left out — they are never gathered.
    ``live_from[i]`` counts the live rows of blocks ``i`` onwards.

    An unplaced segment keeps stream order (= live-row order).  A placed
    one is sorted heaviest bound first (``descending``), which is what
    lets the fold *stop* at the first block it can skip.
    """

    peaks: "list[float]"
    blocks: "list[tuple]"
    live_from: "list[int]"
    descending: bool


def select_segment_kernel(
    artifact, X: np.ndarray, kernel: "str | None", accumulate_dtype, top_k: int
) -> str:
    """The backend that will sweep one sealed segment's artifact.

    Resolves the requested name exactly like the frozen-collection driver
    (:func:`~repro.core.kernels.base.run_kernel`): an explicit ``gather``/
    ``streaming`` is honoured as-is; an explicit ``native`` runs when the
    compiled backend is available and otherwise degrades to ``streaming``
    (its declared fallback); ``contraction`` runs only when the registered
    backend's exactness gate passes for this segment and query block
    (falling back to ``gather``, its declared fallback); ``auto`` prefers
    ``native`` when available, then the gated contraction, and streams
    otherwise.
    """
    name = resolve_kernel_name(kernel)
    if name == "native":
        return "native" if native_available() else "streaming"
    if name in ("gather", "streaming"):
        return name
    if name != "contraction" and native_available():
        return "native"
    gate = False
    if artifact.wants_contraction_operand("contraction"):
        request = KernelRequest(
            X=X,
            plans=tuple(artifact.stream_plans()),
            accumulate_dtype=np.dtype(accumulate_dtype),
            local_k=top_k,
            operand=artifact.contraction_operand(),
        )
        gate = get_kernel("contraction").supports(request)
    if name == "contraction":
        return "contraction" if gate else "gather"
    return "contraction" if gate else "streaming"


def _fold_scores(
    pads: BatchScratchpads,
    scores: np.ndarray,
    live: "np.ndarray | None",
    first_live: int,
) -> int:
    """Fold one (Q, n_rows) float64 score block, dead rows excluded.

    Returns the number of live rows folded.  Dropping dead columns before
    the fold is bit-neutral for the equivalent matrix (those rows simply do
    not exist in it), and the surviving columns keep their relative order,
    so ids ``first_live + j`` are exactly the live-matrix positions.
    """
    if live is not None and not live.all():
        scores = scores[:, live]
    if scores.shape[1] == 0:
        return 0
    pads.fold(scores, first_live)
    return scores.shape[1]


def _fold_plan_gather(
    X, plan, live, pads, accumulate_dtype, first_live, counters
) -> int:
    """Reference fold of one partition plan (full score block, then fold)."""
    if plan.n_rows == 0:
        return 0
    scores = plan_row_scores(X, plan, accumulate_dtype)
    folded = _fold_scores(pads, scores, live, first_live)
    counters.total += folded * X.shape[0]
    return folded


def _fold_plan_native(
    X, plan, live, pads, accumulate_dtype, first_live, counters
) -> int:
    """Compiled fold of one partition plan against the *global* scratchpads.

    Delegates to :func:`~repro.core.kernels.native.sweep_plan_into_pads`:
    the scratchpad state crosses the dense export/import seam around the
    sweep, and the per-query screens refine the streaming fold's
    chunk-consensus skip (each skipped pair individually provably
    rejected), so the cross-segment threshold carry-over keeps the exact
    streaming-fold bits.
    """
    if plan.n_rows == 0:
        return 0
    skipped, n_live = sweep_plan_into_pads(
        X, plan, pads, accumulate_dtype, live, first_live
    )
    counters.total += n_live * X.shape[0]
    counters.skipped += skipped
    return n_live


def _fold_segment_contraction(
    segment, X, pads, first_live, counters
) -> int:
    """Contraction fold: one exact SpMM, partitions folded in row order."""
    artifact = segment.artifact
    operand = artifact.contraction_operand()
    scores = operand.matrix(X.shape[1]) @ X.T  # (n_rows, Q), provably exact
    offsets = operand.part_offsets
    live = None if segment.all_live else segment.live
    live_cum = segment.live_cumsum()
    folded = 0
    for p in range(len(operand.part_rows)):
        r0, r1 = int(offsets[p]), int(offsets[p + 1])
        if r1 == r0:
            continue
        part_live = None if live is None else live[r0:r1]
        n = _fold_scores(
            pads, scores[r0:r1].T, part_live, first_live + int(live_cum[r0])
        )
        counters.total += n * X.shape[0]
        folded += n
    return folded


def _segment_screen(segment, acc) -> _SegmentScreen:
    """Build a segment's :class:`_SegmentScreen` (cached by the caller per
    accumulate dtype and tombstone state).

    Stream position ``j`` of a placed artifact holds artifact row
    ``placement.order[j]``, so its mask and live-matrix positions are
    gathered through ``order`` once, here.  A NaN peak (NaN matrix value)
    sorts first, so the peaks a descending walk relies on to only fall
    never hide one.
    """
    artifact = segment.artifact
    placement = artifact.placement
    stream_ids = segment.live_cumsum()[:-1]
    stream_live = None if segment.all_live else segment.live
    if placement is not None:
        stream_ids = stream_ids[placement.order]
        if stream_live is not None:
            stream_live = stream_live[placement.order]
    lane_budget = _BLOCK_LANE_BUDGET if placement is None else _PLACED_BLOCK_LANES
    peaks, blocks, n_live = [], [], []
    offset = 0
    for plan in artifact.stream_plans():
        if plan.n_rows == 0:
            continue
        rows = slice(offset, offset + plan.n_rows)
        offset += plan.n_rows
        live = None if stream_live is None else stream_live[rows]
        ids = stream_ids[rows]
        values = plan.kept_values.astype(acc, copy=False)
        starts = plan.starts
        seg_ends, cuts, plan_peaks = screen_blocks(plan, acc, live, lane_budget)
        plan_peaks = np.where(np.isnan(plan_peaks), np.inf, plan_peaks)
        cuts = cuts.tolist()
        for b, peak in enumerate(plan_peaks.tolist()):
            r0, r1 = cuts[b], cuts[b + 1]
            mask = None if live is None else live[r0:r1]
            if mask is not None and mask.all():
                mask = None
            block_ids = ids[r0:r1] if mask is None else ids[r0:r1][mask]
            if len(block_ids) == 0:
                continue
            l0, l1 = int(starts[r0]), int(seg_ends[r1 - 1])
            peaks.append(peak)
            n_live.append(len(block_ids))
            blocks.append(
                (
                    plan.kept_idx[l0:l1],
                    values[l0:l1],
                    starts[r0:r1] - l0,
                    block_ids,
                    mask,
                )
            )
    if placement is not None:
        heaviest_first = np.argsort(-np.array(peaks), kind="stable").tolist()
        peaks, blocks, n_live = (
            [column[i] for i in heaviest_first] for column in (peaks, blocks, n_live)
        )
    live_from = np.cumsum(n_live[::-1], dtype=np.int64)[::-1].tolist()
    return _SegmentScreen(peaks, blocks, [*live_from, 0], placement is not None)


def _fold_segment_streaming(segment, queries, pads, first_live, counters) -> int:
    """Screened fold of one sealed segment against the *global* scratchpads.

    Mirrors :class:`~repro.core.kernels.streaming.StreamingKernel` block by
    block — same bound, same slack, same strict compare — except the
    thresholds screened against belong to the shared global fold, already
    warmed by every earlier segment, and tombstoned rows weigh nothing in
    the bound (they are never offered, so they must never inhibit a skip).
    The query block is not chunked: the scratchpads are shared state, so
    every query folds together.

    An unplaced segment is walked in stream order, which is live-row order.
    A **placed** artifact's streams hold *permuted* rows (heavy rows first
    under ``skew``/``norm_sorted``), which is exactly what a threshold
    screen wants — so it is folded out of live-row order: blocks heaviest
    bound first, each one's live rows offered under their live-matrix ids
    (``fold(row_ids=)``), and the walk **stops** at the first block whose
    ``peak · max|x|`` is strictly below every query's threshold — peaks
    only fall from there and thresholds only rise, so every later block is
    provably rejected too (accounted with ``skip_rows``, never gathered).

    Why the bits do not depend on that order: a scratchpad always holds the
    top-K *multiset* of what it was offered, ``finish`` sorts by (value
    desc, id asc), and skipped or rejected rows lie strictly below the
    final threshold — so the only order-dependent outcome is *which* rows
    sharing the K-th value survive.  :func:`run_segmented` detects exactly
    that (the boundary-tie guard on
    :meth:`BatchScratchpads.evicted_values`) and re-runs the affected
    queries through :func:`_fold_segment_ordered`.  ``tracker_accepts`` of
    a placed segment are therefore stream-order counts, as on the frozen
    placed path and on the hardware.
    """
    acc = queries.acc
    screen = segment.derived(
        ("screen", acc.str), lambda: _segment_screen(segment, acc)
    )
    n_queries = len(queries.xmax)
    live_from = screen.live_from
    counters.total += live_from[0] * n_queries
    for b, peak in enumerate(screen.peaks):
        if np.all(peak * queries.xmax < pads.worst_thresholds()):
            # Descending peaks: every later block is rejected with this one.
            rest = screen.descending
            n_skipped = live_from[b] - (0 if rest else live_from[b + 1])
            pads.skip_rows(n_skipped)
            counters.skipped += n_skipped * n_queries
            if rest:
                break
            continue
        kept_idx, values, row_starts, ids, live = screen.blocks[b]
        scores = block_scores(queries.Xc, kept_idx, values, row_starts)
        if live is not None:
            scores = scores[:, live]
        pads.fold(scores, first_live, ids)
    return live_from[0]


def _fold_segment_ordered(segment, queries, pads, first_live, counters) -> int:
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
        plan_row_scores(queries.X, plan, queries.acc)
        for plan in artifact.stream_plans()
        if plan.n_rows
    ]
    if not blocks:
        return 0
    scores_perm = np.concatenate(blocks, axis=1)
    scores = np.ascontiguousarray(scores_perm[:, artifact.placement.inverse])
    live = None if segment.all_live else segment.live
    folded = _fold_scores(pads, scores, live, first_live)
    counters.total += folded * len(queries.xmax)
    return folded


def _fold_segment(
    segment, queries, pads, kernel_name, first_live, counters, ordered
) -> int:
    """Fold one sealed segment; returns its live row count."""
    artifact = segment.artifact
    counters.stats = counters.stats.merge(artifact.plan_stats())
    if ordered and artifact.placement is not None:
        return _fold_segment_ordered(segment, queries, pads, first_live, counters)
    if kernel_name == "streaming":
        return _fold_segment_streaming(segment, queries, pads, first_live, counters)
    if kernel_name == "contraction":
        return _fold_segment_contraction(
            segment, queries.X, pads, first_live, counters
        )
    fold_plan = _fold_plan_native if kernel_name == "native" else _fold_plan_gather
    live = None if segment.all_live else segment.live
    live_cum = segment.live_cumsum()
    folded = 0
    row = 0
    for plan in artifact.stream_plans():
        part_live = None if live is None else live[row : row + plan.n_rows]
        folded += fold_plan(
            queries.X,
            plan,
            part_live,
            pads,
            queries.acc,
            first_live + int(live_cum[row]),
            counters,
        )
        row += plan.n_rows
    return folded


def _sweep(collection, X, top_k, kernel, ordered):
    """One pass over every segment and the delta: ``(pads, counters,
    kernels)``.  ``ordered`` folds placed segments in live-row order."""
    queries = _Queries.of(X, collection.design.accumulate_dtype)
    pads = BatchScratchpads(X.shape[0], top_k)
    counters = _FoldCounters()
    kernels_used = []
    offset = 0
    for segment in collection.segments:
        # A placed segment keeps its block-skip whatever backend was asked
        # for: it always takes the screened fold, heaviest block first.
        if segment.artifact.placement is not None:
            name = "streaming"
        else:
            name = select_segment_kernel(
                segment.artifact, X, kernel, queries.acc, top_k
            )
        kernels_used.append(name)
        offset += _fold_segment(
            segment, queries, pads, name, offset, counters, ordered
        )
    delta = collection.compiled_delta()
    if delta is not None:
        counters.stats = counters.stats.merge(delta.plan_stats())
        for plan in delta.stream_plans():
            offset += _fold_plan_gather(
                X, plan, None, pads, queries.acc, offset, counters
            )
    return pads, counters, tuple(kernels_used)


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
        Global scratchpad depth ``K`` — unlike the frozen candidate path
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
    pads, counters, kernels_used = _sweep(collection, X, top_k, kernel, False)
    results, accepts = pads.finish()
    redo = np.empty(0, dtype=np.int64)
    if any(s.artifact.placement is not None for s in collection.segments):
        # The boundary-tie guard (see _fold_segment_streaming): a query whose
        # K-th value equals the largest value it dropped, or that met a
        # non-finite score, may hold order-dependent rows — fold it again
        # with every placed segment in live-row order.
        thresholds = pads.worst_thresholds()
        tied = (pads.evicted_values() == thresholds) & (thresholds > -np.inf)
        redo = np.flatnonzero(tied | pads.nonfinite_lanes())
    if len(redo):
        ordered_pads, _, _ = _sweep(collection, X[redo], top_k, kernel, True)
        ordered_results, accepts[redo] = ordered_pads.finish()
        for lane, result in zip(redo.tolist(), ordered_results):
            results[lane] = result
    return SegmentedOutput(
        results=results,
        accepts=accepts,
        base_stats=counters.stats,
        segment_kernels=kernels_used,
        skipped_rows=counters.skipped,
        total_rows=counters.total,
        ordered_lanes=len(redo),
    )
