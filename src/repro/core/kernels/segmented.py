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
the kernel backend best suited to it) and folds them — in live-row order:
segments in order, partitions in order, delta last — into **one global
depth-K** :class:`~repro.core.kernels.scratchpad.BatchScratchpads` per
query block.  Because incremental folding is bit-identical to a monolithic
fold (the scratchpad invariants of PR-4), the result is bit-identical to
querying a fresh compile of the equivalent final matrix through this same
driver — the property ``tests/property/test_prop_segments.py`` locks.

Per-segment kernel choice (``auto``):

* **native** everywhere, whenever the compiled backend is available
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
* **streaming** elsewhere: row blocks are screened against the *global*
  scratchpads' eviction thresholds before any lane is touched — and since
  the scratchpads carry the current global K-th score *across* segments,
  later segments skip more (the LSM win: a hot head segment warms the
  thresholds the tail segments are pruned by);
* **gather** for the unsealed delta buffer (a small 1-partition snapshot)
  and as the explicit-request fallback.

Tombstoned rows are excluded from the fold (their scores are computed with
their block but never offered), and surviving rows are renumbered to their
positions in the live logical matrix — exactly the ids a fresh compile
would produce.
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
from repro.core.kernels.streaming import screen_blocks
from repro.errors import ConfigurationError

__all__ = ["SegmentedOutput", "run_segmented", "select_segment_kernel"]


@dataclass
class SegmentedOutput:
    """Everything one multi-segment sweep produces.

    ``results[q]`` is query ``q``'s global Top-K (indices are positions in
    the live logical matrix; translate with
    :meth:`~repro.core.segments.SegmentedCollection.keys_for`).
    ``segment_kernels`` records which backend served each sealed segment in
    order (the delta, when present, always runs ``gather`` and is not
    listed).  ``skipped_rows``/``total_rows`` count live (row, query) pairs
    the streaming screens provably pruned vs. offered — diagnostics only.
    """

    results: list
    accepts: np.ndarray
    base_stats: DataflowStats
    segment_kernels: "tuple[str, ...]" = ()
    skipped_rows: int = 0
    total_rows: int = 0

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


def _fold_plan_streaming(
    X, plan, live, pads, accumulate_dtype, first_live, counters
) -> int:
    """Streaming fold of one partition plan against the *global* scratchpads.

    Mirrors :class:`~repro.core.kernels.streaming.StreamingKernel` block by
    block — same bound, same slack, same strict compare — except the
    thresholds screened against belong to the shared global fold, already
    warmed by every earlier segment, and tombstoned rows are given a zero
    bound weight (they are never offered, so they must never inhibit a
    skip).  The query block is not chunked: the scratchpads are shared
    state, so every query folds together.
    """
    n_rows = plan.n_rows
    if n_rows == 0:
        return 0
    acc = np.dtype(accumulate_dtype)
    values = plan.kept_values.astype(acc)
    starts = plan.starts
    seg_ends, blocks, block_peak = screen_blocks(plan, acc, live)

    live_cum = (
        np.concatenate([[0], np.cumsum(live, dtype=np.int64)])
        if live is not None
        else None
    )
    Xc = X.astype(acc)
    xmax = np.abs(Xc).max(axis=1).astype(np.float64)
    n_queries = Xc.shape[0]
    folded = 0
    for b in range(len(blocks) - 1):
        r0, r1 = int(blocks[b]), int(blocks[b + 1])
        if live_cum is None:
            n_live_block = r1 - r0
            block_first = first_live + r0
        else:
            n_live_block = int(live_cum[r1] - live_cum[r0])
            block_first = first_live + int(live_cum[r0])
        if n_live_block == 0:
            continue
        counters.total += n_live_block * n_queries
        bound = block_peak[b] * xmax
        if np.all(bound < pads.worst_thresholds()):
            pads.skip_rows(n_live_block)
            counters.skipped += n_live_block * n_queries
            folded += n_live_block
            continue
        l0 = int(starts[r0])
        l1 = int(seg_ends[r1 - 1])
        products = Xc[:, plan.kept_idx[l0:l1]]
        products *= values[None, l0:l1]
        reduced = np.add.reduceat(products, starts[r0:r1] - l0, axis=1)
        scores = reduced.astype(acc).astype(np.float64)
        folded += _fold_scores(
            pads, scores, None if live is None else live[r0:r1], block_first
        )
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


def _fold_segment_placed(
    segment, X, pads, accumulate_dtype, first_live, counters
) -> int:
    """Fold one sealed segment whose artifact has a row placement.

    A placed artifact's streams hold *permuted* rows, but the segment's
    ``keys``/``live`` are indexed by original artifact row — the per-plan
    fold loop of :func:`_fold_segment` (which slices ``live`` by stream
    position) would offer the wrong rows in the wrong order.  Per-row score
    bits are placement-invariant (row-contiguous ``reduceat``), so this
    path computes the full permuted score block, reorders columns through
    ``placement.inverse`` back to original row order, and folds once —
    offering exactly the sequence an identity compile of the same matrix
    would, hence unconditionally bit-identical, ties and float codecs
    included.  The streaming screens are forfeited for placed segments
    (scores for every row are materialised); the frozen query path is
    where a placed collection's skip win lives.
    """
    artifact = segment.artifact
    n_queries = X.shape[0]
    blocks = [
        plan_row_scores(X, plan, accumulate_dtype)
        for plan in artifact.stream_plans()
        if plan.n_rows
    ]
    if not blocks:
        return 0
    scores_perm = np.concatenate(blocks, axis=1)
    scores = np.ascontiguousarray(scores_perm[:, artifact.placement.inverse])
    live = None if segment.all_live else segment.live
    folded = _fold_scores(pads, scores, live, first_live)
    counters.total += folded * n_queries
    return folded


def _fold_segment(
    segment, X, pads, accumulate_dtype, kernel_name, first_live, counters
) -> int:
    """Fold one sealed segment; returns its live row count."""
    artifact = segment.artifact
    for plan in artifact.stream_plans():
        counters.stats = counters.stats.merge(plan.stats)
    if getattr(artifact, "placement", None) is not None:
        return _fold_segment_placed(
            segment, X, pads, accumulate_dtype, first_live, counters
        )
    if kernel_name == "contraction":
        return _fold_segment_contraction(segment, X, pads, first_live, counters)
    if kernel_name == "native":
        fold_plan = _fold_plan_native
    elif kernel_name == "streaming":
        fold_plan = _fold_plan_streaming
    else:
        fold_plan = _fold_plan_gather
    live = None if segment.all_live else segment.live
    live_cum = segment.live_cumsum()
    plans = artifact.stream_plans()
    folded = 0
    row = 0
    for plan in plans:
        part_live = None if live is None else live[row : row + plan.n_rows]
        folded += fold_plan(
            X,
            plan,
            part_live,
            pads,
            accumulate_dtype,
            first_live + int(live_cum[row]),
            counters,
        )
        row += plan.n_rows
    return folded


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
    acc = collection.design.accumulate_dtype
    pads = BatchScratchpads(X.shape[0], int(top_k))
    counters = _FoldCounters()
    kernels_used = []
    offset = 0
    for segment in collection.segments:
        # Placed artifacts take the dedicated inverse-reorder fold (see
        # _fold_segment_placed) — gather semantics, recorded as such.
        if getattr(segment.artifact, "placement", None) is not None:
            name = "gather"
        else:
            name = select_segment_kernel(segment.artifact, X, kernel, acc, top_k)
        kernels_used.append(name)
        offset += _fold_segment(segment, X, pads, acc, name, offset, counters)
    delta = collection.compiled_delta()
    if delta is not None:
        for plan in delta.stream_plans():
            counters.stats = counters.stats.merge(plan.stats)
            offset += _fold_plan_gather(
                X, plan, None, pads, acc, offset, counters
            )
    results, accepts = pads.finish()
    return SegmentedOutput(
        results=results,
        accepts=accepts,
        base_stats=counters.stats,
        segment_kernels=tuple(kernels_used),
        skipped_rows=counters.skipped,
        total_rows=counters.total,
    )
