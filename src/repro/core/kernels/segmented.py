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
the kernel backend best suited to it) and folds them into **one global
running Top-K** (:class:`~repro.core.kernels.selection.RunningTopK`): an
order-free selection under the library's total order, so the answer is
exactly :func:`~repro.core.reference.topk_from_scores` of the live logical
matrix's quantised scores whatever the segment layout, placement, backend
or offering order (``tests/property/test_prop_one_driver.py`` locks it).

Per-segment kernel choice is the registry's (:func:`select_segment_kernel`
→ :func:`~repro.core.kernels.base.resolve_backend`, the frozen driver's
rule), and a per-partition backend folds the segment plan by plan through
:meth:`~repro.core.kernels.base.KernelBackend.fold_plan`.  The running Top-K
carries the current global K-th score *across* segments, so later segments
skip more (the LSM win: a hot head segment warms the thresholds the tail
segments are pruned by).  The driver adds only what needs a whole segment:

* **a placed segment always takes the screened streaming fold, heaviest
  block first,** whatever backend was asked for: the placement exists to
  feed the threshold screen, so the segment's fine screen blocks are
  visited by descending bound under their live-matrix ids and the walk
  stops at the first block every query provably rejects;
* an unplaced ``streaming`` segment takes the same walk in stream order —
  either way the query-independent half of the screen (bounds, cast
  values, live-row ids) is cached on the segment per tombstone state;
* a ``contraction`` segment is scored from its artifact's collection-level
  operand, one exact SpMM per byte-budgeted query chunk, each block
  selected from in its own ``(n_rows, Q)`` layout;
* the unsealed delta buffer (a small 1-partition snapshot) is folded by the
  reference backend.

Tombstoned rows are excluded from the fold (their scores are computed with
their block but never offered, and a block with no live row is never
gathered), and surviving rows are renumbered to their positions in the
live logical matrix — exactly the ids a fresh compile would produce.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from repro.core.kernels.selection import RunningTopK
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
    ``base_stats`` sums the segments' plan counters (``tracker_accepts``
    stays 0: accepts are a counter of the per-core candidate path).
    ``segment_kernels`` records which backend served each sealed segment in
    order (the delta, when present, always runs ``gather`` and is not
    listed; a placed segment always reports ``streaming``).
    ``skipped_rows``/``total_rows`` count live (row, query) pairs the
    streaming screens provably pruned vs. offered — diagnostics only.
    """

    results: list
    base_stats: DataflowStats
    segment_kernels: "tuple[str, ...]" = ()
    skipped_rows: int = 0
    total_rows: int = 0

    @property
    def skip_fraction(self) -> float:
        """Skipped share of live (row, query) pairs (0.0 when none)."""
        return self.skipped_rows / self.total_rows if self.total_rows else 0.0


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
    """Contraction fold: one selection per exact SpMM query chunk, read in
    the block's own ``(n_rows, Q)`` layout — never transposed.  Tombstoned
    rows are written −inf and dropped.  Nothing is screened: returns 0."""
    operand = segment.artifact.contraction_operand()
    live = None if segment.all_live else segment.live
    ids = first_live + segment.live_cumsum()[:-1]
    for q0, scores in score_chunks(operand, queries.X):
        if live is not None:
            scores[~live] = -np.inf
        pads.fold_rows(scores, ids, q0, live)
        del scores  # released before the next chunk's block is allocated
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
    """Screened fold of one sealed segment against the *global* Top-K.

    The streaming backend's own block walk (:func:`~repro.core.kernels.
    streaming.fold_screen`) over the segment's cached screen: the
    thresholds screened against are already warmed by every earlier
    segment, and tombstoned rows weigh nothing in the bound (they are never
    offered, so they must never inhibit a skip).  The query block is not
    chunked: the running Top-K is shared state, so every query folds
    together.  An unplaced segment is walked in stream order; a **placed**
    one, whose streams hold *permuted* rows, heaviest block first — the
    selection is order-free, so neither order moves a bit.  Returns the
    (row, query) pairs skipped.
    """
    acc = queries.acc
    screen = segment.derived(
        ("screen", acc.str), lambda: _segment_screen(segment, acc)
    )
    return fold_screen(queries, screen, pads, first_live)[0]


def _fold_segment(segment, queries, pads, kernel_name, first_live) -> int:
    """Fold one sealed segment; returns the (row, query) pairs it skipped."""
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
        Global Top-K depth ``K`` — unlike the per-core candidate path
        there is no ``k·c`` cap, the selection is exact at any depth.
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
    queries = Queries.of(X, collection.design.accumulate_dtype)
    pads = RunningTopK(X.shape[0], top_k)
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
        skipped += _fold_segment(segment, queries, pads, name, offset)
        offset += segment.n_live
    delta = collection.compiled_delta()
    if delta is not None:
        stats = stats.merge(delta.plan_stats())
        reference = get_kernel(FALLBACK_KERNEL)
        for plan in delta.stream_plans():
            reference.fold_plan(queries, plan, pads, offset)
            offset += plan.n_rows
    return SegmentedOutput(
        pads.finish(), stats, tuple(kernels_used), skipped, offset * len(queries)
    )
