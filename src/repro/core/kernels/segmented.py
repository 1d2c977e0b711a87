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

The driver therefore computes per-row scores segment by segment and folds
them into **one global running Top-K**
(:class:`~repro.core.kernels.selection.RunningTopK`): an order-free
selection under the library's total order, so the answer is exactly
:func:`~repro.core.reference.topk_from_scores` of the live logical
matrix's quantised scores whatever the segment layout, placement or
offering order (``tests/property/test_prop_one_driver.py`` locks it).

One rule, read off each segment, picks its fold — no backend name,
environment variable or registry lookup on this path (the registry's
backends serve the per-core candidate path, :func:`~repro.core.kernels.
base.run_kernel`).  The running Top-K carries the current global K-th
score *across* segments, so later segments skip more (the LSM win: a hot
head segment warms the thresholds the tail segments are pruned by):

* an **unplaced** segment whose artifact passes the exactness gate
  (:func:`~repro.core.kernels.contraction.exact_gate`) for this query
  block is scored by its artifact's certified float32 SpMM, one per
  byte-budgeted query chunk, each block screened in its own
  ``(n_rows, Q)`` layout with the SpMM's error bound as margin; only the
  surviving (row, query) pairs, the rows that straddle the K-th score,
  are rescored exactly and offered
  (:mod:`~repro.core.kernels.contraction`).  The float32 operand is built
  once per artifact and width and shared by every wrapper.  It reports
  ``contraction``;
* every other segment — a placed one, and every float32, off-grid or
  non-finite case — is walked as its **sorted run**: its live rows
  heaviest ``Σ|v|`` first (ties by live-matrix id), cached on the segment
  per accumulate dtype and tombstone state, scored chunk by chunk until
  the first chunk every query provably rejects.  The order comes from the
  segment's own rows, so placement never changes the walk (it feeds only
  the modelled board and the per-core candidate path).  It reports
  ``streaming``;
* the unsealed delta buffer (a small 1-partition snapshot, cached per
  generation) is folded last, by the same rule as an unplaced sealed
  segment.

Tombstoned rows are excluded from the fold (a sorted run leaves them out;
the contraction fold scores them −inf and never offers them), and
surviving rows are renumbered to their positions in the live logical
matrix — exactly the ids a fresh compile would produce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dataflow import DataflowStats
from repro.core.kernels.base import Queries
from repro.core.kernels.contraction import (
    certified_operand,
    exact_gate,
    score_chunks,
)
from repro.core.kernels.selection import RunningTopK
from repro.core.kernels.streaming import SortedRun, fold_run, sorted_run
from repro.errors import ConfigurationError

__all__ = ["SegmentedOutput", "run_segmented"]

@dataclass
class SegmentedOutput:
    """Everything one multi-segment sweep produces.

    ``results[q]`` is query ``q``'s global Top-K (indices are positions in
    the live logical matrix; translate with
    :meth:`~repro.core.segments.SegmentedCollection.keys_for`).
    ``base_stats`` sums the segments' plan counters (``tracker_accepts``
    stays 0: accepts are a counter of the per-core candidate path).
    ``segment_kernels`` records which fold served each segment in order,
    the delta, when present, last: ``contraction`` or ``streaming`` (a
    placed segment always reports ``streaming``).
    ``skipped_rows``/``total_rows`` count live (row, query) pairs the
    sorted-run walks provably pruned vs. offered, and
    ``rescored_rows`` those the contraction folds' float32 screens passed
    to the exact rescore — diagnostics only.
    """

    results: list
    base_stats: DataflowStats
    segment_kernels: "tuple[str, ...]" = ()
    skipped_rows: int = 0
    total_rows: int = 0
    rescored_rows: int = 0

    @property
    def skip_fraction(self) -> float:
        """Skipped share of live (row, query) pairs (0.0 when none)."""
        return self.skipped_rows / self.total_rows if self.total_rows else 0.0


def _certified_operand(artifact, n_cols):
    """The artifact's float32 scorer, built once per width and shared by
    every collection wrapping the artifact."""
    key = ("float32", n_cols)
    if key not in artifact.derived:
        artifact.derived[key] = certified_operand(
            artifact.contraction_operand(), n_cols
        )
    return artifact.derived[key]


def _fold_segment_contraction(segment, queries, pads, first_live) -> int:
    """Contraction fold: per float32 SpMM query chunk, screen the block in
    its own ``(n_rows, Q)`` layout with the SpMM's error bound as margin,
    then rescore the survivors exactly and offer them.  Tombstoned rows are
    written −inf and dropped.  Returns the (row, query) pairs rescored."""
    artifact = segment.artifact
    operand = artifact.contraction_operand()
    scorer = _certified_operand(artifact, queries.X.shape[1])
    margins = scorer.error * queries.xmax
    live = None if segment.all_live else segment.live
    ids = first_live + segment.live_cumsum()[:-1]
    rescored = 0
    for q0, approx in score_chunks(scorer.matrix, queries.X):
        if live is not None:
            approx[~live] = -np.inf
        rows, lanes = pads.screen(approx, q0, margins[q0 : q0 + approx.shape[1]])
        del approx  # released before the next chunk's block is allocated
        if live is not None:
            keep = live[rows]
            rows, lanes = rows[keep], lanes[keep]
        pads.offer(rows, lanes, operand.rescore(queries.X, rows, lanes), ids)
        rescored += len(rows)
    return rescored


def _artifact_run(artifact, acc) -> SortedRun:
    """Every row of an artifact as one :class:`SortedRun`, named by artifact
    row — stream position ``j`` of a placed artifact holds artifact row
    ``placement.order[j]``."""
    placement = artifact.placement
    rows = np.arange(artifact.n_rows) if placement is None else placement.order
    return sorted_run(artifact.stream_plans(), acc, rows)


def _segment_run(segment, acc) -> SortedRun:
    """A segment's sorted run, named by live-matrix position.

    The artifact's run is built once per accumulate dtype and shared by
    every collection wrapping the artifact; a tombstoned segment's is that
    run with the dead rows dropped, cached on the segment per tombstone
    state.
    """
    key, artifact = ("run", acc.str), segment.artifact
    if key not in artifact.derived:
        artifact.derived[key] = _artifact_run(artifact, acc)
    run = artifact.derived[key]
    if segment.all_live:
        return run
    if key not in segment.derived:
        keep = segment.live[run.ids]
        segment.derived[key] = run.select(keep, segment.live_cumsum()[run.ids])
    return segment.derived[key]


def _gated(artifact, queries) -> bool:
    """Whether an artifact takes the contraction fold for this query block:
    it is unplaced (a placed one is walked as its sorted run, the only fold
    that can skip rows) and passes the exactness gate.  The operand is
    lowered only for a design whose value grid could ever pass."""
    return (
        artifact.placement is None
        and artifact.contraction_grid_bits() is not None
        and exact_gate(artifact.contraction_operand(), queries.X, queries.acc)
    )


def run_segmented(collection, X: np.ndarray, top_k: int) -> SegmentedOutput:
    """Sweep a segmented collection: per-segment folds, one global Top-K.

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
    skipped = rescored = offset = 0
    delta = collection.delta_segment()
    for segment in collection.segments + ([] if delta is None else [delta]):
        stats = stats.merge(segment.artifact.plan_stats())
        if _gated(segment.artifact, queries):
            kernels_used.append("contraction")
            rescored += _fold_segment_contraction(segment, queries, pads, offset)
        else:
            # Against the *global* Top-K: thresholds warmed by every
            # earlier segment, all queries together.
            kernels_used.append("streaming")
            run = _segment_run(segment, queries.acc)
            skipped += fold_run(queries, run, pads, offset)
        offset += segment.n_live
    return SegmentedOutput(
        pads.finish(), stats, tuple(kernels_used), skipped,
        offset * len(queries), rescored,
    )
