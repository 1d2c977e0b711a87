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
row sits in (``tests/property/test_prop_kernels.py`` locks every backend
to those bits).

The driver therefore computes per-row scores segment by segment and folds
them into **one global running Top-K**
(:class:`~repro.core.kernels.selection.RunningTopK`): an order-free
selection under the library's total order, so the answer is exactly
:func:`~repro.core.reference.topk_from_scores` of the live logical
matrix's quantised scores whatever the segment layout, placement or
offering order (``tests/property/test_prop_one_driver.py`` locks it).

One fold serves every segment, and the unsealed delta buffer (a small
1-partition snapshot, cached per generation) last: the walk over its
**sorted run** (:func:`~repro.core.kernels.streaming.fold_run`) — its
live rows heaviest ``Σ|v|`` first (ties by live-matrix id), decoded
straight from the segment's packet streams (no stream plan is built) and
cached on the segment per accumulate dtype and tombstone state.  Each
chunk is the rows the current thresholds cannot yet rule out (while the
pads are empty, a first chunk gathered exactly fills them), gathered
exactly when small, else scored by one SpMM in the run's dtype (float32
for the 20-bit and float32 designs), screened with that SpMM's error
bound as margin, and only the survivors, the rows that straddle the K-th
score, rescored exactly.  The walk stops at the first row every query
provably rejects.  The order comes from the segment's own rows, so
placement never changes the walk (it feeds only the modelled board and
the per-core candidate path).  No backend name or registry lookup is on
this path (the registry's backends serve the per-core candidate path,
:func:`~repro.core.kernels.base.run_kernel`).  The running Top-K carries
the current global K-th score *across* segments, so later segments skip
more (the LSM win: a hot head segment warms the thresholds the tail
segments are pruned by).

Tombstoned rows are left out of a segment's run, and surviving rows are
renumbered to their positions in the live logical matrix — exactly the
ids a fresh compile would produce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.kernels.base import Queries
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
    ``segment_kernels`` names the fold that served each segment in order,
    the delta, when present, last — always ``streaming``, the sorted-run
    walk.  ``skipped_rows``/``total_rows`` count live (row, query) pairs
    the walks provably pruned vs. offered, and ``rescored_rows`` the
    pairs that every SpMM-scored chunk's screen passed to the exact
    rescore — diagnostics only.
    """

    results: list
    segment_kernels: "tuple[str, ...]" = ()
    skipped_rows: int = 0
    total_rows: int = 0
    rescored_rows: int = 0

    @property
    def skip_fraction(self) -> float:
        """Skipped share of live (row, query) pairs (0.0 when none)."""
        return self.skipped_rows / self.total_rows if self.total_rows else 0.0


def _artifact_run(artifact, acc) -> SortedRun:
    """Every row of an artifact as one :class:`SortedRun`, decoded straight
    from its packet streams and named by artifact row — stream position
    ``j`` of a placed artifact holds artifact row ``placement.order[j]``.

    The one decision of what the query path reads: the packets, never the
    candidate path's stream plans.
    """
    placement = artifact.placement
    rows = np.arange(artifact.n_rows) if placement is None else placement.order
    return sorted_run(artifact.encoded.streams, acc, rows)


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
    skipped = rescored = offset = 0
    delta = collection.delta_segment()
    segments = collection.segments + ([] if delta is None else [delta])
    for segment in segments:
        # Against the *global* Top-K: thresholds warmed by every earlier
        # segment, all queries together.
        run = _segment_run(segment, queries.acc)
        skips, rescores = fold_run(queries, run, pads, offset)
        skipped, rescored = skipped + skips, rescored + rescores
        offset += segment.n_live
    return SegmentedOutput(
        pads.finish(), ("streaming",) * len(segments), skipped,
        offset * len(queries), rescored,
    )
