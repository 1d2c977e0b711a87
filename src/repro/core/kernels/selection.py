"""The query path's Top-K stage: an exact running selection.

:class:`RunningTopK` keeps every query's best ``K`` rows under the library's
one total order — value descending, NaN below −inf, ties by ascending row —
so it answers exactly :func:`~repro.core.reference.topk_from_scores` of the
scores offered, in any order and any cut (the top-K of a union is the top-K
of its parts' top-Ks).  A fold is two steps: :meth:`~RunningTopK.screen`
finds the cells of a score block that may still enter, and
:meth:`~RunningTopK.offer` merges candidate values by one ``lexsort`` over
(lane, −value, row).  The screen drops a cell below its lane's K-th value —
raised on a long block to the K-th largest of its row-group maxima.

The screen also serves blocks of *approximate* scores, each within a
per-lane ``margin`` of the exact one: a cell is then dropped only when its
score is below ``max(bar − margin, peak_K − 2·margin)`` — the exact score
is provably below the lane's K-th value ``bar``, or below ``K`` other rows'
exact scores (each group peak's row is at least ``peak − margin``) — and
the caller offers the survivors' *exact* scores.  The cut is compared in
float64, so a float32 block never rounds it.  With ``margin = 0`` it is
the exact screen.  The bar only rises, so the strict ``<`` screen of the
sorted-run walk keeps every skip.
"""

from __future__ import annotations

import numpy as np

from repro.core.reference import TopKResult, results_from_dense

__all__ = ["RunningTopK"]

#: The row id of an unfilled slot: with its NaN value it ranks last.
_UNFILLED = np.iinfo(np.int64).max

#: Rows per group whose maximum bounds a lane's K-th value (a block too
#: short for ``2K`` groups of 16 rows is screened row by row).
_GROUP_ROWS, _MIN_GROUP_ROWS = 64, 16


def _screen_groups(block, bar, margin, size, k):
    """``(row, lane)`` of the rows not below ``bar − margin`` raised to the
    K-th largest ``size``-row group maximum less ``2·margin``, reading only
    the groups that reach it."""
    n, width = block.shape
    full = n // size
    if block.strides[0] == block.itemsize:  # reduce along contiguous rows
        peaks = block.T[:, : full * size].reshape(width, full, size).max(axis=2).T
    else:
        peaks = block[: full * size].reshape(full, size, width).max(axis=1)
    if full * size < n:
        peaks = np.vstack([peaks, block[full * size :].max(axis=0)])
    # A NaN group bounds nothing, and no ``<`` keeps it from being read.
    bound = np.partition(np.where(np.isnan(peaks), -np.inf, peaks), -k, axis=0)
    bar = np.fmax(bar - margin, bound[-k] - 2 * margin)
    group, lane = np.nonzero(~(peaks < bar))
    row = (group * size)[:, None] + np.arange(size)
    lane = np.broadcast_to(lane[:, None], row.shape)
    keep = (row < n) & ~(block[np.minimum(row, n - 1), lane] < bar[lane])
    return row[keep], lane[keep]


class RunningTopK:
    """``vals``/``rows``: ``(lanes, K)``, each lane sorted best first; an
    unfilled slot is ``(NaN, _UNFILLED)``, which the order itself ranks
    last."""

    def __init__(self, n_queries: int, k: int):
        self.local_k = int(k)
        self.vals = np.full((int(n_queries), self.local_k), np.nan)
        self.rows = np.full(self.vals.shape, _UNFILLED)

    def worst_thresholds(self) -> np.ndarray:
        """Per-lane K-th value: no row below it enters (NaN bars nothing)."""
        return self.vals[:, -1].copy()

    def skip_rows(self, n_rows: int) -> None:
        """Rows a screen proved below every bar: nothing to record."""

    def fold(self, row_values, first_row: int, row_ids) -> None:
        """Offer ``(Q, n)`` scores as rows ``first_row + row_ids[j]``."""
        block = row_values.T
        rows, lanes = self.screen(block)
        self.offer(lanes, block[rows, lanes], first_row + row_ids[rows])

    def screen(self, block, lane0: int = 0, margin=0.0):
        """``(rows, lanes)`` of the cells of an ``(n_rows, lanes)`` block,
        read in its own layout, that may enter lanes ``lane0`` on — lanes
        returned absolute.  ``margin`` (per lane, or a scalar) bounds how
        far each block score may lie from the exact one (module doc)."""
        width, k = block.shape[1], self.local_k
        bar = self.vals[lane0 : lane0 + width, -1]
        size = min(_GROUP_ROWS, len(block) // (2 * k))
        if size >= _MIN_GROUP_ROWS:
            rows, lanes = _screen_groups(block, bar, margin, size, k)
        else:
            cells = np.flatnonzero(~(block.T < (bar - margin)[:, None]))
            lanes, rows = np.divmod(cells, len(block))
        return rows, lanes + lane0

    def offer(self, lanes, values, names) -> None:
        """Merge ``values[i]`` into lane ``lanes[i]`` as row ``names[i]``."""
        if len(lanes) == 0:
            return
        n_lanes, k = self.vals.shape
        vals = np.concatenate([self.vals.ravel(), values])
        named = np.concatenate([self.rows.ravel(), names])
        slots = np.repeat(np.arange(n_lanes), k)
        order = np.lexsort((named, -vals, np.concatenate([slots, lanes])))
        counts = k + np.bincount(lanes, minlength=n_lanes)
        take = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
        self.vals, self.rows = vals[take], named[take]

    def finish(self) -> "list[TopKResult]":
        """Per-lane results (the unfilled slots dropped)."""
        rows = np.where(self.rows == _UNFILLED, -1, self.rows)
        return results_from_dense(rows, self.vals)
