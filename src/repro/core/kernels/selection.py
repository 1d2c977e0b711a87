"""The query path's Top-K stage: an exact running selection.

:class:`RunningTopK` keeps every query's best ``K`` rows under the library's
one total order — value descending, NaN below −inf, ties by ascending row —
so it answers exactly :func:`~repro.core.reference.topk_from_scores` of the
scores offered, in any order and any cut (the top-K of a union is the top-K
of its parts' top-Ks).  Rows below a lane's K-th value — raised on a long
block to the K-th largest of its row-group maxima — are never merged; the
rest are, by one ``lexsort`` over (lane, −value, row).  The bar only rises,
so the strict ``<`` screens of the streaming backends keep every skip.
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


def _screen_groups(block, bar, size, k):
    """``(row, lane)`` of the rows not below ``bar`` raised to the K-th largest
    ``size``-row group maximum, reading only the groups that reach it."""
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
    bar = np.fmax(bar, bound[-k])
    group, lane = np.nonzero(~(peaks < bar))
    row = (group * size)[:, None] + np.arange(size)
    lane = np.broadcast_to(lane[:, None], row.shape)
    keep = (row < n) & ~(block[np.minimum(row, n - 1), lane] < bar[lane])
    return row[keep], lane[keep]


class RunningTopK:
    """``vals``/``rows``: ``(lanes, K)``, each lane sorted best first (the
    native backend inserts in place, keeping that order); an unfilled slot
    is ``(NaN, _UNFILLED)``, which the order itself ranks last."""

    def __init__(self, n_queries: int, k: int):
        self.local_k = int(k)
        self.vals = np.full((int(n_queries), self.local_k), np.nan)
        self.rows = np.full(self.vals.shape, _UNFILLED)

    def worst_thresholds(self) -> np.ndarray:
        """Per-lane K-th value: no row below it enters (NaN bars nothing)."""
        return self.vals[:, -1].copy()

    def skip_rows(self, n_rows: int) -> None:
        """Rows a screen proved below every bar: nothing to record."""

    def fold(self, row_values, first_row: int = 0, row_ids=None) -> None:
        """Offer ``(Q, n)`` scores as rows ``first_row + j`` (or ``+ row_ids[j]``)."""
        n = row_values.shape[1]
        ids = np.arange(n) if row_ids is None else row_ids
        self.fold_rows(row_values.T, first_row + ids)

    def fold_rows(self, block, ids, lane0: int = 0, live=None) -> None:
        """Offer an ``(n_rows, lanes)`` block in its own layout to lanes
        ``lane0`` on, row ``i`` as ``ids[i]``; rows ``live`` marks dead are
        dropped, and must hold −inf (they may not raise a group maximum)."""
        width, k = block.shape[1], self.local_k
        lanes = slice(lane0, lane0 + width)
        size = min(_GROUP_ROWS, len(block) // (2 * k))
        if size >= _MIN_GROUP_ROWS:
            hit, lane = _screen_groups(block, self.vals[lanes, -1], size, k)
        else:
            cells = np.flatnonzero(~(block.T < self.vals[lanes, -1, None]))
            lane, hit = np.divmod(cells, len(block))
        if live is not None:
            hit, lane = hit[live[hit]], lane[live[hit]]
        if len(hit) == 0:
            return
        vals = np.concatenate([self.vals[lanes].ravel(), block[hit, lane]])
        rows = np.concatenate([self.rows[lanes].ravel(), ids[hit]])
        slots = np.repeat(np.arange(width), k)
        order = np.lexsort((rows, -vals, np.concatenate([slots, lane])))
        counts = k + np.bincount(lane, minlength=width)
        take = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
        self.vals[lanes], self.rows[lanes] = vals[take], rows[take]

    def finish(self) -> "list[TopKResult]":
        """Per-lane results (the unfilled slots dropped)."""
        rows = np.where(self.rows == _UNFILLED, -1, self.rows)
        return results_from_dense(rows, self.vals)
