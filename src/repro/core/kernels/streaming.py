"""Fused streaming kernel: row blocks folded straight into the scratchpads.

Instead of materialising a partition's full ``(Q, n_rows)`` score block
(the gather kernel's working set), this backend walks each partition in
*row blocks* sized to a lane budget and fuses the three stages per block:

1. **bound** — before touching any lane, compare a provable per-block score
   upper bound against every query's current eviction threshold; when the
   whole block is below every threshold, the gather/multiply/reduce for it
   is skipped entirely (the rows "never touch memory");
2. **gather+reduce** — surviving blocks slice the kept-lane stream
   contiguously (row segments are consecutive lanes), multiply in place and
   reduce per row with ``np.add.reduceat`` — the same elementwise float ops
   on the same values as the reference kernel, hence the same bits;
3. **fold** — scores stream into :class:`~repro.core.kernels.scratchpad.
   BatchScratchpads`, which raises the thresholds the next block is
   screened against.

Why the skip is exact
---------------------
A skipped row must be *provably* rejected: the tracker accepts on
``value >= worst``, so a block may be skipped only when
``upper_bound < worst`` (strict) for every query in the chunk.  The bound
is ``max_row(Σ|v|) · max|x| · slack`` computed in float64, with ``slack``
covering both the pairwise-summation error of the accumulate dtype (Higham:
relative error < (n+2)·eps for an n-term reduction, we budget 16·(n+8)·eps)
and the rounding of the bound product itself.  Unfilled scratchpads have
``worst = −inf``, so nothing is skipped before every query's scratchpad is
full; non-finite bounds (±inf/NaN lanes or queries) fail the strict
compare and disable skipping.  On uniform random collections thresholds
rarely clear the bound and the kernel degenerates to a tighter-working-set
gather; on skewed collections (rows sorted by magnitude, power-law norms)
whole tails of every partition are never read.

The multi-segment driver walks the same bound over a **sorted run**
instead (:func:`sorted_run`, :func:`fold_run`): a segment's live rows
copied heaviest ``Σ|v|`` first, so its walk *stops* at the first chunk
every query rejects, whatever order the rows are stored in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.kernels.base import (
    KernelBackend,
    Queries,
    auto_chunk_width,
    register_kernel,
)

__all__ = [
    "SortedRun",
    "StreamingKernel",
    "block_scores",
    "fold_run",
    "screen_blocks",
    "sorted_run",
]

#: Target lane count per row block (× query chunk × itemsize ≈ working set).
_BLOCK_LANE_BUDGET = 16_384

#: Lanes in a sorted run's first chunk; each next chunk doubles, up to the
#: lanes whose ``(Q, lanes)`` products block holds :data:`_CHUNK_BYTES`.
_FIRST_CHUNK_LANES = 1_024
_CHUNK_BYTES = 1 << 20


def _block_bounds(starts: np.ndarray, n_lanes: int, budget: int) -> np.ndarray:
    """Row indices partitioning a partition into blocks of ~``budget`` lanes.

    Returns ``[r_0=0, r_1, ..., n_rows]``; each block holds at least one
    row (a single row may exceed the budget).
    """
    n_rows = len(starts)
    lane_of_row = np.concatenate([starts, [n_lanes]])
    bounds = [0]
    r = 0
    while r < n_rows:
        stop = int(np.searchsorted(lane_of_row, lane_of_row[r] + budget, side="left"))
        stop = max(r + 1, min(stop, n_rows))
        bounds.append(stop)
        r = stop
    return np.array(bounds, dtype=np.int64)


def _slack(max_len: int, accumulate_dtype) -> float:
    """The bound's relative slack for rows of up to ``max_len`` lanes: the
    accumulate dtype's summation error plus the bound product's rounding
    (module docstring)."""
    return 1.0 + 16.0 * (max_len + 8) * float(np.finfo(accumulate_dtype).eps)


def screen_blocks(plan, accumulate_dtype) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """The provable-skip precompute: ``(seg_ends, blocks, block_peak)``.

    One home for the correctness-critical screen math of this backend's
    stream-order walk and the native one's: per-row |value| sums reduced
    to per-block peaks (blocks of ~:data:`_BLOCK_LANE_BUDGET` lanes),
    scaled by :func:`_slack`.
    """
    starts = plan.starts
    n_lanes = len(plan.kept_values)
    row_abs = np.add.reduceat(np.abs(plan.kept_values), starts)
    seg_ends = np.concatenate([starts[1:], [n_lanes]])
    slack = _slack(int((seg_ends - starts).max(initial=1)), accumulate_dtype)
    blocks = _block_bounds(starts, n_lanes, _BLOCK_LANE_BUDGET)
    block_peak = np.maximum.reduceat(row_abs, blocks[:-1]) * slack
    return seg_ends, blocks, block_peak


def block_scores(Xc, kept_idx, values, row_starts) -> np.ndarray:
    """``(Q, n_rows)`` float64 scores of a run of consecutive rows.

    ``kept_idx``/``values`` are the rows' kept lanes (values already in
    ``Xc``'s accumulate dtype), ``row_starts`` each row's first lane within
    them: gather, multiply in place, reduce per row — the reference
    kernel's float ops on the same values, hence the same bits.
    """
    products = Xc[:, kept_idx]
    products *= values
    reduced = np.add.reduceat(products, row_starts, axis=1)
    return reduced.astype(Xc.dtype, copy=False).astype(np.float64)


@dataclass(frozen=True)
class SortedRun:
    """Rows heaviest first, with what the walk needs (:func:`sorted_run`).

    ``kept_idx``/``values`` hold the rows' kept lanes back to back in run
    order (values in the accumulate dtype), ``starts`` each row's first
    lane, ``ids`` its id relative to the fold's ``first_row``, and
    ``bounds`` its provable score bound ``Σ|v| · slack`` — non-increasing,
    a NaN weight counted as +inf so it sorts first and never lets the walk
    stop.
    """

    kept_idx: np.ndarray
    values: np.ndarray
    starts: np.ndarray
    ids: np.ndarray
    bounds: np.ndarray

    def select(self, keep: np.ndarray, ids: np.ndarray) -> "SortedRun":
        """The rows ``keep`` marks, renamed ``ids[keep]`` (both one entry
        per run row): same order, same bounds, so the walk over them stays
        heaviest first and provable."""
        lengths = np.diff(self.starts, append=len(self.values))
        lanes = np.repeat(keep, lengths)
        kept = lengths[keep]
        return SortedRun(
            self.kept_idx[lanes],
            self.values[lanes],
            np.cumsum(kept) - kept,
            ids[keep],
            self.bounds[keep],
        )


def sorted_run(plans, accumulate_dtype, ids) -> SortedRun:
    """The :class:`SortedRun` of ``plans``' concatenated rows.

    Row ``r`` is named ``ids[r]``; rows are ordered by descending
    ``Σ|v|`` with ties by ascending id — so the run depends on the rows
    and their ids only, never on how a placement spread them over the
    plans.  The slack is taken at the longest row of all the plans, never
    smaller than any one plan's, so each bound stays provable.
    """
    acc = np.dtype(accumulate_dtype)
    lengths = np.concatenate(
        [np.diff(plan.starts, append=len(plan.kept_values)) for plan in plans]
    )
    weights = np.concatenate(
        [np.add.reduceat(np.abs(plan.kept_values), plan.starts) for plan in plans]
    )
    weights[np.isnan(weights)] = np.inf
    rows = np.lexsort((ids, -weights))
    run_lengths = lengths[rows]
    run_starts = np.cumsum(run_lengths) - run_lengths
    # Column ids fit a packet's ``idx_bits`` field, far below 31 bits.
    kept_idx = np.empty(int(run_lengths.sum()), dtype=np.int32)
    values = np.empty(len(kept_idx), dtype=acc)
    # Plan by plan, so no copy of every lane is ever made but the run's own.
    first = 0
    for plan in plans:
        mine = np.flatnonzero((rows >= first) & (rows < first + plan.n_rows))
        n = run_lengths[mine]
        offs = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        src = np.repeat(plan.starts[rows[mine] - first], n) + offs
        dst = np.repeat(run_starts[mine], n) + offs
        kept_idx[dst] = plan.kept_idx[src].astype(np.int32)
        values[dst] = plan.kept_values[src].astype(acc)
        first += plan.n_rows
    return SortedRun(
        kept_idx,
        values,
        run_starts,
        ids[rows],
        weights[rows] * _slack(int(lengths.max(initial=1)), acc),
    )


def fold_run(queries: Queries, run: SortedRun, pads, first_row=0) -> int:
    """Walk ``run`` heaviest row first: bound → stop, else gather → fold.

    Chunks of the run are scored with :func:`block_scores` and offered
    to ``pads`` under their ids.  Before each chunk, its first
    row's bound — the largest left — is screened against every query's
    *current* threshold; the walk **stops** at the first chunk every query
    rejects, since bounds only fall and thresholds only rise, so every row
    after it is provably rejected too (accounted with ``skip_rows``, never
    gathered).  Chunks start at :data:`_FIRST_CHUNK_LANES` lanes and double
    while their products block stays within :data:`_CHUNK_BYTES`.  Returns
    the (row, query) pairs skipped.
    """
    n_rows = len(run.ids)
    r0, budget = 0, _FIRST_CHUNK_LANES
    # An empty query block still walks (and skips) every row.
    cap = max(budget, _CHUNK_BYTES // max(1, len(queries) * queries.acc.itemsize))
    while r0 < n_rows:
        if np.all(run.bounds[r0] * queries.xmax < pads.worst_thresholds()):
            pads.skip_rows(n_rows - r0)
            return (n_rows - r0) * len(queries)
        l0 = int(run.starts[r0])
        r1 = max(r0 + 1, int(np.searchsorted(run.starts, l0 + budget)))
        l1 = int(run.starts[r1]) if r1 < n_rows else len(run.values)
        scores = block_scores(
            queries.Xc, run.kept_idx[l0:l1], run.values[l0:l1],
            run.starts[r0:r1] - l0,
        )
        pads.fold(scores, first_row, run.ids[r0:r1])
        r0, budget = r1, min(2 * budget, cap)
    return 0


class StreamingKernel(KernelBackend):
    """Fused streaming backend (see module docstring).

    Stateless by design: skip counters ride each run's
    :class:`KernelOutput`, so concurrent engines and process workers never
    observe each other's runs.
    """

    name = "streaming"
    fallback = "gather"

    def fold_width(self, plan, queries):
        """Queries per block walk, sized to the gathered products block."""
        n_lanes = min(len(plan.kept_values), _BLOCK_LANE_BUDGET)
        return auto_chunk_width(n_lanes, queries.acc.itemsize, len(queries))

    def fold_plan(self, queries, plan, pads):
        """The block walk in stream order (module docstring)."""
        values = plan.kept_values.astype(queries.acc, copy=False)
        seg_ends, cuts, peaks = screen_blocks(plan, queries.acc)
        skipped = 0
        for r0, r1, peak in zip(cuts[:-1].tolist(), cuts[1:].tolist(), peaks.tolist()):
            if np.all(peak * queries.xmax < pads.worst_thresholds()):
                pads.skip_rows(r1 - r0)
                skipped += r1 - r0
                continue
            lanes = slice(int(plan.starts[r0]), int(seg_ends[r1 - 1]))
            scores = block_scores(
                queries.Xc, plan.kept_idx[lanes], values[lanes],
                plan.starts[r0:r1] - lanes.start,
            )
            pads.fold(scores, r0)
        return skipped * len(queries), plan.n_rows * len(queries)


register_kernel(StreamingKernel())
