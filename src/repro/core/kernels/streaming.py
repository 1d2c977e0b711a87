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
    "StreamingKernel",
    "BlockScreen",
    "block_scores",
    "build_screen",
    "fold_screen",
    "screen_blocks",
]

#: Target lane count per row block (× query chunk × itemsize ≈ working set).
_BLOCK_LANE_BUDGET = 16_384


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


def screen_blocks(
    plan,
    accumulate_dtype,
    live: "np.ndarray | None" = None,
    lane_budget: int = _BLOCK_LANE_BUDGET,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """The provable-skip precompute: ``(seg_ends, blocks, block_peak)``.

    One home for the correctness-critical screen math shared by this
    backend, the native one and the multi-segment driver
    (:mod:`repro.core.kernels.segmented`): per-row |value| sums reduced to
    per-block peaks, scaled by the slack covering the accumulate dtype's
    pairwise-summation error and the bound product's own rounding (see the
    module docstring).  ``live`` zeroes tombstoned rows' weights — they
    are never offered, so they must never inhibit a skip.  ``lane_budget``
    sizes the row blocks; the bound holds for any cut.
    """
    acc = np.dtype(accumulate_dtype)
    starts = plan.starts
    n_lanes = len(plan.kept_values)
    row_abs = np.add.reduceat(np.abs(plan.kept_values), starts)
    if live is not None:
        row_abs = np.where(live, row_abs, 0.0)
    seg_ends = np.concatenate([starts[1:], [n_lanes]])
    max_len = int((seg_ends - starts).max(initial=1))
    slack = 1.0 + 16.0 * (max_len + 8) * float(np.finfo(acc).eps)
    blocks = _block_bounds(starts, n_lanes, lane_budget)
    block_peak = np.maximum.reduceat(row_abs, blocks[:-1]) * slack
    return seg_ends, blocks, block_peak


def block_scores(Xc, kept_idx, values, row_starts) -> np.ndarray:
    """``(Q, n_rows)`` float64 scores of a run of consecutive stream rows.

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
class BlockScreen:
    """Query-independent screen precompute of a run of stream plans.

    Every partition stream cut into row blocks, each with its provable
    ``Σ|v| · slack`` peak (:func:`screen_blocks`, dead rows
    zero-weighted).  ``blocks[i]`` is ``(kept_idx, values, row_starts,
    ids, live)``: views of one plan's lanes for a run of consecutive stream
    rows (values in the accumulate dtype), the ids of its live rows
    relative to the fold's ``first_row``, and the mask that selects them
    (``None`` = all live).  Blocks without a live row are left out — they
    are never gathered.  ``live_from[i]`` counts the live rows of blocks
    ``i`` onwards.

    By default blocks keep stream order.  A ``descending`` screen is sorted
    heaviest bound first, which is what lets the fold *stop* at the first
    block it can skip.
    """

    peaks: "list[float]"
    blocks: "list[tuple]"
    live_from: "list[int]"
    descending: bool


def build_screen(
    plans,
    accumulate_dtype,
    live: "np.ndarray | None" = None,
    ids: "np.ndarray | None" = None,
    lane_budget: int = _BLOCK_LANE_BUDGET,
    descending: bool = False,
) -> BlockScreen:
    """Build the :class:`BlockScreen` of ``plans``' concatenated rows.

    ``live`` masks those rows (``None`` = all live) and ``ids`` names them
    (default: each row's position among the live ones).  A NaN peak (NaN
    matrix value) sorts first, so the peaks a descending walk relies on to
    only fall never hide one.
    """
    acc = np.dtype(accumulate_dtype)
    plans = [plan for plan in plans if plan.n_rows]
    if ids is None:
        n_rows = sum(plan.n_rows for plan in plans)
        ids = np.arange(n_rows) if live is None else np.cumsum(live) - live
    peaks, blocks = [], []
    offset = 0
    for plan in plans:
        rows = slice(offset, offset + plan.n_rows)
        offset += plan.n_rows
        plan_live = None if live is None else live[rows]
        plan_ids = ids[rows]
        values = plan.kept_values.astype(acc, copy=False)
        starts = plan.starts
        seg_ends, cuts, plan_peaks = screen_blocks(plan, acc, plan_live, lane_budget)
        plan_peaks = np.where(np.isnan(plan_peaks), np.inf, plan_peaks)
        cuts = cuts.tolist()
        for b, peak in enumerate(plan_peaks.tolist()):
            r0, r1 = cuts[b], cuts[b + 1]
            mask = None if plan_live is None else plan_live[r0:r1]
            if mask is not None and mask.all():
                mask = None
            block_ids = plan_ids[r0:r1] if mask is None else plan_ids[r0:r1][mask]
            if len(block_ids) == 0:
                continue
            lanes = slice(int(starts[r0]), int(seg_ends[r1 - 1]))
            row_starts = starts[r0:r1] - lanes.start
            peaks.append(peak)
            blocks.append(
                (plan.kept_idx[lanes], values[lanes], row_starts, block_ids, mask)
            )
    if descending:
        heaviest_first = np.argsort(-np.array(peaks), kind="stable").tolist()
        peaks = [peaks[i] for i in heaviest_first]
        blocks = [blocks[i] for i in heaviest_first]
    n_live = [len(block[3]) for block in blocks]
    live_from = np.cumsum(n_live[::-1], dtype=np.int64)[::-1].tolist()
    return BlockScreen(peaks, blocks, [*live_from, 0], descending)


def fold_screen(queries: Queries, screen: BlockScreen, pads, first_row=0):
    """The block walk (module docstring): bound → skip, else gather → fold.

    All of ``queries`` fold together against the *current* thresholds of
    ``pads`` (fresh or warm); a skip needs every lane's consent, so a
    narrower block of queries (:meth:`StreamingKernel.fold_width`) skips
    more.  A stream-order screen continues past a skipped block.  A
    descending one offers its blocks out of row order, each one's live rows
    under their own ids (``fold(row_ids=)``), and the walk **stops** at the
    first block it can skip — peaks only fall from there and thresholds
    only rise, so every later block is provably rejected too (accounted
    with ``skip_rows``, never gathered).  Returns ``(skipped, screened)``
    (row, query) pair counts.
    """
    n_queries = len(queries)
    live_from = screen.live_from
    skipped = 0
    for b, peak in enumerate(screen.peaks):
        if np.all(peak * queries.xmax < pads.worst_thresholds()):
            # Descending peaks: every later block is rejected with this one.
            rest = screen.descending
            n_skipped = live_from[b] - (0 if rest else live_from[b + 1])
            pads.skip_rows(n_skipped)
            skipped += n_skipped * n_queries
            if rest:
                break
            continue
        kept_idx, values, row_starts, ids, live = screen.blocks[b]
        scores = block_scores(queries.Xc, kept_idx, values, row_starts)
        if live is not None:
            scores = scores[:, live]
        pads.fold(scores, first_row, ids)
    return skipped, live_from[0] * n_queries


class StreamingKernel(KernelBackend):
    """Fused streaming backend (see module docstring).

    Stateless by design: skip counters ride each run's
    :class:`KernelOutput` (the PR-5 ``last_skip_fraction`` singleton
    mirror is gone), so concurrent engines and process workers never
    observe each other's runs.
    """

    name = "streaming"
    fallback = "gather"

    def fold_width(self, plan, queries):
        """Queries per block walk, sized to the gathered products block."""
        n_lanes = min(len(plan.kept_values), _BLOCK_LANE_BUDGET)
        return auto_chunk_width(n_lanes, queries.acc.itemsize, len(queries))

    def fold_plan(self, queries, plan, pads, first_row=0, live=None):
        """Walk the plan's own stream-order screen (:func:`fold_screen`)."""
        screen = build_screen([plan], queries.acc, live)
        return fold_screen(queries, screen, pads, first_row)


register_kernel(StreamingKernel())
