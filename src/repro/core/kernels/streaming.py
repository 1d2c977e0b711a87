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
every query rejects, whatever order the rows are stored in.  A chunk too
large to gather cheaply is scored by one SpMM instead: the same slack
bounds its error, so a screen with that margin keeps every row that may
enter, and only the survivors are rescored exactly.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass, field

import numpy as np

from repro.core.kernels.base import (
    KernelBackend,
    Queries,
    auto_chunk_width,
    register_kernel,
)
from repro.core.kernels.contraction import score_chunks
from repro.formats.bscsr import decode_lanes

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

#: Lanes in a sorted run's first chunk; a chunk is gathered while its
#: ``(Q, lanes)`` products block holds :data:`_CHUNK_BYTES` and scored by
#: SpMM past that, where the two cost about the same (2-vCPU VM, Q = 1–128).
_FIRST_CHUNK_LANES = 1_024
_CHUNK_BYTES = 1 << 18


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

    The correctness-critical screen math of this backend's stream-order
    walk: per-row |value| sums reduced to per-block peaks (blocks of
    ~:data:`_BLOCK_LANE_BUDGET` lanes), scaled by :func:`_slack`.
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

    A CSR of the rows in run order (``kept_idx``/``values``/``indptr``),
    the only query-path copy of an artifact's lanes: ``values`` is float32
    wherever that holds every value in the accumulate dtype exactly (the
    20-bit and float32 designs), else in the accumulate dtype.  ``ids``
    names each row relative to the fold's ``first_row``; ``bounds`` is its
    provable score bound ``Σ|v| · slack`` — non-increasing, a NaN weight
    counted as +inf so it sorts first and never lets the walk stop.
    """

    kept_idx: np.ndarray
    values: np.ndarray
    indptr: np.ndarray
    ids: np.ndarray
    bounds: np.ndarray
    longest: int
    _matrices: dict = field(default_factory=dict, compare=False, repr=False)

    def matrix(self, r0: int, r1: int, n_cols: int):
        """Rows ``r0:r1`` as a SciPy CSR view of the run's lanes (no lane is
        copied); the whole run's view is built once per width."""
        import scipy.sparse as sp

        whole = r0 == 0 and r1 == len(self.ids)
        if whole and n_cols in self._matrices:
            return self._matrices[n_cols]
        l0, l1 = self.indptr[r0], self.indptr[r1]
        indptr = self.indptr[r0 : r1 + 1]
        matrix = sp.csr_matrix(
            (self.values[l0:l1], self.kept_idx[l0:l1], indptr - l0 if l0 else indptr),
            shape=(r1 - r0, n_cols),
        )
        if whole:
            self._matrices[n_cols] = matrix
        return matrix

    def select(self, keep: np.ndarray, ids: np.ndarray) -> "SortedRun":
        """The rows ``keep`` marks, renamed ``ids[keep]`` (both one entry
        per run row): same order, same bounds, so the walk over them stays
        heaviest first and provable."""
        lengths = np.diff(self.indptr)
        lanes = np.repeat(keep, lengths)
        return SortedRun(
            self.kept_idx[lanes],
            self.values[lanes],
            _row_pointer(lengths[keep]),
            ids[keep],
            self.bounds[keep],
            self.longest,
        )


def _row_pointer(lengths: np.ndarray) -> np.ndarray:
    """The CSR row pointer of rows ``lengths`` lanes long, int32 while the
    lanes fit (SciPy then takes it as it is)."""
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    return indptr.astype(np.int32) if indptr[-1] < 2**31 else indptr


def sorted_run(streams, accumulate_dtype, ids) -> SortedRun:
    """The :class:`SortedRun` of ``streams``' concatenated rows, decoded
    straight from their packets (:func:`~repro.formats.bscsr.decode_lanes`).

    Row ``r`` is named ``ids[r]``; rows are ordered by descending
    ``Σ|v|`` with ties by ascending id — so the run depends on the rows
    and their ids only, never on how a placement spread them over the
    streams.  The slack is taken at the longest row of all the streams,
    never smaller than any one stream's, so each bound stays provable.
    """
    import scipy.sparse as sp

    acc = np.dtype(accumulate_dtype)
    columns, lanes, lengths, weights = [], [], [], []
    for stream in streams:
        keep, starts = decode_lanes(stream)
        decoded = stream.values()[keep]
        lengths.append(np.diff(starts, append=len(decoded)))
        weights.append(np.add.reduceat(np.abs(decoded), starts))
        # Each stream's lanes are narrowed as soon as they are decoded, so
        # the build never holds every lane at full width.  Column ids fit a
        # packet's ``idx_bits`` field, far below 31 bits; values go to
        # float32 where that holds them exactly in the accumulate dtype.
        columns.append(stream.idx[keep].astype(np.int32))
        wide = decoded.astype(acc, copy=False)
        narrow = wide.astype(np.float32, copy=False)
        exact = narrow is wide or np.array_equal(narrow, wide, equal_nan=True)
        lanes.append(narrow if exact else wide)
    lengths, weights = np.concatenate(lengths), np.concatenate(weights)
    weights[np.isnan(weights)] = np.inf
    rows = np.lexsort((ids, -weights))
    # The streams' rows laid end to end (float32 only if every stream's
    # values were exact), then permuted by SciPy's row gather.
    kept_idx = np.concatenate(columns)
    values = np.concatenate(lanes)
    del columns, lanes  # released before the gather allocates the run
    shape = (len(lengths), int(kept_idx.max(initial=0)) + 1)
    run = sp.csr_matrix((values, kept_idx, _row_pointer(lengths)), shape=shape)[rows]
    longest = int(lengths.max(initial=1))
    return SortedRun(
        run.indices,
        run.data,
        run.indptr,
        ids[rows],
        weights[rows] * _slack(longest, acc),
        longest,
    )


#: The SpMM margin's absolute term, per lane and per unit of row weight:
#: what float32 underflow can cost (2^-150 per rounding, with room).
_UNDERFLOW = 2.0**-148


def _margins(run: SortedRun, r0: int, xmax: np.ndarray) -> np.ndarray:
    """Per query, how far the run-dtype SpMM score of any row from ``r0``
    on may lie from its exact score: both lie within ``(slack − 1) · Σ|v|
    · max|x_q|`` of the true sum (the run dtype's slack also covers
    rounding the query to it), plus underflow.  A NaN query, or one whose
    SpMM could overflow, gets +inf, which screens nothing out."""
    dtype = run.values.dtype
    bound = float(run.bounds[r0])
    reach = bound * xmax
    margin = reach * (2.0 * (_slack(run.longest, dtype) - 1.0))
    margin += (bound + run.longest) * _UNDERFLOW
    ceiling = float(np.finfo(dtype).max) / 4
    return np.where(np.maximum(reach, xmax) < ceiling, margin, np.inf)


def _rescore(Xc: np.ndarray, run: SortedRun, rows, lanes) -> np.ndarray:
    """Exact float64 scores of run row ``rows[i]`` against query
    ``lanes[i]``: each pair's lanes gathered, multiplied and reduced by
    one ``np.add.reduceat`` in the accumulate dtype — :func:`block_scores`'
    float ops on the same values, hence the same bits."""
    if len(rows) == 0:
        return np.empty(0)
    starts = run.indptr[rows]
    lengths = run.indptr[rows + 1] - starts
    firsts = np.cumsum(lengths) - lengths
    lane = np.arange(int(lengths.sum())) + np.repeat(starts - firsts, lengths)
    products = Xc[np.repeat(lanes, lengths), run.kept_idx[lane]]
    products *= run.values[lane]
    return np.add.reduceat(products, firsts).astype(np.float64)


def _screen_chunk(queries: Queries, run: SortedRun, r0, r1, pads, first_row) -> int:
    """Rows ``r0:r1`` scored by one SpMM in the run's dtype, one
    byte-budgeted query block at a time (:func:`score_chunks`): each block
    is screened with :func:`_margins` and only the survivors are rescored
    exactly and offered.  Returns the (row, query) pairs rescored."""
    matrix = run.matrix(r0, r1, queries.X.shape[1])
    margins = _margins(run, r0, queries.xmax)
    rescored = 0
    for q0, approx in score_chunks(matrix, queries.Xc):
        rows, lanes = pads.screen(approx, q0, margins[q0 : q0 + approx.shape[1]])
        del approx  # released before the next block is allocated
        rows += r0
        pads.offer(lanes, _rescore(queries.Xc, run, rows, lanes), first_row + run.ids[rows])
        rescored += len(rows)
    return rescored


def _gather(queries: Queries, run: SortedRun, r0: int, r1: int) -> np.ndarray:
    """Rows ``r0:r1``'s exact ``(Q, rows)`` scores (:func:`block_scores`)."""
    l0, l1 = run.indptr[r0], run.indptr[r1]
    return block_scores(
        queries.Xc, run.kept_idx[l0:l1], run.values[l0:l1], run.indptr[r0:r1] - l0
    )


def fold_run(queries: Queries, run: SortedRun, pads, first_row=0) -> "tuple[int, int]":
    """Walk ``run`` heaviest row first: bound → stop, else score → fold.

    Before each chunk, its first row's bound — the largest left — is
    screened against every query's *current* threshold; the walk
    **stops** at the first chunk every query rejects, since bounds only
    fall and thresholds only rise, so every row after it is provably
    rejected too (accounted with ``skip_rows``, never read).

    Each chunk is the rows the current thresholds cannot yet rule out,
    gathered exactly (:func:`block_scores`) while its ``(Q, lanes)``
    products block fits :data:`_CHUNK_BYTES`, else scored by one SpMM and
    screened (:func:`_screen_chunk`).  While some query's pads are not
    full, the first chunk — up to :data:`_FIRST_CHUNK_LANES` lanes, at
    least ``K`` rows — is gathered to fill them, unless its ``K``-th best
    scores rule out not even the run's last row: then the whole run is one
    SpMM.  Returns the (row, query) pairs skipped and rescored.
    """
    n_rows, n_queries, k = len(run.ids), len(queries), pads.local_k
    gather_lanes = max(1, _CHUNK_BYTES // max(1, n_queries * queries.acc.itemsize))
    # In the row pointer's dtype: a wider key would make searchsorted copy it.
    first = run.indptr.dtype.type(min(_FIRST_CHUNK_LANES, gather_lanes))
    # A zero query leaves every row open (its rows all score 0).
    zero_query = not queries.xmax.all()
    r0 = rescored = 0
    # An empty query block still walks (and skips) every row.
    while r0 < n_rows:
        worst = pads.worst_thresholds()
        if (run.bounds[r0] * queries.xmax < worst).all():
            pads.skip_rows(n_rows - r0)
            return (n_rows - r0) * n_queries, rescored
        # The least bound some threshold cannot rule out, NaN while some
        # query's pads are not full: it sizes chunks, never stops the walk.
        reach = -np.inf if zero_query else float((worst / queries.xmax).min())
        if r0 == 0 and reach != reach:
            r1 = min(n_rows, max(k, int(np.searchsorted(run.indptr, first))))
            scores = _gather(queries, run, 0, r1)
            if run.indptr[-1] - run.indptr[r1] > gather_lanes:
                # If its K-th best scores rule out not even the last row,
                # the whole run, this chunk included, is one SpMM.
                probe = np.fmax(worst, np.partition(scores, -k, axis=1)[:, -k])
                if not np.all(run.bounds[-1] * queries.xmax < probe):
                    scores, r1 = None, n_rows
        else:
            r1 = n_rows if reach != reach else bisect.bisect_right(
                run.bounds, -reach, lo=r0 + 1, key=operator.neg
            )
            fits = run.indptr[r1] - run.indptr[r0] <= gather_lanes
            scores = _gather(queries, run, r0, r1) if fits else None
        if scores is None:
            rescored += _screen_chunk(queries, run, r0, r1, pads, first_row)
        else:
            pads.fold(scores, first_row, run.ids[r0:r1])
        r0 = r1
    return 0, rescored


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
