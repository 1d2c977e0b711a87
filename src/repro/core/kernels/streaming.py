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

import numpy as np

from repro.core.kernels.base import (
    KernelBackend,
    KernelOutput,
    KernelRequest,
    auto_query_chunk,
    map_partitions,
    register_kernel,
)
from repro.core.kernels.scratchpad import BatchScratchpads

__all__ = ["StreamingKernel", "block_scores", "screen_blocks"]

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
    backend and the multi-segment driver
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


class StreamingKernel(KernelBackend):
    """Fused streaming backend (see module docstring).

    Stateless by design: skip counters ride each run's
    :class:`KernelOutput` (the PR-5 ``last_skip_fraction`` singleton
    mirror is gone), so concurrent engines and process workers never
    observe each other's runs.
    """

    name = "streaming"
    fallback = "gather"

    def run_partition(
        self,
        index,
        plan,
        *,
        X,
        accumulate_dtype,
        local_k,
        query_chunk=None,
    ):
        """One partition: dense ``(values, rows, accepts, skipped, total)``.

        The skip counters ride the per-partition return value so pool
        workers (thread or process) never share mutable state — no lost
        updates at ``n_workers > 1``.
        """
        acc = np.dtype(accumulate_dtype)
        n_queries = X.shape[0]
        if plan.n_rows == 0:
            return (*BatchScratchpads(n_queries, local_k).finish_dense(), 0, 0)
        skipped = 0
        values = plan.kept_values.astype(acc)
        n_lanes = len(values)
        starts = plan.starts
        # Per-row |value| sums (float64) scaled by the provable slack:
        # any computed row score is <= row_abs[r] * max|x| for its query.
        seg_ends, blocks, block_peak = screen_blocks(plan, acc)

        chunk = query_chunk or auto_query_chunk(
            min(n_lanes, _BLOCK_LANE_BUDGET), acc.itemsize, n_queries
        )
        top_values = np.empty((n_queries, local_k), dtype=np.float64)
        top_rows = np.empty((n_queries, local_k), dtype=np.int64)
        accepts = np.empty(n_queries, dtype=np.int64)
        for q0 in range(0, n_queries, chunk):
            Xc = X[q0 : q0 + chunk].astype(acc)
            xmax = np.abs(Xc).max(axis=1).astype(np.float64)
            pads = BatchScratchpads(Xc.shape[0], local_k)
            for b in range(len(blocks) - 1):
                r0, r1 = int(blocks[b]), int(blocks[b + 1])
                bound = block_peak[b] * xmax
                if np.all(bound < pads.worst_thresholds()):
                    pads.skip_rows(r1 - r0)
                    skipped += (r1 - r0) * Xc.shape[0]
                    continue
                l0 = int(starts[r0])
                l1 = int(seg_ends[r1 - 1])
                scores = block_scores(
                    Xc, plan.kept_idx[l0:l1], values[l0:l1], starts[r0:r1] - l0
                )
                pads.fold(scores, r0)
            done = slice(q0, q0 + Xc.shape[0])
            top_values[done], top_rows[done], accepts[done] = pads.finish_dense()
        return top_values, top_rows, accepts, skipped, plan.n_rows * n_queries

    def run(self, request: KernelRequest) -> KernelOutput:
        params = {
            "accumulate_dtype": np.dtype(request.accumulate_dtype),
            "local_k": request.local_k,
            "query_chunk": request.query_chunk,
        }

        def one(i, plan):
            return self.run_partition(i, plan, X=request.X, **params)

        per_partition = map_partitions(
            one,
            request.plans,
            request.n_workers,
            executor=request.executor,
            process_fn=self.run_partition,
            process_params=params,
            X=request.X,
        )
        return KernelOutput.from_partitions(
            per_partition, request.n_queries, request.local_k
        )


register_kernel(StreamingKernel())
