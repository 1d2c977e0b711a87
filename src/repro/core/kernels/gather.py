"""The reference kernel: broadcast gather + ``reduceat`` per partition.

This is the PR-1 batched hot path, extracted verbatim from
``core/dataflow.py``: for every partition the kept-lane values are gathered
against the query block, reduced per row with ``np.add.reduceat`` (the
numerical twin of the hardware's adder tree — same float32/float64 bits as
:meth:`~repro.core.dataflow.DataflowCore.run_fast`), and the full
``(Q, n_rows)`` score block is folded through the batch scratchpads once.

It supports every request unconditionally, which is what makes it the
registry's universal fallback; the other backends are judged bit-identical
against it (and, transitively, against ``run_fast``).
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.base import (
    KernelBackend,
    Queries,
    auto_chunk_width,
    register_kernel,
)
__all__ = ["GatherKernel", "plan_row_scores"]


def plan_row_scores(queries: Queries, plan) -> np.ndarray:
    """Every query's per-row scores for one partition plan, as float64.

    The score half of the reference computation: gather the kept lanes
    against the query block and reduce per row with ``np.add.reduceat`` —
    the numerical twin of the hardware's adder tree, so the returned bits
    are exactly what ``run_fast`` produces for each row (the float64
    upcast of a float32 accumulation is lossless).  Shared by the fold
    below and the multi-segment driver's live-row-order fold of a placed
    segment (:mod:`repro.core.kernels.segmented`).
    """
    acc = queries.acc
    n_queries = len(queries)
    values = plan.kept_values.astype(acc)
    # Chunk the query dimension so the (chunk, kept_lanes) intermediates stay
    # cache-resident at large Q; rows are independent, so chunking cannot
    # change any per-query bit.
    chunk = auto_chunk_width(len(values), acc.itemsize, n_queries)
    row_values = np.empty((n_queries, plan.n_rows), dtype=np.float64)
    for q0 in range(0, n_queries, chunk):
        block = queries.Xc[q0 : q0 + chunk]
        products = values[None, :] * block[:, plan.kept_idx]
        reduced = np.add.reduceat(products, plan.starts, axis=1)
        row_values[q0 : q0 + chunk] = reduced.astype(acc)
    return row_values


class GatherKernel(KernelBackend):
    """Reference backend (see module docstring)."""

    name = "gather"
    fallback = "gather"

    def fold_plan(self, queries, plan, pads, first_row=0, live=None):
        """The plan's full score block, dead columns dropped, in one fold.

        Dropping dead columns before the fold is bit-neutral for the
        equivalent matrix (those rows simply do not exist in it), and the
        surviving columns keep their relative order, so ids ``first_row +
        j`` are exactly the live-matrix positions.
        """
        if plan.n_rows:
            scores = plan_row_scores(queries, plan)
            if live is not None and not live.all():
                scores = scores[:, live]
            pads.fold(scores, first_row)
        return 0, 0


register_kernel(GatherKernel())
