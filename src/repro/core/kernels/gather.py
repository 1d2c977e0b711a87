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
    KernelOutput,
    KernelRequest,
    auto_query_chunk,
    map_partitions,
    register_kernel,
)
from repro.core.kernels.scratchpad import BatchScratchpads

__all__ = ["GatherKernel", "run_plan_gather", "plan_row_scores"]


def plan_row_scores(
    X: np.ndarray,
    plan,
    accumulate_dtype: np.dtype,
    query_chunk: "int | None" = None,
) -> np.ndarray:
    """Every query's per-row scores for one partition plan, as float64.

    The score half of the reference computation: gather the kept lanes
    against the query block and reduce per row with ``np.add.reduceat`` —
    the numerical twin of the hardware's adder tree, so the returned bits
    are exactly what ``run_fast`` produces for each row (the float64
    upcast of a float32 accumulation is lossless).  Shared by the local
    Top-K path below and the multi-segment global fold
    (:mod:`repro.core.kernels.segmented`).
    """
    n_queries = X.shape[0]
    values = plan.kept_values.astype(accumulate_dtype)
    # Chunk the query dimension so the (chunk, kept_lanes) intermediates stay
    # cache-resident at large Q; rows are independent, so chunking cannot
    # change any per-query bit.
    chunk = query_chunk or auto_query_chunk(
        len(values), np.dtype(accumulate_dtype).itemsize, n_queries
    )
    row_values = np.empty((n_queries, plan.n_rows), dtype=np.float64)
    for q0 in range(0, n_queries, chunk):
        block = X[q0 : q0 + chunk].astype(accumulate_dtype)
        products = values[None, :] * block[:, plan.kept_idx]
        reduced = np.add.reduceat(products, plan.starts, axis=1)
        row_values[q0 : q0 + chunk] = reduced.astype(accumulate_dtype)
    return row_values


def _fold_plan(X, plan, accumulate_dtype, local_k, query_chunk) -> BatchScratchpads:
    """One partition plan's full score block folded into fresh scratchpads."""
    pads = BatchScratchpads(X.shape[0], local_k)
    if plan.n_rows:
        pads.fold(plan_row_scores(X, plan, accumulate_dtype, query_chunk), 0)
    return pads


def run_plan_gather(
    X: np.ndarray,
    plan,
    accumulate_dtype: np.dtype,
    local_k: int,
    query_chunk: "int | None" = None,
):
    """One partition plan against a query block (the reference computation).

    Returns ``(results, accepts)`` for the partition — per-query local
    :class:`~repro.core.reference.TopKResult` plus accept counts.
    """
    return _fold_plan(X, plan, accumulate_dtype, local_k, query_chunk).finish()


class GatherKernel(KernelBackend):
    """Reference backend (see module docstring)."""

    name = "gather"
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
        """One partition: dense ``(values, rows, accepts)``."""
        return _fold_plan(
            X, plan, accumulate_dtype, local_k, query_chunk
        ).finish_dense()

    def run(self, request: KernelRequest) -> KernelOutput:
        params = {
            "accumulate_dtype": request.accumulate_dtype,
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


register_kernel(GatherKernel())
