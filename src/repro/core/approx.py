"""The partitioned Top-K approximation (Section III-A, Figure 2).

Instead of the exact global Top-K, each of the ``c`` independent cores
computes the top ``k < K`` rows of its own partition; the union of the
``k*c`` candidates (with ``k*c >= K``) is re-ranked and truncated to ``K``.
Errors occur only when some partition holds *more than k* of the true Top-K
rows — increasingly unlikely as ``c`` grows (quantified in
:mod:`repro.core.precision_model`).  The best-ranked rows are never lost:
the global top-1..top-k always survive partitioning.

This is the hardware's approximation, not the engines' answer: an engine's
``query``/``query_batch`` return the exact global Top-K, and the per-core
candidates it would merge come from ``query_candidates``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.partition import partition_rows
from repro.core.reference import (
    TopKResult,
    exact_topk_spmv,
    results_from_dense,
    topk_from_scores,
)
from repro.errors import ConfigurationError
from repro.formats.csr import CSRMatrix
from repro.utils.validation import check_positive_int

__all__ = [
    "approximate_topk_spmv",
    "merge_topk_candidates",
    "CandidateBlock",
    "default_local_k",
]

#: The paper's per-core k (Section IV-B): fixed at 8 by the argmin RAW chain.
PAPER_LOCAL_K = 8


def default_local_k(top_k: int, n_partitions: int) -> int:
    """Smallest per-partition k satisfying ``k * c >= K`` (at least 1)."""
    top_k = check_positive_int(top_k, "top_k")
    n_partitions = check_positive_int(n_partitions, "n_partitions")
    return max(1, -(-top_k // n_partitions))


def merge_topk_candidates(candidates: list[TopKResult], top_k: int) -> TopKResult:
    """Re-rank the union of per-partition candidates and keep the best ``top_k``.

    Candidate indices must already be global row ids.
    """
    top_k = check_positive_int(top_k, "top_k")
    if not candidates:
        return TopKResult(indices=np.empty(0, dtype=np.int64), values=np.empty(0))
    indices = np.concatenate([c.indices for c in candidates])
    values = np.concatenate([c.values for c in candidates])
    keep = min(top_k, len(indices))
    if keep == 0:
        return TopKResult(indices=np.empty(0, dtype=np.int64), values=np.empty(0))
    order = np.lexsort((indices, -values))[:keep]
    return TopKResult(indices=indices[order], values=values[order])


@dataclass(frozen=True)
class CandidateBlock:
    """Every core's candidates for a block of queries, as dense arrays.

    ``indices[p, q]`` / ``values[p, q]`` are core ``p``'s ``k`` candidates
    for query ``q`` — global row ids and scores, ``(P, Q, k)``, each
    ordered (desc value, asc index) with unfilled slots (``index == -1``,
    a partition shorter than ``k``) last.  Reads as a nested list:
    ``len(block)`` is ``Q`` and ``block[q]`` is query ``q``'s per-core
    :class:`TopKResult` list, built on demand (merge it with
    :func:`merge_topk_candidates`).
    """

    indices: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return self.indices.shape[1]

    def __getitem__(self, query: int) -> "list[TopKResult]":
        return results_from_dense(self.indices[:, query], self.values[:, query])

    def __iter__(self):
        return (self[q] for q in range(len(self)))


def approximate_topk_spmv(
    matrix: CSRMatrix,
    x: np.ndarray,
    top_k: int,
    n_partitions: int,
    local_k: int | None = None,
) -> TopKResult:
    """Partitioned approximate Top-K SpMV (the algorithmic path).

    This is the paper's approximation scheme evaluated with exact float64
    arithmetic per partition — it isolates the *partitioning* error from the
    *quantisation* error (the full hardware path lives in
    :mod:`repro.core.dataflow`).

    Parameters
    ----------
    matrix:
        The embedding collection (CSR).
    x:
        Dense query vector.
    top_k:
        Global ``K`` to retrieve.
    n_partitions:
        Number of independent partitions ``c``.
    local_k:
        Per-partition ``k``; defaults to ``ceil(K / c)``.  The paper uses
        a fixed k = 8 with c = 32 for K up to 100 (see
        :data:`PAPER_LOCAL_K`); ``k * c >= K`` is enforced.
    """
    top_k = check_positive_int(top_k, "top_k")
    n_partitions = check_positive_int(n_partitions, "n_partitions")
    if local_k is None:
        local_k = default_local_k(top_k, n_partitions)
    else:
        local_k = check_positive_int(local_k, "local_k")
    if local_k * n_partitions < top_k:
        raise ConfigurationError(
            f"k*c = {local_k}*{n_partitions} = {local_k * n_partitions} cannot "
            f"cover K = {top_k}; increase local_k or n_partitions"
        )
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (matrix.n_cols,):
        raise ConfigurationError(
            f"x must have shape ({matrix.n_cols},), got {x.shape}"
        )

    scores = matrix.matvec(x)
    candidates = []
    for part in partition_rows(matrix.n_rows, n_partitions):
        if part.n_rows == 0:
            continue
        local = topk_from_scores(scores[part.start : part.stop], local_k)
        candidates.append(
            TopKResult(indices=local.indices + part.start, values=local.values)
        )
    return merge_topk_candidates(candidates, top_k)


def exact_equivalent(matrix: CSRMatrix, x: np.ndarray, top_k: int) -> TopKResult:
    """Convenience wrapper over the golden reference (same signature family)."""
    return exact_topk_spmv(matrix, x, top_k)
