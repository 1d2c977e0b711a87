"""Exact Top-K SpMV — the golden reference.

Top-K SpMV computes ``y = A @ x`` and returns the indices and values of the
``K`` largest entries of ``y`` (Figure 1 of the paper).  When ``A`` holds
L2-normalised embeddings and ``x`` is an L2-normalised query, these are the
``K`` most cosine-similar embeddings.

Ordering convention used across the whole library: descending value, ties
broken by ascending row index.  This makes every comparison in the test
suite deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.formats.csr import CSRMatrix
from repro.utils.validation import check_positive_int

__all__ = [
    "TopKResult",
    "dense_order",
    "results_from_dense",
    "topk_from_scores",
    "exact_topk_spmv",
]


@dataclass(frozen=True)
class TopKResult:
    """Result of a Top-K query: parallel arrays sorted by descending value.

    Attributes
    ----------
    indices:
        Row ids of the retrieved embeddings, best first.
    values:
        The corresponding dot products (similarity scores).
    """

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", np.ascontiguousarray(self.indices, dtype=np.int64))
        object.__setattr__(self, "values", np.ascontiguousarray(self.values, dtype=np.float64))
        if self.indices.shape != self.values.shape or self.indices.ndim != 1:
            raise ConfigurationError(
                f"indices {self.indices.shape} and values {self.values.shape} "
                "must be equal-length 1-D arrays"
            )

    @property
    def k(self) -> int:
        """Number of retrieved entries."""
        return len(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(zip(self.indices.tolist(), self.values.tolist()))

    def head(self, k: int) -> "TopKResult":
        """The best ``k`` entries (already sorted)."""
        return TopKResult(indices=self.indices[:k], values=self.values[:k])


def dense_order(indices: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-row sort order of ``(n, k)`` candidate arrays: the library's
    (desc value, asc index), with unfilled slots (``index < 0``) after every
    real candidate — an accepted ``-inf`` included, it carries a real id."""
    tie = np.where(indices < 0, np.iinfo(np.int64).max, indices)
    return np.lexsort((tie, -values), axis=-1)


def results_from_dense(indices: np.ndarray, values: np.ndarray) -> "list[TopKResult]":
    """One :class:`TopKResult` per row of sorted ``(n, k)`` candidate arrays.

    The dense form batch paths carry results in: every row already ordered
    (desc value, asc index), with its unfilled slots (``index < 0``) last —
    they are dropped here.
    """
    filled = (indices >= 0).sum(axis=1).tolist()
    return [
        TopKResult(indices=indices[row, :n], values=values[row, :n])
        for row, n in enumerate(filled)
    ]


def topk_from_scores(scores: np.ndarray, k: int) -> TopKResult:
    """Select the top ``k`` entries of a dense score vector.

    Uses ``argpartition`` for O(N) selection and sorts only the selected
    entries.  Ties are broken by ascending index (deterministic).
    """
    k = check_positive_int(k, "k")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ConfigurationError(f"scores must be 1-D, got shape {scores.shape}")
    n = len(scores)
    k = min(k, n)
    if k == 0:
        return TopKResult(indices=np.empty(0, dtype=np.int64), values=np.empty(0))
    if k == n:
        candidates = np.arange(n)
    else:
        partitioned = np.argpartition(scores, n - k)
        candidates = partitioned[n - k :]
        # argpartition picks arbitrarily among values tied at the k-th
        # largest; enforce the ascending-index tie-break by swapping in any
        # lower-index rows that share the boundary value.
        boundary = scores[candidates].min()
        excluded = partitioned[: n - k]
        tied_out = excluded[scores[excluded] == boundary]
        if len(tied_out):
            tied_in = candidates[scores[candidates] == boundary]
            keep = candidates[scores[candidates] > boundary]
            tied = np.sort(np.concatenate([tied_in, tied_out]))[: len(tied_in)]
            candidates = np.concatenate([keep, tied])
    # Sort candidates: descending value, ascending index on ties.
    order = np.lexsort((candidates, -scores[candidates]))
    chosen = candidates[order]
    return TopKResult(indices=chosen, values=scores[chosen])


def exact_topk_spmv(matrix, x: np.ndarray, k: int) -> TopKResult:
    """Exact Top-K SpMV in float64: the paper's correctness baseline.

    ``matrix`` may be a :class:`repro.formats.csr.CSRMatrix`, a SciPy sparse
    matrix, or a dense 2-D NumPy array.
    """
    x = np.asarray(x, dtype=np.float64)
    if isinstance(matrix, CSRMatrix):
        scores = matrix.matvec(x)
    elif hasattr(matrix, "tocsr"):  # SciPy sparse
        scores = np.asarray(matrix.tocsr() @ x).ravel()
    else:
        dense = np.asarray(matrix, dtype=np.float64)
        if dense.ndim != 2:
            raise ConfigurationError(
                f"matrix must be CSRMatrix, scipy sparse or 2-D array, got shape {dense.shape}"
            )
        if dense.shape[1] != len(x):
            raise ConfigurationError(
                f"matrix has {dense.shape[1]} columns but x has {len(x)} entries"
            )
        scores = dense @ x
    return topk_from_scores(scores, k)
