"""Compressed Sparse Row (CSR) matrix container.

CSR is the baseline storage format (used by the CPU baseline
``sparse_dot_topn`` and as the canonical input to the BS-CSR encoder).  The
paper's Section III-B explains why raw CSR is ill-suited to fully-pipelined
streaming on FPGAs — the per-row pointer indirection creates data-dependent
accesses — which motivates BS-CSR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.errors import FormatError

__all__ = ["CSRMatrix"]


@dataclass
class CSRMatrix:
    """A sparse matrix in CSR form with float64 values.

    Attributes
    ----------
    indptr:
        Row pointer array of length ``n_rows + 1`` (int64, non-decreasing).
    indices:
        Column indices, length ``nnz`` (int64).
    data:
        Values, length ``nnz`` (float64).
    n_cols:
        Number of columns (the embedding dimension ``M``).
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_cols: int

    def __post_init__(self) -> None:
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        self.n_cols = int(self.n_cols)
        self.validate()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_scipy(cls, matrix: sp.spmatrix) -> "CSRMatrix":
        """Convert any SciPy sparse matrix (canonicalised)."""
        csr = matrix.tocsr()
        csr.sum_duplicates()
        csr.sort_indices()
        return cls(
            indptr=csr.indptr, indices=csr.indices, data=csr.data, n_cols=csr.shape[1]
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """Extract the non-zero pattern of a dense 2-D array."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise FormatError(f"dense input must be 2-D, got shape {dense.shape}")
        return cls.from_scipy(sp.csr_matrix(dense))

    @classmethod
    def from_rows(
        cls, rows: "list[tuple[np.ndarray, np.ndarray]]", n_cols: int
    ) -> "CSRMatrix":
        """Build from per-row ``(indices, values)`` pairs (row order preserved)."""
        lengths = [len(ind) for ind, _ in rows]
        indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        if rows:
            indices = np.concatenate([np.asarray(ind, dtype=np.int64) for ind, _ in rows])
            data = np.concatenate([np.asarray(val, dtype=np.float64) for _, val in rows])
        else:
            indices = np.empty(0, dtype=np.int64)
            data = np.empty(0, dtype=np.float64)
        return cls(indptr=indptr, indices=indices, data=data, n_cols=n_cols)

    # ------------------------------------------------------------------ #
    # Properties and validation
    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        """Number of rows (the collection size ``N``)."""
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return len(self.data)

    @property
    def shape(self) -> tuple[int, int]:
        """Logical (n_rows, n_cols) shape."""
        return (self.n_rows, self.n_cols)

    def validate(self) -> None:
        """Check structural invariants; raises :class:`FormatError` on violation."""
        if len(self.indptr) < 1:
            raise FormatError("indptr must have at least one element")
        if self.indptr[0] != 0:
            raise FormatError(f"indptr must start at 0, got {self.indptr[0]}")
        if (np.diff(self.indptr) < 0).any():
            raise FormatError("indptr must be non-decreasing")
        if self.indptr[-1] != len(self.indices):
            raise FormatError(
                f"indptr[-1]={self.indptr[-1]} disagrees with nnz={len(self.indices)}"
            )
        if len(self.indices) != len(self.data):
            raise FormatError(
                f"indices ({len(self.indices)}) and data ({len(self.data)}) disagree"
            )
        if self.n_cols < 0:
            raise FormatError(f"negative n_cols {self.n_cols}")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.n_cols
        ):
            raise FormatError(
                f"column indices out of range [0, {self.n_cols}): "
                f"[{self.indices.min()}, {self.indices.max()}]"
            )

    def row_lengths(self) -> np.ndarray:
        """Number of stored entries per row."""
        return np.diff(self.indptr)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(indices, values)`` of row ``i``."""
        if not 0 <= i < self.n_rows:
            raise FormatError(f"row {i} out of range [0, {self.n_rows})")
        start, stop = self.indptr[i], self.indptr[i + 1]
        return self.indices[start:stop], self.data[start:stop]

    # ------------------------------------------------------------------ #
    # Conversion and computation
    # ------------------------------------------------------------------ #
    def to_scipy(self) -> sp.csr_matrix:
        """Convert to a SciPy CSR matrix."""
        return sp.csr_matrix(
            (self.data, self.indices, self.indptr), shape=self.shape
        )

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense float64 array."""
        return np.asarray(self.to_scipy().todense())

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Reference SpMV ``y = A @ x`` in float64."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise FormatError(f"x must have shape ({self.n_cols},), got {x.shape}")
        return self.to_scipy() @ x

    def row_slice(self, start: int, stop: int) -> "CSRMatrix":
        """Return rows ``start:stop`` as a new CSR matrix (zero-copy where possible)."""
        if not (0 <= start <= stop <= self.n_rows):
            raise FormatError(
                f"invalid row slice [{start}, {stop}) for {self.n_rows} rows"
            )
        lo, hi = self.indptr[start], self.indptr[stop]
        return CSRMatrix(
            indptr=self.indptr[start : stop + 1] - lo,
            indices=self.indices[lo:hi],
            data=self.data[lo:hi],
            n_cols=self.n_cols,
        )

    def take_rows(self, order: np.ndarray) -> "CSRMatrix":
        """Rows in ``order`` (any row ids, any order) as a new CSR matrix.

        The row-permutation primitive behind skew-aware placement: a full
        permutation reorders the collection before BS-CSR encoding.
        Within each row the column order is preserved, so per-row reduce
        results stay bit-identical to the unpermuted matrix.
        """
        order = np.ascontiguousarray(order, dtype=np.int64)
        if order.ndim != 1:
            raise FormatError(f"row order must be 1-D, got shape {order.shape}")
        if len(order) and (order.min() < 0 or order.max() >= self.n_rows):
            raise FormatError(
                f"row order entries out of range [0, {self.n_rows})"
            )
        lengths = np.diff(self.indptr)[order]
        indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        total = int(indptr[-1])
        # Vectorised ragged gather: lane t of new row i reads old lane
        # old_start[i] + (t - new_start[i]).
        gather = (
            np.arange(total, dtype=np.int64)
            - np.repeat(indptr[:-1], lengths)
            + np.repeat(self.indptr[order], lengths)
        )
        return CSRMatrix(
            indptr=indptr,
            indices=self.indices[gather],
            data=self.data[gather],
            n_cols=self.n_cols,
        )

    def with_data(self, data: np.ndarray) -> "CSRMatrix":
        """Return a copy sharing structure but with replaced values.

        Used to apply value quantisation without re-deriving the pattern.
        """
        data = np.asarray(data, dtype=np.float64)
        if data.shape != self.data.shape:
            raise FormatError(
                f"replacement data must have shape {self.data.shape}, got {data.shape}"
            )
        return CSRMatrix(
            indptr=self.indptr, indices=self.indices, data=data, n_cols=self.n_cols
        )
