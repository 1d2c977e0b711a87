"""Synthetic sparse embedding matrices (Table III's uniform and Γ families).

Row-length distributions:

* **uniform** — integers uniform on ``[avg/2, 3*avg/2]`` (mean ``avg``);
* **gamma** — the paper's left-skewed ``Γ(k=3, θ=4/3)`` (mean 4), rescaled
  to the target average; rounding can produce empty rows, exercising the
  BS-CSR placeholder path.

Values are non-negative (|N(0,1)| draws), matching the unsigned fixed-point
designs, and rows are L2-normalised by default so that dot products against
a normalised query are cosine similarities in [0, 1].
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataGenerationError
from repro.formats.csr import CSRMatrix
from repro.utils.rng import derive_rng
from repro.utils.validation import check_positive_int

__all__ = [
    "uniform_row_lengths",
    "gamma_row_lengths",
    "distinct_columns",
    "embeddings_from_row_lengths",
    "synthetic_embeddings",
    "zipf_embeddings",
]


def uniform_row_lengths(
    n_rows: int,
    avg_nnz: int,
    rng: "int | np.random.Generator | None" = None,
    spread: float = 0.5,
) -> np.ndarray:
    """Uniform integer row lengths with mean ``avg_nnz``.

    ``spread`` is the half-width relative to the mean (0.5 gives
    [avg/2, 3 avg/2]); 0 gives constant-length rows.
    """
    n_rows = check_positive_int(n_rows, "n_rows")
    avg_nnz = check_positive_int(avg_nnz, "avg_nnz")
    if not 0.0 <= spread <= 1.0:
        raise DataGenerationError(f"spread must be in [0, 1], got {spread}")
    rng = derive_rng(rng)
    half = int(round(avg_nnz * spread))
    return rng.integers(avg_nnz - half, avg_nnz + half + 1, size=n_rows).astype(np.int64)


def gamma_row_lengths(
    n_rows: int,
    avg_nnz: int,
    rng: "int | np.random.Generator | None" = None,
    shape: float = 3.0,
    scale: float = 4.0 / 3.0,
) -> np.ndarray:
    """Skewed Γ row lengths (paper default Γ(k=3, θ=4/3), mean 4, rescaled).

    The continuous draw is rescaled so the *mean* hits ``avg_nnz`` and then
    rounded; empty rows (length 0) are possible and intentional.
    """
    n_rows = check_positive_int(n_rows, "n_rows")
    avg_nnz = check_positive_int(avg_nnz, "avg_nnz")
    if shape <= 0 or scale <= 0:
        raise DataGenerationError(
            f"gamma parameters must be > 0, got shape={shape}, scale={scale}"
        )
    rng = derive_rng(rng)
    raw = rng.gamma(shape, scale, size=n_rows)
    rescaled = raw * (avg_nnz / (shape * scale))
    return np.rint(rescaled).astype(np.int64)


def distinct_columns(
    row_lengths: np.ndarray,
    n_cols: int,
    rng: np.random.Generator,
    rejection_rounds: int = 4,
) -> np.ndarray:
    """Draw sorted distinct column indices for every row, vectorised.

    Two-phase strategy: sample with replacement and re-draw only the rows
    that collided (fast, converges immediately in the paper's L << M
    regime), then finish stragglers — long rows where rejection stalls —
    with exact per-row no-replacement draws.

    Returns the concatenated (CSR-ordered) index array.
    """
    row_lengths = np.asarray(row_lengths, dtype=np.int64)
    if (row_lengths > n_cols).any():
        raise DataGenerationError(
            f"a row requests more distinct columns than n_cols={n_cols}"
        )
    max_len = int(row_lengths.max(initial=0))
    if max_len == 0:
        return np.empty(0, dtype=np.int64)
    n_rows = len(row_lengths)
    # Work in a padded (n_rows, max_len) grid; padding cells get unique
    # sentinel values >= n_cols so they never collide with real draws.
    grid = rng.integers(0, n_cols, size=(n_rows, max_len))
    pad_mask = np.arange(max_len)[None, :] >= row_lengths[:, None]
    sentinel = n_cols + np.arange(max_len)[None, :]
    grid = np.where(pad_mask, np.broadcast_to(sentinel, grid.shape), grid)
    dup_rows = np.zeros(n_rows, dtype=bool)
    for _ in range(max(1, rejection_rounds)):
        sorted_grid = np.sort(grid, axis=1)
        dup_rows = (np.diff(sorted_grid, axis=1) == 0).any(axis=1)
        if not dup_rows.any():
            break
        redraw = rng.integers(0, n_cols, size=(int(dup_rows.sum()), max_len))
        redraw = np.where(
            pad_mask[dup_rows], np.broadcast_to(sentinel, redraw.shape), redraw
        )
        grid[dup_rows] = redraw
    if dup_rows.any():
        # Exact fallback for the (few) rows rejection did not clear.
        for row in np.flatnonzero(dup_rows):
            length = int(row_lengths[row])
            picks = rng.choice(n_cols, size=length, replace=False)
            grid[row, :length] = picks
            grid[row, length:] = sentinel[0, length:]
    sorted_grid = np.sort(grid, axis=1)
    return sorted_grid[~pad_mask]


def embeddings_from_row_lengths(
    row_lengths: np.ndarray,
    n_cols: int,
    rng: "int | np.random.Generator | None" = None,
    non_negative: bool = True,
    normalize: bool = True,
) -> CSRMatrix:
    """Build a sparse embedding matrix with the given row-length profile."""
    rng = derive_rng(rng)
    row_lengths = np.asarray(row_lengths, dtype=np.int64)
    if (row_lengths < 0).any():
        raise DataGenerationError("row lengths must be >= 0")
    n_cols = check_positive_int(n_cols, "n_cols")
    indices = distinct_columns(row_lengths, n_cols, rng)
    values = rng.standard_normal(len(indices))
    if non_negative:
        values = np.abs(values)
    # Guard against exact zeros: a stored zero is indistinguishable from
    # padding after quantisation, and embeddings never carry zero weights.
    tiny = 1e-9
    values = np.where(np.abs(values) < tiny, tiny, values)
    indptr = np.concatenate([[0], np.cumsum(row_lengths)]).astype(np.int64)
    if normalize and len(values):
        # L2-normalise each row so dot products are cosine similarities.
        sq = np.add.reduceat(values**2, indptr[:-1][row_lengths > 0])
        norms = np.sqrt(sq)
        scale = np.ones(len(row_lengths))
        scale[row_lengths > 0] = 1.0 / norms
        values = values * np.repeat(scale, row_lengths)
    return CSRMatrix(indptr=indptr, indices=indices, data=values, n_cols=n_cols)


def synthetic_embeddings(
    n_rows: int,
    n_cols: int,
    avg_nnz: int,
    distribution: str = "uniform",
    seed: "int | np.random.Generator | None" = None,
    non_negative: bool = True,
    normalize: bool = True,
) -> CSRMatrix:
    """One-call generator for the paper's synthetic matrix families.

    ``distribution`` is ``"uniform"`` or ``"gamma"`` (Table III).
    """
    rng = derive_rng(seed)
    if distribution == "uniform":
        lengths = uniform_row_lengths(n_rows, avg_nnz, rng)
    elif distribution == "gamma":
        lengths = gamma_row_lengths(n_rows, avg_nnz, rng)
    else:
        raise DataGenerationError(
            f"distribution must be 'uniform' or 'gamma', got {distribution!r}"
        )
    lengths = np.minimum(lengths, n_cols)
    return embeddings_from_row_lengths(
        lengths, n_cols, rng, non_negative=non_negative, normalize=normalize
    )


def zipf_embeddings(
    n_rows: int,
    n_cols: int,
    avg_nnz: int,
    seed: "int | np.random.Generator | None" = None,
    exponent: float = 1.0,
    non_negative: bool = True,
) -> CSRMatrix:
    """A Zipfian embedding corpus: Γ row lengths × power-law row magnitudes.

    Real embedding collections are Zipfian twice over — in nnz per row and
    in row norm (popularity) — and the magnitude ranks are *shuffled*
    across row ids, so neither channel balance nor the per-core streaming
    kernels' threshold block-skip falls out of the original row order.  This is the
    corpus the placement tuner (:mod:`repro.core.tune`) is evaluated on:
    ``uniform`` placement skips ~nothing here, norm-sorting within
    nnz-balanced channels recovers the skip.

    Row ``r`` gets magnitude ``1 / (1 + rank_r)^exponent`` with a seeded
    random rank permutation; rows stay direction-normalised first, so the
    magnitude *is* the L2 norm.
    """
    if exponent <= 0:
        raise DataGenerationError(f"exponent must be > 0, got {exponent}")
    rng = derive_rng(seed)
    lengths = np.minimum(gamma_row_lengths(n_rows, avg_nnz, rng), n_cols)
    matrix = embeddings_from_row_lengths(
        lengths, n_cols, rng, non_negative=non_negative, normalize=True
    )
    ranks = rng.permutation(n_rows).astype(np.float64)
    scales = 1.0 / np.power(1.0 + ranks, exponent)
    data = matrix.data * np.repeat(scales, np.diff(matrix.indptr))
    return matrix.with_data(data)
