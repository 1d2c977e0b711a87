"""Skew-aware row placement: which row lands in which HBM channel, and where.

The paper's multi-channel efficiency story (Sections III-A/V) silently
assumes rows are dealt across channels in original order — fine for the
uniform synthetic collections of the paper's experiments, but real
embedding corpora are Zipfian in nnz and norm.  Two measurable effects
hang on the row order:

* **channel balance** — the accelerator's makespan is the *slowest* core
  (see :meth:`repro.hw.multicore.TopKSpmvAccelerator.timing_from_packets`),
  so a channel that drew the heavy rows stalls the whole board;
* **threshold block-skip** on the per-core candidate path — the
  streaming kernel walks each partition stream in stored order and
  proves whole row blocks unable to beat the current top-k thresholds
  (:func:`repro.core.kernels.streaming.screen_blocks`); the bound is the
  per-row |value| sum, so placing heavy rows *first* within a channel
  fills the scratchpads early and lets the light tail be skipped.  Host
  queries walk each segment's own sorted run instead
  (:func:`repro.core.kernels.streaming.sorted_run`), whatever the
  placement.

A :class:`Placement` captures a full row layout — a permutation plus the
partition boundaries cut into it — as a first-class artifact property:
:func:`repro.core.collection.compile_collection` accepts one, persists it
digest-covered, and every engine inverse-maps results back to original row
ids so top-k output is bit-identical to the unpermuted reference.

Strategies (:func:`plan_placement`):

``uniform``
    Original order, balanced contiguous blocks — the default (resolves to
    *no* placement, keeping artifacts and digests byte-identical to
    pre-placement builds).
``skew``
    Greedy LPT bin-packing of nnz across channels, then descending weight
    *within* each channel.  Balance picks the channel (the makespan),
    skew picks the order inside it (the candidate path's screen).

:func:`repro.core.tune.tune_placement` keeps whichever has the lower
modelled makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.partition import partition_rows
from repro.errors import ConfigurationError
from repro.formats.csr import CSRMatrix

__all__ = [
    "PLACEMENT_STRATEGIES",
    "Placement",
    "default_boundaries",
    "plan_placement",
    "resolve_placement",
    "row_weights",
]

#: Strategy names accepted by :func:`plan_placement` (and the CLI).
PLACEMENT_STRATEGIES = ("uniform", "skew")


def default_boundaries(n_rows: int, n_partitions: int) -> np.ndarray:
    """The balanced contiguous split ``partition_rows`` produces, as cuts."""
    parts = partition_rows(n_rows, n_partitions)
    return np.array([0] + [p.stop for p in parts], dtype=np.int64)


def row_weights(matrix: CSRMatrix) -> np.ndarray:
    """Per-row |value| sums — the streaming kernel's screen bound weight.

    ``screen_blocks`` proves a row unable to reach any scratchpad when
    ``Σ|v| · max|x| < threshold``, so this (not the L2 norm) is the
    quantity a skip-maximising placement must sort by.
    """
    row_of_nnz = np.repeat(
        np.arange(matrix.n_rows, dtype=np.int64), matrix.row_lengths()
    )
    return np.bincount(
        row_of_nnz, weights=np.abs(matrix.data), minlength=matrix.n_rows
    )


@dataclass
class Placement:
    """A persisted row layout: permutation + partition boundaries.

    Attributes
    ----------
    order:
        ``order[j]`` is the *original* row id stored at permuted position
        ``j`` — the map from stream space back to collection space.  The
        engines globalise kernel results through it, so candidates leave
        the engine in original ids and top-k stays bit-identical.
    boundaries:
        ``n_partitions + 1`` cuts into permuted space; partition ``p``
        holds permuted positions ``[boundaries[p], boundaries[p + 1])``.
    strategy:
        The strategy that produced this placement (provenance only; a
        hand-built placement reports ``"custom"``).
    """

    order: np.ndarray
    boundaries: np.ndarray
    strategy: str = "custom"

    def __post_init__(self) -> None:
        self.order = np.ascontiguousarray(self.order, dtype=np.int64)
        self.boundaries = np.ascontiguousarray(self.boundaries, dtype=np.int64)
        self.strategy = str(self.strategy)
        self.validate()

    def validate(self) -> None:
        """Check the permutation and the cuts; raise on violation."""
        n = len(self.order)
        if self.order.ndim != 1 or self.boundaries.ndim != 1:
            raise ConfigurationError("placement arrays must be 1-D")
        if len(self.boundaries) < 2:
            raise ConfigurationError(
                "boundaries needs at least 2 entries (one partition)"
            )
        if self.boundaries[0] != 0 or self.boundaries[-1] != n:
            raise ConfigurationError(
                f"boundaries must run 0..{n}, got "
                f"[{self.boundaries[0]}, {self.boundaries[-1]}]"
            )
        if (np.diff(self.boundaries) < 0).any():
            raise ConfigurationError("boundaries must be non-decreasing")
        seen = np.zeros(n, dtype=bool)
        if n:
            if self.order.min() < 0 or self.order.max() >= n:
                raise ConfigurationError(
                    f"order entries out of range [0, {n})"
                )
            seen[self.order] = True
        if not seen.all():
            raise ConfigurationError("order is not a permutation (repeats)")

    # ------------------------------------------------------------------ #
    # Shape
    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        """Rows the permutation covers."""
        return len(self.order)

    @property
    def n_partitions(self) -> int:
        """Channels the boundaries cut."""
        return len(self.boundaries) - 1

    @cached_property
    def inverse(self) -> np.ndarray:
        """``inverse[original_row] = permuted position`` (cached)."""
        inv = np.empty(self.n_rows, dtype=np.int64)
        inv[self.order] = np.arange(self.n_rows, dtype=np.int64)
        return inv

    @property
    def is_identity(self) -> bool:
        """True when this placement changes nothing: original order and
        the default balanced cuts.  Identity placements are dropped at
        compile time so artifacts (and digests) stay byte-identical to
        builds that never heard of placement."""
        return bool(
            np.array_equal(self.order, np.arange(self.n_rows, dtype=np.int64))
            and np.array_equal(
                self.boundaries,
                default_boundaries(self.n_rows, self.n_partitions),
            )
        )

    @classmethod
    def identity(cls, n_rows: int, n_partitions: int) -> "Placement":
        """The do-nothing placement (original order, balanced cuts)."""
        return cls(
            order=np.arange(n_rows, dtype=np.int64),
            boundaries=default_boundaries(n_rows, n_partitions),
            strategy="uniform",
        )


# ---------------------------------------------------------------------- #
# Strategy passes
# ---------------------------------------------------------------------- #
def _lpt_bins(loads: np.ndarray, n_partitions: int) -> "list[np.ndarray]":
    """Greedy LPT: heaviest row first into the least-loaded bin.

    Ties (equal bin loads) break on the lowest bin index; equal row loads
    keep ascending original id (stable sort) — fully deterministic.  Each
    bin lists its rows in assignment order.

    One step per run of equal (non-negative integer) loads, not per row:
    a ``(load, bin)`` min-heap offered ``m`` rows of load ``L > 0`` pops
    exactly the first ``m`` pairs of the merged sequences
    ``(s_b + j·L, b)``, ``j >= 0``, where ``s`` are the bin loads before
    the run.  The ``m``-th pair is at most ``max(s) + (⌈m/P⌉ − 1)·L``, so
    bin ``b`` needs at most ``⌊(max(s) − s_b)/L⌋ + ⌈m/P⌉`` candidates.  A
    run of ``L = 0`` rows never moves the heap: it all lands in the bin
    least by ``(load, bin)``.
    """
    loads = np.asarray(loads, dtype=np.int64)
    order_desc = np.argsort(-loads, kind="stable")
    ordered = loads[order_desc]
    starts = np.flatnonzero(np.diff(ordered, prepend=ordered[:1] - 1))
    bin_loads = np.zeros(n_partitions, dtype=np.int64)
    assign = np.empty(len(loads), dtype=np.int64)
    for r0, r1 in zip(starts, np.r_[starts[1:], len(loads)]):
        m, step = int(r1 - r0), int(ordered[r0])
        if step == 0:
            assign[r0:r1] = np.argmin(bin_loads)
            continue
        depth = np.minimum(
            m, (bin_loads.max() - bin_loads) // step + -(-m // n_partitions)
        )
        cand_bin = np.repeat(np.arange(n_partitions), depth)
        first = np.repeat(np.cumsum(depth) - depth, depth)
        cand_load = bin_loads[cand_bin] + (np.arange(len(cand_bin)) - first) * step
        chosen = cand_bin[np.lexsort((cand_bin, cand_load))[:m]]
        assign[r0:r1] = chosen
        bin_loads += np.bincount(chosen, minlength=n_partitions) * step
    by_bin = order_desc[np.argsort(assign, kind="stable")].astype(np.int64)
    sizes = np.bincount(assign, minlength=n_partitions)
    return np.split(by_bin, np.cumsum(sizes)[:-1])


def plan_placement(
    strategy: str, matrix: CSRMatrix, n_partitions: int
) -> Placement:
    """Run one strategy pass over ``matrix`` (see module docstring)."""
    if n_partitions < 1:
        raise ConfigurationError(f"n_partitions must be >= 1, got {n_partitions}")
    n = matrix.n_rows
    if strategy == "uniform":
        return Placement.identity(n, n_partitions)
    if strategy == "skew":
        nnz = matrix.row_lengths().astype(np.int64)
        weights = row_weights(matrix)
        # Descending weight within the channel (ties: ascending id):
        # heavy rows fill the scratchpads early, the light tail skips.
        bins = [
            rows[np.lexsort((rows, -weights[rows]))]
            for rows in _lpt_bins(nnz, n_partitions)
        ]
        order = (
            np.concatenate(bins) if bins else np.empty(0, dtype=np.int64)
        )
        sizes = np.array([len(rows) for rows in bins], dtype=np.int64)
        boundaries = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        return Placement(order=order, boundaries=boundaries, strategy=strategy)
    raise ConfigurationError(
        f"unknown placement strategy {strategy!r}; "
        f"choose from {PLACEMENT_STRATEGIES}"
    )


def resolve_placement(
    placement, matrix: CSRMatrix, n_partitions: int
) -> "Placement | None":
    """Normalise a ``placement=`` argument to ``Placement | None``.

    Accepts ``None`` / a strategy name / a :class:`Placement`.  Identity
    results collapse to ``None`` so the compile pipeline (and digests)
    behave exactly as before this layer existed.
    """
    if placement is None:
        return None
    if isinstance(placement, str):
        placement = plan_placement(placement, matrix, n_partitions)
    if not isinstance(placement, Placement):
        raise ConfigurationError(
            f"placement must be a strategy name or Placement, "
            f"got {type(placement).__name__}"
        )
    if placement.n_rows != matrix.n_rows:
        raise ConfigurationError(
            f"placement covers {placement.n_rows} rows, "
            f"matrix has {matrix.n_rows}"
        )
    if placement.n_partitions != n_partitions:
        raise ConfigurationError(
            f"placement cuts {placement.n_partitions} partitions, "
            f"compile requested {n_partitions}"
        )
    if placement.is_identity:
        return None
    return placement
