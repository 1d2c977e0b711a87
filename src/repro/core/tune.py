"""Placement tuner: keep the row layout with the shortest modelled board time.

The searchable half of the placement layer (:mod:`repro.core.placement`).
Each core of the board is an independent Top-K stage over its own HBM
channel, so the board finishes with its slowest channel (the paper's
Section III-A).  :func:`score_placement` counts each partition's BS-CSR
packets and feeds them to
:meth:`~repro.hw.multicore.TopKSpmvAccelerator.timing_from_packets` — no
compile, no encode, no query.  :func:`tune_placement` scores every
strategy in :data:`~repro.core.placement.PLACEMENT_STRATEGIES` and keeps
the one with the lowest makespan.

That makespan is the only thing a placement changes: host queries walk
each segment's own sorted run whatever the placement, and top-k output is
bit-identical under every layout.  The winning
:class:`~repro.core.placement.Placement` compiles into an ordinary
artifact (``repro tune`` persists it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.placement import PLACEMENT_STRATEGIES, Placement, plan_placement
from repro.formats.stats import count_packets
from repro.hw.multicore import TopKSpmvAccelerator

__all__ = [
    "PlacementScore",
    "TuneCandidate",
    "TuneReport",
    "score_placement",
    "tune_placement",
]


@dataclass(frozen=True)
class PlacementScore:
    """Modelled board verdict on one candidate placement."""

    makespan_s: float
    imbalance: float
    packets_per_core: "tuple[int, ...]"


@dataclass
class TuneCandidate:
    """One strategy's placement with its modelled score."""

    placement: Placement
    score: PlacementScore

    @property
    def strategy(self) -> str:
        """The strategy that produced the placement."""
        return self.placement.strategy

    def report(self) -> dict:
        """JSON-ready summary row."""
        return {
            "strategy": self.strategy,
            "makespan_s": self.score.makespan_s,
            "nnz_imbalance": self.score.imbalance,
        }


@dataclass
class TuneReport:
    """Everything one :func:`tune_placement` run produces."""

    winner: TuneCandidate
    candidates: "list[TuneCandidate]"

    @property
    def placement(self) -> Placement:
        """The winning placement (compile with ``placement=`` to use it)."""
        return self.winner.placement

    def to_payload(self) -> dict:
        """JSON-serialisable report (what ``repro tune --json`` emits)."""
        uniform = next(c for c in self.candidates if c.strategy == "uniform")
        payload = {
            "winner": self.winner.report(),
            "candidates": [c.report() for c in self.candidates],
        }
        if self.winner.score.makespan_s > 0:
            payload["model_speedup_vs_uniform"] = (
                uniform.score.makespan_s / self.winner.score.makespan_s
            )
        return payload


def score_placement(matrix, design, placement: Placement) -> PlacementScore:
    """Model one candidate placement's channel timing (no compile, no encode)."""
    lengths = matrix.row_lengths().astype(np.int64)
    b = placement.boundaries
    packets = []
    part_nnz = []
    for p in range(placement.n_partitions):
        rows = lengths[placement.order[int(b[p]) : int(b[p + 1])]]
        n_pack, _, _ = count_packets(
            rows, design.layout.lanes, design.effective_rows_per_packet
        )
        packets.append(int(n_pack))
        part_nnz.append(int(rows.sum()))
    timing = TopKSpmvAccelerator(design).timing_from_packets(
        packets, nnz=int(lengths.sum())
    )
    mean_nnz = sum(part_nnz) / max(1, len(part_nnz))
    return PlacementScore(
        makespan_s=timing.makespan_s,
        imbalance=max(part_nnz, default=0) / mean_nnz if mean_nnz else 1.0,
        packets_per_core=tuple(packets),
    )


def tune_placement(
    matrix, design=None, n_partitions: "int | None" = None
) -> TuneReport:
    """Score every placement strategy; the lowest modelled makespan wins.

    ``matrix`` is the collection to place (CSRMatrix / SciPy / dense);
    ``design`` and ``n_partitions`` are as for
    :func:`~repro.core.collection.compile_collection`.  A tie keeps the
    earlier strategy, so ``uniform`` wins unless a layout is faster.
    """
    from repro.core.collection import resolve_design
    from repro.core.engine import as_csr_matrix

    matrix = as_csr_matrix(matrix)
    design = resolve_design(matrix, design)
    n_parts = design.cores if n_partitions is None else int(n_partitions)
    candidates = []
    for name in PLACEMENT_STRATEGIES:
        placement = plan_placement(name, matrix, n_parts)
        candidates.append(
            TuneCandidate(placement, score_placement(matrix, design, placement))
        )
    winner = min(candidates, key=lambda c: c.score.makespan_s)
    return TuneReport(winner=winner, candidates=candidates)
