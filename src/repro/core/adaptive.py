"""Adaptive precision/design selection (the paper's first future-work item).

Section VI: *"Future work will focus on adaptive compressed matrix
representations by reconfiguring the FPGA in terms of numerical precision to
guarantee desired targets of accuracy or performance."*

:func:`select_design` searches the (value-width, cores, k) space with the
library's analytical models and returns the fastest design meeting an
accuracy target — or the most accurate design meeting a latency target —
for a given workload on a given board.  The accuracy model combines:

* **partition error** — the exact expected precision of the k-of-c
  truncation (:mod:`repro.core.precision_model`), and
* **quantisation error** — the probability that value rounding flips a
  rank boundary, estimated from the workload's score-gap statistics
  (``score_gap`` ≈ the typical score difference around rank K; rounding
  two scores by ±ε/2 each flips their order with probability
  ``max(0, 1 - gap/(2ε))``-ish; we use a conservative linear model
  calibrated so 20-bit values keep >=97% precision on the paper's
  workloads, matching Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.precision_model import expected_precision
from repro.errors import ConfigurationError
from repro.hw.design import AcceleratorDesign
from repro.hw.multicore import TopKSpmvAccelerator
from repro.hw.power import estimate_fpga_power_w
from repro.hw.resources import ResourceModel
from repro.utils.validation import check_in_range, check_positive_int

__all__ = ["WorkloadProfile", "DesignChoice", "quantisation_precision", "select_design"]

#: Candidate value widths the reconfigurable overlay can switch between.
CANDIDATE_VALUE_BITS = (14, 16, 20, 25, 32)
CANDIDATE_LOCAL_K = (4, 8, 16)


@dataclass(frozen=True)
class WorkloadProfile:
    """What the selector needs to know about the collection and queries."""

    n_rows: int
    n_cols: int
    avg_nnz: int
    top_k: int
    #: Typical relative score gap around rank K (fraction of the top score).
    #: Cosine-similarity workloads at N ~ 10^6 sit around 1e-3..1e-2;
    #: estimate with :meth:`from_matrix` when a sample is available.
    score_gap: float = 3e-3

    def __post_init__(self) -> None:
        check_positive_int(self.n_rows, "n_rows")
        check_positive_int(self.n_cols, "n_cols")
        check_positive_int(self.avg_nnz, "avg_nnz")
        check_positive_int(self.top_k, "top_k")
        check_in_range(self.score_gap, "score_gap", 0.0, 1.0, low_inclusive=False)

    @classmethod
    def from_matrix(cls, matrix, queries: np.ndarray, top_k: int) -> "WorkloadProfile":
        """Measure the score-gap statistic from a matrix sample and queries."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        gaps = []
        for x in queries:
            scores = np.sort(matrix.matvec(x))[::-1]
            k = min(top_k, len(scores) - 1)
            window = scores[max(0, k - 5) : k + 5]
            if len(window) > 1 and window[0] > 0:
                gaps.append(float(np.mean(-np.diff(window))) / float(window[0]))
        gap = float(np.median(gaps)) if gaps else 3e-3
        return cls(
            n_rows=matrix.n_rows,
            n_cols=matrix.n_cols,
            avg_nnz=max(1, matrix.nnz // max(1, matrix.n_rows)),
            top_k=top_k,
            score_gap=max(gap, 1e-6),
        )


def quantisation_precision(value_bits: int, workload: WorkloadProfile) -> float:
    """Expected precision retained under value quantisation alone.

    A rank boundary at gap ``g`` (relative) survives rounding noise of
    magnitude ``eps = 2^-(value_bits-1)`` accumulated over ``avg_nnz``
    products (error grows ~ sqrt(nnz) for independent roundings).  The
    fraction of the K boundaries flipped is modelled as
    ``min(1, eps_eff / (2 g))`` and each flip costs one retrieved item.
    """
    check_positive_int(value_bits, "value_bits")
    eps = 2.0 ** -(value_bits - 1)
    eps_eff = eps * np.sqrt(workload.avg_nnz)
    flip_fraction = min(1.0, eps_eff / (2.0 * workload.score_gap))
    # Only boundaries (not all K items) are at risk; ~10% of items sit near
    # a contested boundary in practice (calibrated to Figure 7's 20-bit
    # curves staying above 97%).
    return 1.0 - 0.1 * flip_fraction


@dataclass(frozen=True)
class DesignChoice:
    """The selector's output: a design plus its predicted operating point."""

    design: AcceleratorDesign
    predicted_precision: float
    predicted_latency_s: float
    predicted_power_w: float

    def describe(self) -> str:
        """One-line summary for logs."""
        return (
            f"{self.design.name}: precision~{self.predicted_precision:.4f}, "
            f"latency~{self.predicted_latency_s * 1e3:.3f} ms, "
            f"{self.predicted_power_w:.1f} W"
        )


def select_design(
    workload: WorkloadProfile,
    min_precision: float | None = None,
    max_latency_s: float | None = None,
    max_cores: int = 32,
    arithmetic: str = "fixed",
) -> DesignChoice:
    """Pick the best design for a workload under accuracy/latency targets.

    With ``min_precision`` set, returns the *fastest* design meeting it;
    with ``max_latency_s`` set, the *most accurate* design meeting it; with
    both, the fastest meeting both.  Raises
    :class:`~repro.errors.ConfigurationError` when no candidate satisfies
    the targets.
    """
    if min_precision is None and max_latency_s is None:
        raise ConfigurationError(
            "set min_precision and/or max_latency_s to guide the selection"
        )
    if min_precision is not None:
        check_in_range(min_precision, "min_precision", 0.0, 1.0)
    if max_latency_s is not None:
        check_in_range(max_latency_s, "max_latency_s", 0.0, None, low_inclusive=False)
    check_positive_int(max_cores, "max_cores")

    model = ResourceModel()
    row_lengths = np.full(workload.n_rows, workload.avg_nnz, dtype=np.int64)
    candidates: list[DesignChoice] = []
    for value_bits in CANDIDATE_VALUE_BITS:
        for local_k in CANDIDATE_LOCAL_K:
            cores = min(max_cores, 32)
            if local_k * cores < workload.top_k:
                continue
            design = AcceleratorDesign(
                name=f"adaptive {value_bits}b {cores}C k{local_k}",
                value_bits=value_bits,
                arithmetic=arithmetic,
                cores=cores,
                local_k=local_k,
                max_columns=max(1024, workload.n_cols),
            )
            if not model.total(design).fits(model.available):
                continue
            precision = expected_precision(
                workload.n_rows, cores, local_k, workload.top_k
            ) * quantisation_precision(value_bits, workload)
            accel = TopKSpmvAccelerator(design)
            latency = accel.timing_from_row_lengths(row_lengths).total_seconds
            candidates.append(
                DesignChoice(
                    design=design,
                    predicted_precision=precision,
                    predicted_latency_s=latency,
                    predicted_power_w=estimate_fpga_power_w(design),
                )
            )

    feasible = [
        c
        for c in candidates
        if (min_precision is None or c.predicted_precision >= min_precision)
        and (max_latency_s is None or c.predicted_latency_s <= max_latency_s)
    ]
    if not feasible:
        raise ConfigurationError(
            f"no design meets the targets (precision>={min_precision}, "
            f"latency<={max_latency_s}) for this workload"
        )
    if min_precision is not None:
        return min(feasible, key=lambda c: (c.predicted_latency_s, -c.predicted_precision))
    return max(feasible, key=lambda c: (c.predicted_precision, -c.predicted_latency_s))
