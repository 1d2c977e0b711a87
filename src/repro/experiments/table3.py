"""Table III — the evaluation matrices and their BS-CSR footprints.

For each registered matrix spec the row-length profile is sampled at *full
paper scale* (cheap — only lengths, not matrices) and the BS-CSR byte size
is computed from the packing model with the Figure 3 layout (B = 15).  The
report groups specs as the paper's table does and compares the non-zero and
size ranges.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import ExperimentReport
from repro.data.datasets import TABLE3_SPECS
from repro.experiments.config import ExperimentConfig
from repro.experiments.paper_data import TABLE3_PAPER
from repro.formats.layout import solve_layout
from repro.formats.stats import count_packets
from repro.utils.rng import derive_rng

__all__ = ["run_table3"]


def _group_key(spec) -> str:
    if spec.family == "glove":
        return "glove"
    scale = {5_000_000: "0.5e7", 10_000_000: "1e7", 15_000_000: "1.5e7"}
    return f"{spec.family}-{scale[spec.n_rows]}"


def run_table3(config: ExperimentConfig | None = None) -> ExperimentReport:
    """Regenerate Table III's nnz and BS-CSR size ranges from the generators."""
    config = config or ExperimentConfig()
    rng = derive_rng(config.seed)
    layout = solve_layout(1024, 20)  # the Figure 3 accounting layout (B = 15)
    report = ExperimentReport(
        experiment_id="Table III",
        title=f"Evaluation matrices: non-zeros and BS-CSR size (B={layout.lanes})",
    )

    measured: dict[str, dict[str, tuple[float, float]]] = {}
    for spec in TABLE3_SPECS:
        lengths = spec.row_lengths(seed=rng)
        nnz = int(lengths.sum())
        packets, _, _ = count_packets(lengths, layout.lanes)
        size_gb = packets * layout.packet_bytes / 1e9
        key = _group_key(spec)
        entry = measured.setdefault(
            key, {"nnz": (np.inf, -np.inf), "size_gb": (np.inf, -np.inf)}
        )
        entry["nnz"] = (min(entry["nnz"][0], nnz), max(entry["nnz"][1], nnz))
        entry["size_gb"] = (
            min(entry["size_gb"][0], size_gb),
            max(entry["size_gb"][1], size_gb),
        )

    headers = [
        "group", "paper nnz range", "measured nnz range",
        "paper size GB", "measured size GB",
    ]
    rows = []
    for key, paper in TABLE3_PAPER.items():
        got = measured.get(key)
        rows.append(
            [
                key,
                f"{paper['nnz'][0]:.2g} - {paper['nnz'][1]:.2g}",
                f"{got['nnz'][0]:.2g} - {got['nnz'][1]:.2g}" if got else "—",
                f"{paper['size_gb'][0]:.1f} - {paper['size_gb'][1]:.1f}",
                f"{got['size_gb'][0]:.2f} - {got['size_gb'][1]:.2f}" if got else "—",
            ]
        )
    report.add_table(headers, rows, title="Table III: matrix inventory (19 matrices)")
    report.add_section(
        f"{len(TABLE3_SPECS)} matrices registered "
        "(18 synthetic + 1 sparsified GloVe; grouping per DESIGN.md §3.6)"
    )
    report.data = {"measured": measured, "n_specs": len(TABLE3_SPECS)}
    return report
