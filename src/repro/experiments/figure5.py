"""Figure 5 — execution-time speedup over the CPU of GPU and FPGA designs.

For every Table III matrix the runner evaluates, at full paper scale:

* the CPU baseline time (calibrated sparse_dot_topn model);
* the GPU float32/float16 times, both idealized (zero-cost sort, what the
  paper's bars show) and with the Thrust sort included;
* the four FPGA designs' times from the packet-level timing model.

Per-group speedups (mean over the group's matrices) are compared against the
paper's bars.  The Section V-B power-efficiency claims and the "< 4 ms for
10^7 rows / 2x10^8 nnz" headline are reproduced in the same report.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import ExperimentReport
from repro.analysis.speedup import power_efficiency_ratio, speedup_table
from repro.baselines.cpu import CPU_XEON_6248_PAIR, CpuTimingModel
from repro.baselines.gpu import TESLA_P100, GpuTimingModel
from repro.data.datasets import TABLE3_SPECS
from repro.experiments.config import ExperimentConfig
from repro.experiments.paper_data import (
    FIGURE5_CPU_BASELINE_MS,
    FIGURE5_SPEEDUPS,
    HEADLINE_CLAIMS,
    POWER_CLAIMS,
)
from repro.hw.calibration import CALIBRATION
from repro.hw.design import PAPER_DESIGNS
from repro.hw.multicore import TopKSpmvAccelerator
from repro.hw.power import PowerBudget, estimate_fpga_power_w
from repro.utils.rng import derive_rng

__all__ = ["run_figure5"]

_GROUP_ORDER = ("N=0.5e7", "N=1e7", "N=1.5e7", "glove")


def _platform_times_s(row_lengths: np.ndarray) -> dict[str, float]:
    """Modelled query time of every platform on one matrix."""
    nnz = int(row_lengths.sum())
    n_rows = len(row_lengths)
    cpu = CpuTimingModel()
    gpu = GpuTimingModel()
    times = {
        "CPU": cpu.query_time_s(nnz, n_rows),
        "GPU F32": gpu.query_time_s(nnz, n_rows, "float32", zero_cost_sort=True),
        "GPU F16": gpu.query_time_s(nnz, n_rows, "float16", zero_cost_sort=True),
        "GPU F32 full": gpu.query_time_s(nnz, n_rows, "float32", zero_cost_sort=False),
        "GPU F16 full": gpu.query_time_s(nnz, n_rows, "float16", zero_cost_sort=False),
    }
    for design in PAPER_DESIGNS.values():
        accel = TopKSpmvAccelerator(design)
        timing = accel.timing_from_row_lengths(row_lengths)
        times[design.name] = timing.total_seconds
    return times


def run_figure5(config: ExperimentConfig | None = None) -> ExperimentReport:
    """Regenerate Figure 5's speedup bars and the Section V-B power claims."""
    config = config or ExperimentConfig()
    rng = derive_rng(config.seed)
    report = ExperimentReport(
        experiment_id="Figure 5",
        title="Execution-time speedup vs the CPU baseline (K=100, paper scale)",
    )

    # Mean times per group over the group's matrices.
    group_times: dict[str, dict[str, list[float]]] = {g: {} for g in _GROUP_ORDER}
    group_nnz: dict[str, list[int]] = {g: [] for g in _GROUP_ORDER}
    for spec in TABLE3_SPECS:
        lengths = spec.row_lengths(seed=rng)
        times = _platform_times_s(lengths)
        for name, t in times.items():
            group_times[spec.group].setdefault(name, []).append(t)
        group_nnz[spec.group].append(int(lengths.sum()))

    platforms = [
        "GPU F32", "GPU F16",
        "FPGA 20b 32C", "FPGA 25b 32C", "FPGA 32b 32C", "FPGA F32 32C",
    ]
    results: dict[str, dict[str, float]] = {}
    for group in _GROUP_ORDER:
        means = {name: float(np.mean(ts)) for name, ts in group_times[group].items()}
        speeds = speedup_table(means, baseline="CPU")
        results[group] = {"cpu_ms": means["CPU"] * 1e3, **speeds,
                          "mean_nnz": float(np.mean(group_nnz[group]))}

        rows = [["CPU baseline (ms)", FIGURE5_CPU_BASELINE_MS[group],
                 round(means["CPU"] * 1e3, 1), "—"]]
        for name in platforms:
            paper = FIGURE5_SPEEDUPS[group][name]
            got = speeds[name]
            rows.append([f"{name} speedup", f"{paper:.0f}x", f"{got:.1f}x",
                         f"{got / paper:.2f}x"])
        rows.append(["GPU F32 incl. sort speedup", None,
                     f"{speeds['GPU F32 full']:.1f}x", "—"])
        report.add_table(
            ["platform", "paper", "measured", "measured/paper"],
            rows,
            title=f"group {group} (mean nnz {results[group]['mean_nnz']:.2e})",
        )

    # Headline claims: throughput, <4 ms latency, 100x/2x speedups.
    n1e7 = results["N=1e7"]
    thr = n1e7["mean_nnz"] / (n1e7["cpu_ms"] / 1e3 / n1e7["FPGA 20b 32C"]) / 1e9
    lengths_2e8 = derive_rng(config.seed).integers(10, 31, size=10_000_000)
    accel = TopKSpmvAccelerator(PAPER_DESIGNS["20b"])
    t_2e8 = accel.timing_from_row_lengths(lengths_2e8)
    gpu_adv = n1e7["FPGA 20b 32C"] / n1e7["GPU F32"]
    sort_adv = n1e7["FPGA 20b 32C"] / n1e7["GPU F32 full"]
    report.add_table(
        ["claim", "paper", "measured"],
        [
            ["FPGA 20b throughput (Gnnz/s)", f">{HEADLINE_CLAIMS['throughput_gnnz_per_s']:.0f}",
             f"{thr:.1f}"],
            ["latency, 10^7 rows / 2x10^8 nnz (ms)",
             f"<{HEADLINE_CLAIMS['latency_1e7_rows_2e8_nnz_ms']:.0f}",
             f"{t_2e8.total_seconds * 1e3:.2f}"],
            ["speedup vs CPU", f"{HEADLINE_CLAIMS['speedup_vs_cpu']:.0f}x",
             f"{n1e7['FPGA 20b 32C']:.0f}x"],
            ["speedup vs idealized GPU", f"{HEADLINE_CLAIMS['speedup_vs_gpu_idealized']:.0f}x",
             f"{gpu_adv:.2f}x"],
            ["speedup vs GPU incl. sort", "up to 7x", f"{sort_adv:.2f}x"],
        ],
        title="Headline claims (Section V-A)",
    )

    # Section V-B: power efficiency.
    fpga_budget = PowerBudget(
        name="FPGA", device_w=estimate_fpga_power_w(PAPER_DESIGNS["20b"]),
        host_w=CALIBRATION.host_power_w,
    )
    cpu_budget = PowerBudget(name="CPU", device_w=CPU_XEON_6248_PAIR.power_w, host_w=0.0)
    gpu_budget = PowerBudget(name="GPU", device_w=TESLA_P100.power_w,
                             host_w=CALIBRATION.host_power_w)
    fpga_thr = n1e7["mean_nnz"] * n1e7["FPGA 20b 32C"]
    cpu_thr = n1e7["mean_nnz"]
    gpu_thr = n1e7["mean_nnz"] * n1e7["GPU F32"]
    # The paper's "400x vs CPU" counts the FPGA host server (the CPU *is*
    # its own host), hence include_host=True on this comparison only.
    vs_cpu = power_efficiency_ratio(
        fpga_thr, fpga_budget, cpu_thr, cpu_budget, include_host=True
    )
    vs_gpu = power_efficiency_ratio(fpga_thr, fpga_budget, gpu_thr, gpu_budget)
    vs_gpu_host = power_efficiency_ratio(
        fpga_thr, fpga_budget, gpu_thr, gpu_budget, include_host=True
    )
    report.add_table(
        ["metric", "paper", "measured"],
        [
            ["Perf/W vs CPU", f"{POWER_CLAIMS['perf_per_watt_vs_cpu']:.0f}x", f"{vs_cpu:.0f}x"],
            ["Perf/W vs GPU (device)", f"{POWER_CLAIMS['perf_per_watt_vs_gpu']:.1f}x",
             f"{vs_gpu:.1f}x"],
            ["Perf/W vs GPU (incl. host)",
             f"{POWER_CLAIMS['perf_per_watt_vs_gpu_with_host']:.1f}x", f"{vs_gpu_host:.1f}x"],
        ],
        title="Power efficiency (Section V-B)",
    )
    results["power"] = {"vs_cpu": vs_cpu, "vs_gpu": vs_gpu, "vs_gpu_host": vs_gpu_host}
    results["headline"] = {
        "throughput_gnnz": thr,
        "latency_2e8_ms": t_2e8.total_seconds * 1e3,
        "vs_gpu": gpu_adv,
        "vs_gpu_sort": sort_adv,
    }
    report.data = {"results": results}
    return report
