"""Sensitivity of the reproduced conclusions to calibration error.

The performance side of this reproduction rests on a handful of fitted
constants (:mod:`repro.hw.calibration`).  A conclusion that flips when a
constant moves by 20% is a property of the fit, not of the paper's design;
this module quantifies that.  For each perturbable constant it re-derives
the paper's two headline comparisons —

* FPGA 20b speedup over the CPU baseline (paper: ~100x), and
* FPGA 20b speedup over the idealized GPU (paper: ~2x) —

across a multiplicative perturbation range, and reports whether the
*qualitative* conclusion (FPGA wins) survives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.baselines.cpu import CpuTimingModel
from repro.baselines.gpu import GpuTimingModel
from repro.errors import ConfigurationError
from repro.hw.calibration import CALIBRATION, CalibrationConstants
from repro.hw.design import PAPER_DESIGNS
from repro.hw.hbm import hbm_from_calibration
from repro.hw.multicore import TopKSpmvAccelerator

__all__ = ["SensitivityResult", "PERTURBABLE_CONSTANTS", "headline_speedups", "sweep_constant"]

#: The calibration constants whose error could plausibly move conclusions.
PERTURBABLE_CONSTANTS = (
    "hbm_sustained_fraction",
    "hbm_streaming_efficiency",
    "cpu_effective_bandwidth_gbps",
    "gpu_efficiency_float32",
    "gpu_sort_pairs_per_s",
    "float_initiation_interval",
)


def headline_speedups(
    constants: CalibrationConstants,
    nnz: int = 3 * 10**8,
    n_rows: int = 10**7,
) -> dict[str, float]:
    """The two headline comparisons under a given calibration.

    Returns ``{"vs_cpu": ..., "vs_gpu": ...}`` for the 20-bit design at the
    paper's N = 10^7 working set.
    """
    avg = max(1, nnz // n_rows)
    lengths = np.full(n_rows, avg, dtype=np.int64)
    accel = TopKSpmvAccelerator(
        PAPER_DESIGNS["20b"], hbm=hbm_from_calibration(constants), constants=constants
    )
    fpga_s = accel.timing_from_row_lengths(lengths).total_seconds
    cpu_s = CpuTimingModel(constants=constants).query_time_s(nnz, n_rows)
    gpu_s = GpuTimingModel(constants=constants).query_time_s(
        nnz, n_rows, "float32", zero_cost_sort=True
    )
    return {"vs_cpu": cpu_s / fpga_s, "vs_gpu": gpu_s / fpga_s}


@dataclass(frozen=True)
class SensitivityResult:
    """Outcome of sweeping one constant over a perturbation range."""

    constant: str
    factors: tuple[float, ...]
    vs_cpu: tuple[float, ...]
    vs_gpu: tuple[float, ...]

    @property
    def conclusion_stable(self) -> bool:
        """True when the FPGA wins both comparisons at every perturbation."""
        return all(v > 1.0 for v in self.vs_cpu) and all(v > 1.0 for v in self.vs_gpu)

    @property
    def vs_gpu_range(self) -> tuple[float, float]:
        """Min/max of the FPGA-vs-GPU factor over the sweep."""
        return (min(self.vs_gpu), max(self.vs_gpu))


def sweep_constant(
    name: str,
    factors: "tuple[float, ...]" = (0.8, 0.9, 1.0, 1.1, 1.2),
    base: CalibrationConstants = CALIBRATION,
) -> SensitivityResult:
    """Re-derive the headline speedups with one constant scaled by ``factors``."""
    if name not in PERTURBABLE_CONSTANTS:
        raise ConfigurationError(
            f"{name!r} is not a perturbable constant; choose from "
            f"{PERTURBABLE_CONSTANTS}"
        )
    if not factors:
        raise ConfigurationError("factors must be non-empty")
    vs_cpu = []
    vs_gpu = []
    for factor in factors:
        if factor <= 0:
            raise ConfigurationError(f"perturbation factors must be > 0, got {factor}")
        value = getattr(base, name) * factor
        # Efficiency-like constants cannot exceed 1.
        if name in ("hbm_sustained_fraction", "hbm_streaming_efficiency",
                    "gpu_efficiency_float32"):
            value = min(value, 1.0)
        perturbed = replace(base, **{name: value})
        speeds = headline_speedups(perturbed)
        vs_cpu.append(speeds["vs_cpu"])
        vs_gpu.append(speeds["vs_gpu"])
    return SensitivityResult(
        constant=name,
        factors=tuple(factors),
        vs_cpu=tuple(vs_cpu),
        vs_gpu=tuple(vs_gpu),
    )
