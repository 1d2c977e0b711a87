"""Benchmarks for the ablation studies (r sweep, V-vs-B, core scaling)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.precision_model import expected_precision
from repro.formats.layout import solve_layout
from repro.hw.design import PAPER_DESIGNS
from repro.hw.multicore import TopKSpmvAccelerator
from repro.hw.resources import ResourceModel


def test_rows_per_packet_sweep(benchmark):
    """Resource scaling across the full r = 1..B range (Section IV-B)."""
    model = ResourceModel()
    base = PAPER_DESIGNS["20b"]
    lanes = base.layout.lanes

    def sweep():
        return {
            r: model.core(replace(base, rows_per_packet=r)).lut
            for r in range(1, lanes + 1)
        }

    luts = benchmark(sweep)
    saving = 1 - luts[max(1, lanes // 4)] / luts[lanes]
    assert saving == pytest.approx(0.5, abs=0.05)  # "savings up to 50%"


def test_value_width_vs_lanes_sweep(benchmark):
    """The Section IV-C capacity equation over V = 8..40, M in {512,1024}."""

    def sweep():
        return {
            (m, v): solve_layout(m, v).lanes
            for m in (512, 1024)
            for v in range(8, 41)
        }

    lanes = benchmark(sweep)
    assert lanes[(1024, 20)] == 15
    assert lanes[(1024, 32)] == 11
    # Narrower values never pack fewer lanes.
    for m in (512, 1024):
        series = [lanes[(m, v)] for v in range(8, 41)]
        assert all(a >= b for a, b in zip(series, series[1:]))


def test_core_scaling_sweep(benchmark):
    """Latency over 1..32 cores on a fixed 10^6-row workload (Figure 6a)."""
    lengths = np.random.default_rng(0).integers(10, 31, size=1_000_000)

    def sweep():
        out = {}
        for cores in (1, 2, 4, 8, 16, 32):
            accel = TopKSpmvAccelerator(PAPER_DESIGNS["20b"].with_cores(cores))
            out[cores] = accel.timing_from_row_lengths(lengths).makespan_s
        return out

    makespans = benchmark(sweep)
    # Makespan scales ~linearly in 1/cores (balanced partitions).
    assert makespans[1] / makespans[32] == pytest.approx(32, rel=0.05)


def test_k_sweep_precision(benchmark):
    """E[precision] across scratchpad depths (k) at paper scale."""

    def sweep():
        return {
            k: expected_precision(10**7, 32, k, 100) for k in (1, 2, 4, 8, 16)
        }

    precisions = benchmark(sweep)
    assert precisions[8] > 0.99  # the paper's operating point
    assert precisions[1] < precisions[4] < precisions[8]
