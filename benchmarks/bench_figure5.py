"""Benchmark + reproduction: Figure 5 (speedups vs CPU) and §V-B power."""

import pytest

from repro.baselines.cpu import CpuTimingModel
from repro.baselines.gpu import GpuTimingModel
from repro.experiments.paper_data import FIGURE5_SPEEDUPS
from repro.hw.design import PAPER_DESIGNS
from repro.hw.multicore import TopKSpmvAccelerator

_PAPER_N1E7 = FIGURE5_SPEEDUPS["N=1e7"]


def test_figure5_group_n1e7(benchmark, paper_scale_lengths):
    """All platform timings for the N=10^7 matrix group, paper scale."""

    def run_group():
        nnz = int(paper_scale_lengths.sum())
        n_rows = len(paper_scale_lengths)
        cpu = CpuTimingModel().query_time_s(nnz, n_rows)
        gpu = GpuTimingModel()
        times = {
            "CPU": cpu,
            "GPU F32": gpu.query_time_s(nnz, n_rows, "float32", zero_cost_sort=True),
            "GPU F16": gpu.query_time_s(nnz, n_rows, "float16", zero_cost_sort=True),
        }
        for design in PAPER_DESIGNS.values():
            accel = TopKSpmvAccelerator(design)
            timing = accel.timing_from_row_lengths(paper_scale_lengths)
            times[design.name] = timing.total_seconds
        return times

    times = benchmark(run_group)
    # Reproduction: speedups within 30% of the paper's bars; ordering exact.
    for platform, paper in _PAPER_N1E7.items():
        speedup = times["CPU"] / times[platform]
        assert speedup == pytest.approx(paper, rel=0.30), platform
    assert times["FPGA 20b 32C"] < times["GPU F32"] < times["CPU"]


def test_fpga_20b_timing_model(benchmark, paper_scale_lengths):
    """Just the FPGA packet-level timing at paper scale."""
    accel = TopKSpmvAccelerator(PAPER_DESIGNS["20b"])
    timing = benchmark(accel.timing_from_row_lengths, paper_scale_lengths)
    # ">57 billion non-zeros per second" (Section V-A).
    assert timing.throughput_nnz_per_s > 57e9
    # 3x10^8 nnz in ~5 ms.
    assert timing.total_seconds < 6e-3


def test_exact_packet_counter_500k_rows(benchmark):
    """The packet counter on 5x10^5 rows split over the 32 cores."""
    import numpy as np

    from repro.core.partition import partition_rows

    lengths = np.random.default_rng(0).integers(10, 31, size=500_000)
    accel = TopKSpmvAccelerator(PAPER_DESIGNS["20b"])
    timing = benchmark(accel.timing_from_row_lengths, lengths)
    # Rows of 10-30 nnz can never put r + 1 row endings in one 15-lane
    # packet, so the rows-per-packet budget is inert: ceil(nnz / B) each.
    lanes = accel.design.layout.lanes
    packets = [
        -(-int(lengths[part.start : part.stop].sum()) // lanes)
        for part in partition_rows(len(lengths), accel.design.cores)
    ]
    assert timing == accel.timing_from_packets(packets, nnz=int(lengths.sum()))
