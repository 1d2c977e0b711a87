"""Benchmarks for the extension features (cycle sim, boards, adaptive)."""

import numpy as np
import pytest

from repro.core.adaptive import WorkloadProfile, select_design
from repro.hw.boards import ALVEO_U50, ALVEO_U280, accelerator_on_board
from repro.hw.cycle_sim import PipelineSimulator
from repro.hw.design import PAPER_DESIGNS


def test_cycle_sim_100k_packets(benchmark):
    """Packet-level pipeline simulation of a 10^5-packet stream."""
    sim = PipelineSimulator(PAPER_DESIGNS["20b"])
    rows_per_packet = np.random.default_rng(0).integers(0, 2, size=100_000)

    report = benchmark(sim.simulate_rows_per_packet, rows_per_packet)
    # Paper workload shape: the update stage stays hidden.
    assert report.stall_fraction < 0.01
    assert report.packets_per_cycle == pytest.approx(
        1.0 / sim.memory_issue_interval, rel=0.01
    )


def test_row_length_stall_sweep(benchmark):
    """The obliviousness ablation: stall fraction vs nnz/row."""
    sim = PipelineSimulator(PAPER_DESIGNS["20b"])

    def sweep():
        return {
            nnz: sim.simulate_uniform_rows(n_rows=2000, nnz_per_row=nnz).stall_fraction
            for nnz in (1, 2, 4, 8, 20, 40)
        }

    stalls = benchmark(sweep)
    assert stalls[40] == 0.0 and stalls[20] == 0.0  # the paper's domain
    assert stalls[1] > stalls[4] >= stalls[8]       # degradation below it


def test_adaptive_selection(benchmark):
    """One full adaptive design selection over the candidate space."""
    workload = WorkloadProfile(
        n_rows=1_000_000, n_cols=1024, avg_nnz=20, top_k=100, score_gap=3e-3
    )
    choice = benchmark(select_design, workload, 0.99)
    assert choice.predicted_precision >= 0.99


def test_board_comparison(benchmark, paper_scale_lengths):
    """Timing the paper design on two boards (the Section VI study)."""

    def compare():
        out = {}
        for board in (ALVEO_U280, ALVEO_U50):
            accel = accelerator_on_board(PAPER_DESIGNS["20b"], board)
            out[board.name] = accel.timing_from_row_lengths(
                paper_scale_lengths
            ).total_seconds
        return out

    times = benchmark(compare)
    # U50 has 316/460 of the bandwidth: proportionally slower.
    assert times["Alveo U50"] / times["Alveo U280"] == pytest.approx(
        460.0 / 316.0, rel=0.05
    )
