"""Unit tests for the packet-level pipeline cycle simulator."""

import numpy as np
import pytest

from repro.arithmetic.codecs import codec_for_design
from repro.errors import ConfigurationError
from repro.formats.bscsr import encode_bscsr
from repro.formats.csr import CSRMatrix
from repro.hw.cycle_sim import PipelineSimulator
from repro.hw.design import PAPER_DESIGNS
from repro.hw.fpga_core import FPGACoreModel


class TestBasics:
    def test_empty_stream(self):
        sim = PipelineSimulator(PAPER_DESIGNS["20b"])
        report = sim.simulate_rows_per_packet(np.array([], dtype=np.int64))
        assert report.cycles == 0.0
        assert report.seconds == 0.0

    def test_negative_rows_rejected(self):
        sim = PipelineSimulator(PAPER_DESIGNS["20b"])
        with pytest.raises(ConfigurationError):
            sim.simulate_rows_per_packet(np.array([-1]))

    def test_memory_bound_issue_interval(self):
        # Fixed-point designs consume faster than the channel delivers.
        sim = PipelineSimulator(PAPER_DESIGNS["20b"])
        assert sim.memory_issue_interval > sim.compute_issue_interval

    def test_report_accounting(self):
        sim = PipelineSimulator(PAPER_DESIGNS["20b"])
        report = sim.simulate_rows_per_packet(np.ones(1000, dtype=np.int64))
        assert report.packets == 1000
        assert 0 <= report.stall_fraction < 1
        assert report.packets_per_cycle <= 1.0


class TestUniformRows:
    @pytest.mark.parametrize("key", ["20b", "f32"])
    @pytest.mark.parametrize("nnz_per_row", [1, 2, 4, 7, 8, 15, 16, 20])
    def test_matches_encoded_stream(self, key, nnz_per_row):
        """The closed uniform workload is the encoder's real stream."""
        design = PAPER_DESIGNS[key]
        n_rows = 1500
        matrix = CSRMatrix(
            indptr=np.arange(n_rows + 1) * nnz_per_row,
            indices=np.tile(np.arange(nnz_per_row), n_rows),
            data=np.full(n_rows * nnz_per_row, 0.5),
            n_cols=1024,
        )
        stream = encode_bscsr(
            matrix, design.layout, design.codec,
            rows_per_packet=design.effective_rows_per_packet,
        )
        sim = PipelineSimulator(design)
        uniform = sim.simulate_uniform_rows(n_rows, nnz_per_row)
        assert uniform == sim.simulate_stream(stream)


class TestAgainstAnalyticModel:
    def test_paper_workload_matches_analytic(self, small_matrix):
        """With <=1 row ending per packet the cycle sim must agree with the
        one-packet-per-cycle analytic model to within the fill overhead."""
        design = PAPER_DESIGNS["20b"]
        stream = encode_bscsr(
            small_matrix.row_slice(0, 2000),
            design.layout, codec_for_design(20, "fixed"),
            rows_per_packet=design.effective_rows_per_packet,
        )
        sim = PipelineSimulator(design)
        report = sim.simulate_stream(stream)
        analytic = FPGACoreModel(design).time_for_packets(stream.n_packets)
        assert report.seconds == pytest.approx(analytic.seconds, rel=0.05)

    def test_update_stage_hidden_for_long_rows(self):
        """20+ nnz/row: the Top-K update cost is completely hidden
        (Section IV-B's claim)."""
        sim = PipelineSimulator(PAPER_DESIGNS["20b"])
        report = sim.simulate_uniform_rows(n_rows=5000, nnz_per_row=20)
        assert report.stall_fraction == 0.0

    def test_update_stage_visible_for_tiny_rows(self):
        """1-2 nnz/row: several rows end per packet and the sequential
        argmin back-pressures the pipeline — the regime the r-budget and
        the paper's domain assumption ('rows are never fully empty, and
        carry tens of non-zeros') avoid."""
        sim = PipelineSimulator(PAPER_DESIGNS["20b"])
        short = sim.simulate_uniform_rows(n_rows=5000, nnz_per_row=1)
        long = sim.simulate_uniform_rows(n_rows=5000, nnz_per_row=20)
        assert short.stall_fraction > 0.1
        assert long.stall_fraction == 0.0

    def test_throughput_oblivious_to_distribution_above_threshold(self):
        """The 'oblivious to the non-zero distribution' claim: rows of 8 vs
        40 nnz reach the same packets/cycle (memory bound).  Below ~8
        nnz/row (more than ~2 row-endings per packet) the sequential argmin
        becomes visible — outside the paper's 20-40 nnz/row domain."""
        sim = PipelineSimulator(PAPER_DESIGNS["20b"])
        a = sim.simulate_uniform_rows(n_rows=4000, nnz_per_row=8)
        b = sim.simulate_uniform_rows(n_rows=800, nnz_per_row=40)
        assert a.packets_per_cycle == pytest.approx(b.packets_per_cycle, rel=0.05)
        below = sim.simulate_uniform_rows(n_rows=4000, nnz_per_row=4)
        assert below.packets_per_cycle < 0.9 * a.packets_per_cycle

    def test_float_design_compute_bound(self):
        sim = PipelineSimulator(PAPER_DESIGNS["f32"])
        assert sim.compute_issue_interval > sim.memory_issue_interval
        report = sim.simulate_uniform_rows(n_rows=2000, nnz_per_row=20)
        # Packet rate limited by the float II, not by memory.
        assert report.packets_per_cycle == pytest.approx(
            1.0 / sim.compute_issue_interval, rel=0.05
        )
