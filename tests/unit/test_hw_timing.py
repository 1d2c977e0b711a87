"""Unit tests for the core and multi-core timing models."""

import numpy as np
import pytest

from repro.core.adaptive import WorkloadProfile, select_design
from repro.data.synthetic import uniform_row_lengths
from repro.errors import CapacityError, ConfigurationError
from repro.formats.bscsr import BSCSRMatrix
from repro.formats.csr import CSRMatrix
from repro.hw.design import PAPER_DESIGNS
from repro.hw.fpga_core import FPGACoreModel
from repro.hw.multicore import TopKSpmvAccelerator


class TestCoreModel:
    def test_fixed_designs_memory_bound(self):
        for key in ("20b", "25b", "32b"):
            assert FPGACoreModel(PAPER_DESIGNS[key]).bound == "memory"

    def test_float_design_compute_bound(self):
        assert FPGACoreModel(PAPER_DESIGNS["f32"]).bound == "compute"

    def test_packet_rate_is_min_of_constraints(self):
        model = FPGACoreModel(PAPER_DESIGNS["20b"])
        assert model.packet_rate == min(
            model.compute_packet_rate, model.memory_packet_rate
        )

    def test_time_scales_linearly_in_packets(self):
        model = FPGACoreModel(PAPER_DESIGNS["20b"])
        t1 = model.time_for_packets(10**6).seconds
        t2 = model.time_for_packets(2 * 10**6).seconds
        assert t2 == pytest.approx(2 * t1, rel=0.01)

    def test_zero_packets_is_instant(self):
        assert FPGACoreModel(PAPER_DESIGNS["20b"]).time_for_packets(0).seconds == 0.0

    def test_negative_packets_rejected(self):
        with pytest.raises(ConfigurationError):
            FPGACoreModel(PAPER_DESIGNS["20b"]).time_for_packets(-1)

    def test_throughput_scales_with_lanes(self):
        t20 = FPGACoreModel(PAPER_DESIGNS["20b"]).throughput_nnz_per_s()
        t32 = FPGACoreModel(PAPER_DESIGNS["32b"]).throughput_nnz_per_s()
        assert t20 / t32 == pytest.approx(15 / 11, rel=0.01)

    def test_effective_bandwidth_below_streaming(self):
        model = FPGACoreModel(PAPER_DESIGNS["20b"])
        timing = model.time_for_packets(10**6)
        assert timing.effective_bandwidth_bps <= model.hbm.channel_streaming_bps


class TestAcceleratorTiming:
    def test_paper_scale_headline(self):
        """10^7 rows / ~3x10^8 nnz in ~5 ms at >55 Gnnz/s (Figure 5)."""
        lengths = uniform_row_lengths(10**7, 30, 0)
        accel = TopKSpmvAccelerator(PAPER_DESIGNS["20b"])
        timing = accel.timing_from_row_lengths(lengths)
        assert timing.total_seconds == pytest.approx(4.9e-3, rel=0.1)
        assert timing.throughput_nnz_per_s > 55e9

    def test_sub_4ms_claim(self):
        """Section V-A: 10^7 rows and 2x10^8 nnz in < 4 ms."""
        lengths = uniform_row_lengths(10**7, 20, 0)
        accel = TopKSpmvAccelerator(PAPER_DESIGNS["20b"])
        timing = accel.timing_from_row_lengths(lengths)
        assert timing.total_seconds < 4e-3

    def test_one_nnz_rows_time_as_encoded(self):
        """Short rows close packets early on the rows-per-packet budget:
        timing from row lengths, and the design selector built on it, must
        equal the timing of the real encoding (a closed form that ignores
        the budget reports about half the makespan here)."""
        n_rows = 200_000
        choice = select_design(
            WorkloadProfile(n_rows=n_rows, n_cols=1024, avg_nnz=1, top_k=100),
            min_precision=0.5,
        )
        design = choice.design
        matrix = CSRMatrix(
            indptr=np.arange(n_rows + 1),
            indices=np.arange(n_rows) % 1024,
            data=np.full(n_rows, 0.5),
            n_cols=1024,
        )
        encoded = BSCSRMatrix.encode(
            matrix, design.layout, design.codec, n_partitions=design.cores,
            rows_per_packet=design.effective_rows_per_packet,
        )
        accel = TopKSpmvAccelerator(design)
        timing = accel.timing_from_matrix(encoded)
        assert accel.timing_from_row_lengths(matrix.row_lengths()) == timing
        assert choice.predicted_latency_s == timing.total_seconds

    def test_makespan_is_slowest_core(self):
        accel = TopKSpmvAccelerator(PAPER_DESIGNS["20b"])
        timing = accel.timing_from_packets([100, 500, 200], nnz=10_000)
        assert timing.makespan_s == max(timing.core_seconds)

    def test_too_many_cores_rejected(self):
        with pytest.raises(CapacityError):
            TopKSpmvAccelerator(PAPER_DESIGNS["20b"].with_cores(64))

    def test_too_many_partitions_rejected(self):
        accel = TopKSpmvAccelerator(PAPER_DESIGNS["20b"])
        with pytest.raises(ConfigurationError):
            accel.timing_from_packets([1] * 33, nnz=33)

    def test_design_ordering_matches_figure5(self):
        """20b > 25b > 32b > F32 in throughput on the same workload."""
        lengths = uniform_row_lengths(10**6, 30, 1)
        times = {}
        for key, design in PAPER_DESIGNS.items():
            accel = TopKSpmvAccelerator(design)
            times[key] = accel.timing_from_row_lengths(lengths).total_seconds
        assert times["20b"] < times["25b"] < times["32b"] < times["f32"]

    def test_effective_bandwidth_reported(self):
        lengths = uniform_row_lengths(10**6, 30, 1)
        accel = TopKSpmvAccelerator(PAPER_DESIGNS["20b"])
        timing = accel.timing_from_row_lengths(lengths)
        assert 0 < timing.effective_bandwidth_gbps < 422.4

    def test_ideal_throughput_upper_bounds_measured(self):
        lengths = uniform_row_lengths(10**6, 30, 1)
        accel = TopKSpmvAccelerator(PAPER_DESIGNS["20b"])
        timing = accel.timing_from_row_lengths(lengths)
        assert timing.throughput_nnz_per_s <= accel.ideal_throughput_nnz_per_s()
