"""Unit tests for experiment configuration and runner internals."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.figure5 import _platform_times_s
from repro.experiments.figure7 import _group_matrices, accuracy_sweep
from repro.experiments.paper_data import (
    FIGURE5_SPEEDUPS,
    TABLE1_K_VALUES,
    TABLE1_PAPER,
    TABLE2_PAPER,
    TABLE3_PAPER,
)
from repro.utils.rng import sample_unit_queries


class TestConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.monte_carlo_trials == 1000  # the paper's trial count
        assert config.seed == 2021  # the paper's venue year

    def test_quick_is_smaller(self):
        quick = ExperimentConfig.quick()
        default = ExperimentConfig()
        assert quick.functional_rows < default.functional_rows
        assert quick.queries < default.queries

    def test_paper_scale_uses_30_queries(self):
        assert ExperimentConfig.paper().queries == 30

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(queries=0)


class TestPaperData:
    def test_table1_grid_complete(self):
        assert len(TABLE1_PAPER) == 6  # 2 N x 3 c
        for row in TABLE1_PAPER.values():
            assert len(row) == len(TABLE1_K_VALUES)

    def test_table2_utilisations_are_fractions(self):
        for entry in TABLE2_PAPER.values():
            for key in ("LUT", "FF", "BRAM", "URAM", "DSP"):
                assert 0 < entry[key] < 1

    def test_figure5_covers_all_groups_and_platforms(self):
        assert set(FIGURE5_SPEEDUPS) == {"N=0.5e7", "N=1e7", "N=1.5e7", "glove"}
        for group in FIGURE5_SPEEDUPS.values():
            assert len(group) == 6

    def test_table3_ranges_ordered(self):
        for entry in TABLE3_PAPER.values():
            assert entry["nnz"][0] <= entry["nnz"][1]
            assert entry["size_gb"][0] <= entry["size_gb"][1]


class TestFigure5Internals:
    def test_platform_times_cover_all_platforms(self):
        lengths = np.random.default_rng(0).integers(10, 31, size=50_000)
        times = _platform_times_s(lengths)
        expected = {
            "CPU", "GPU F32", "GPU F16", "GPU F32 full", "GPU F16 full",
            "FPGA 20b 32C", "FPGA 25b 32C", "FPGA 32b 32C", "FPGA F32 32C",
        }
        assert set(times) == expected
        assert all(t > 0 for t in times.values())

    def test_cpu_is_slowest_fpga20_fastest(self):
        lengths = np.random.default_rng(0).integers(10, 31, size=50_000)
        times = _platform_times_s(lengths)
        assert times["CPU"] == max(times.values())
        fpga_times = {k: v for k, v in times.items() if k.startswith("FPGA")}
        assert min(fpga_times, key=fpga_times.get) == "FPGA 20b 32C"


class TestFigure7Internals:
    def test_group_matrices_follow_paper_proportions(self):
        config = ExperimentConfig(functional_rows=10_000)
        groups = _group_matrices(config)
        assert groups["N=0.5e7"][1] == 5_000
        assert groups["N=1e7"][1] == 10_000
        assert groups["N=1.5e7"][1] == 15_000
        assert groups["glove"][1] == 2_000

    def test_accuracy_sweep_structure(self, small_matrix, rng):
        queries = sample_unit_queries(rng, 2, small_matrix.n_cols)
        sweep = accuracy_sweep(small_matrix, queries, k_values=(8, 16))
        assert set(sweep) == {"FPGA 20b", "FPGA 32b", "FPGA F32", "GPU F16"}
        for per_k in sweep.values():
            assert set(per_k) == {8, 16}
            for metrics in per_k.values():
                assert set(metrics) == {"precision", "kendall", "ndcg"}
                assert all(0.0 <= v <= 1.0 for v in metrics.values())

    def test_accuracy_sweep_fpga_exactish_at_small_k(self, small_matrix, rng):
        queries = sample_unit_queries(rng, 2, small_matrix.n_cols)
        sweep = accuracy_sweep(small_matrix, queries, k_values=(8,))
        assert sweep["FPGA 32b"][8]["precision"] >= 0.9
