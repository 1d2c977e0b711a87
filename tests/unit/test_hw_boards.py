"""Unit tests for the accelerator-board registry (future-work study)."""

import numpy as np
import pytest

from repro.errors import CapacityError
from repro.hw.boards import ALVEO_U50, ALVEO_U55C, ALVEO_U280, BOARDS, accelerator_on_board
from repro.hw.design import PAPER_DESIGNS


class TestRegistry:
    def test_three_boards(self):
        assert set(BOARDS) == {"u280", "u50", "u55c"}

    def test_u280_matches_paper_setup(self):
        assert ALVEO_U280.peak_bandwidth_gbps == pytest.approx(460.0)
        assert ALVEO_U280.hbm.n_channels == 32

    def test_u50_is_smaller(self):
        assert ALVEO_U50.peak_bandwidth_gbps < ALVEO_U280.peak_bandwidth_gbps
        assert ALVEO_U50.max_power_w < ALVEO_U280.max_power_w
        assert ALVEO_U50.resources.lut < ALVEO_U280.resources.lut

    def test_u55c_same_bandwidth_lower_power(self):
        assert ALVEO_U55C.peak_bandwidth_gbps == pytest.approx(460.0)
        assert ALVEO_U55C.max_power_w < ALVEO_U280.max_power_w


class TestPlacement:
    def test_paper_design_fits_every_board(self):
        for board in BOARDS.values():
            accel = accelerator_on_board(PAPER_DESIGNS["20b"], board)
            assert accel.design.cores <= board.hbm.n_channels

    def test_same_bandwidth_same_performance(self):
        """Section VI: similar memory bandwidth ⇒ no performance loss."""
        lengths = np.random.default_rng(0).integers(10, 31, size=200_000)
        t280 = accelerator_on_board(
            PAPER_DESIGNS["20b"], ALVEO_U280
        ).timing_from_row_lengths(lengths)
        t55c = accelerator_on_board(
            PAPER_DESIGNS["20b"], ALVEO_U55C
        ).timing_from_row_lengths(lengths)
        assert t55c.total_seconds == pytest.approx(t280.total_seconds, rel=1e-6)

    def test_u50_proportionally_slower(self):
        lengths = np.random.default_rng(0).integers(10, 31, size=200_000)
        t280 = accelerator_on_board(
            PAPER_DESIGNS["20b"], ALVEO_U280
        ).timing_from_row_lengths(lengths)
        t50 = accelerator_on_board(
            PAPER_DESIGNS["20b"], ALVEO_U50
        ).timing_from_row_lengths(lengths)
        ratio = t50.makespan_s / t280.makespan_s
        assert ratio == pytest.approx(460.0 / 316.0, rel=0.02)

    def test_oversized_design_rejected(self):
        huge = PAPER_DESIGNS["f32"].with_cores(32)
        # Shrink the board's resources far below the design's needs.
        from dataclasses import replace

        tiny = replace(ALVEO_U50, resources=ALVEO_U50.resources.scale(0.05))
        with pytest.raises(CapacityError):
            accelerator_on_board(huge, tiny)
