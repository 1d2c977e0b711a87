"""Unit tests for BS-CSR layout arithmetic (Section III-B / IV-C)."""

import pytest

from repro.errors import LayoutError
from repro.formats.layout import (
    PacketLayout,
    index_field_bits,
    max_lanes,
    naive_coo_capacity,
    optimized_coo_capacity,
    ptr_field_bits,
    solve_layout,
)


class TestFieldWidths:
    @pytest.mark.parametrize(
        "lanes,expected", [(1, 1), (7, 3), (8, 4), (15, 4), (16, 5)]
    )
    def test_ptr_bits(self, lanes, expected):
        assert ptr_field_bits(lanes) == expected

    @pytest.mark.parametrize(
        "n_cols,expected", [(1, 1), (2, 1), (512, 9), (1024, 10), (1025, 11)]
    )
    def test_index_bits(self, n_cols, expected):
        assert index_field_bits(n_cols) == expected


class TestPaperDesignPoints:
    """The Section IV-C capacity equation at the paper's configurations."""

    @pytest.mark.parametrize(
        "val_bits,expected_lanes", [(20, 15), (25, 13), (32, 11)]
    )
    def test_m1024_designs(self, val_bits, expected_lanes):
        layout = solve_layout(1024, val_bits)
        assert layout.lanes == expected_lanes
        assert layout.used_bits <= 512

    def test_20bit_layout_is_figure3(self):
        layout = solve_layout(1024, 20)
        assert (layout.ptr_bits, layout.idx_bits, layout.val_bits) == (4, 10, 20)
        assert layout.used_bits == 511

    def test_worst_case_reaches_b7(self):
        # 32-bit values and an unbounded (32-bit) index field: B = 7.
        assert max_lanes(idx_bits=32, val_bits=32) == 7

    def test_b_range_is_7_to_15(self):
        lanes = [
            solve_layout(m, v).lanes
            for m in (512, 1024, 2**32)
            for v in (20, 25, 32)
        ]
        assert min(lanes) >= 7 and max(lanes) <= 15


class TestPacketLayout:
    def test_infeasible_layout_rejected(self):
        with pytest.raises(LayoutError):
            PacketLayout(lanes=16, ptr_bits=5, idx_bits=10, val_bits=20)

    def test_narrow_ptr_field_rejected(self):
        with pytest.raises(LayoutError):
            PacketLayout(lanes=15, ptr_bits=3, idx_bits=10, val_bits=20)

    def test_max_index(self):
        assert solve_layout(1024, 20).max_index == 1023

    def test_operational_intensity(self):
        layout = solve_layout(1024, 20)
        assert layout.operational_intensity() == pytest.approx(15 / 64)
        assert layout.operational_intensity(0.5) == pytest.approx(7.5 / 64)

    def test_operational_intensity_rejects_bad_fill(self):
        with pytest.raises(Exception):
            solve_layout(1024, 20).operational_intensity(0.0)

    def test_forced_lane_count(self):
        layout = solve_layout(1024, 20, lanes=5)
        assert layout.lanes == 5

    def test_forced_lane_count_above_max_rejected(self):
        with pytest.raises(LayoutError):
            solve_layout(1024, 20, lanes=16)

    def test_describe_mentions_lanes(self):
        assert "15 lanes" in solve_layout(1024, 20).describe()


class TestCooCapacities:
    def test_naive_coo_is_5(self):
        assert naive_coo_capacity() == 5

    def test_optimized_coo_is_8(self):
        assert optimized_coo_capacity() == 8

    def test_bscsr_triples_naive_coo(self):
        assert solve_layout(1024, 20).lanes == 3 * naive_coo_capacity()
