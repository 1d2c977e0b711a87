"""Unit tests for Qm.n fixed-point formats."""

import numpy as np
import pytest

from repro.arithmetic.fixed_point import (
    FixedPointFormat,
    PAPER_FIXED_POINT_FORMATS,
    Q1_19,
    Q1_24,
    Q1_31,
)
from repro.errors import ConfigurationError


class TestStructure:
    def test_paper_formats_have_expected_widths(self):
        assert Q1_19.total_bits == 20
        assert Q1_24.total_bits == 25
        assert Q1_31.total_bits == 32

    def test_registry_keys_match_total_bits(self):
        for bits, fmt in PAPER_FIXED_POINT_FORMATS.items():
            assert fmt.total_bits == bits

    def test_resolution_is_one_lsb(self):
        assert Q1_19.resolution == 2.0**-19
        assert Q1_31.resolution == 2.0**-31

    def test_unsigned_range(self):
        assert Q1_19.min_value == 0.0
        assert Q1_19.max_value == pytest.approx(2.0 - 2.0**-19)

    def test_signed_adds_a_bit_and_negative_range(self):
        fmt = FixedPointFormat(1, 19, signed=True)
        assert fmt.total_bits == 21
        assert fmt.min_value == -2.0
        assert fmt.max_raw == 2**20 - 1

    def test_name_rendering(self):
        assert Q1_19.name == "Q1.19"
        assert FixedPointFormat(1, 19, signed=True).name == "sQ1.19"

    def test_rejects_negative_bit_counts(self):
        with pytest.raises(ConfigurationError):
            FixedPointFormat(-1, 4)

    def test_rejects_zero_width(self):
        with pytest.raises(ConfigurationError):
            FixedPointFormat(0, 0)


class TestQuantisation:
    def test_roundtrip_on_grid_values_is_exact(self):
        values = np.array([0.0, 0.5, 0.25, 1.0, 1.5])
        assert np.array_equal(Q1_19.quantize(values), values)

    def test_quantise_rounds_to_nearest(self):
        step = Q1_19.resolution
        values = np.array([step * 0.49, step * 0.51])
        quantised = Q1_19.quantize(values)
        assert quantised[0] == 0.0
        assert quantised[1] == step

    def test_saturation_above_max(self):
        assert Q1_19.quantize(np.array([5.0]))[0] == Q1_19.max_value

    def test_unsigned_saturates_negative_to_zero(self):
        assert Q1_19.quantize(np.array([-1.0]))[0] == 0.0

    def test_quantisation_error_bounded_by_half_lsb(self, rng):
        values = rng.random(1000) * 1.5
        err = np.abs(Q1_24.quantize(values) - values)
        assert err.max() <= Q1_24.resolution / 2 + 1e-15

    def test_to_raw_returns_integers_in_range(self, rng):
        raw = Q1_19.to_raw(rng.random(100))
        assert raw.dtype == np.int64
        assert raw.min() >= 0 and raw.max() <= Q1_19.max_raw

    def test_from_raw_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            Q1_19.from_raw(np.array([Q1_19.max_raw + 1]))

    def test_representable_mask(self):
        values = np.array([0.5, 0.5 + Q1_19.resolution / 3, 3.0])
        mask = Q1_19.representable(values)
        assert mask.tolist() == [True, False, False]
