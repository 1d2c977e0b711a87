"""Unit tests for validation helpers, RNG plumbing and error hierarchy."""

import numpy as np
import pytest

import repro.errors as errors
from repro.errors import ConfigurationError, ReproError
from repro.utils.rng import derive_rng, sample_unit_queries, spawn_rngs
from repro.utils.validation import (
    check_in_range,
    check_non_negative_int,
    check_one_of,
    check_positive_int,
)


class TestValidation:
    def test_positive_int_accepts_numpy_scalars(self):
        assert check_positive_int(np.int64(5), "x") == 5

    def test_positive_int_rejects_bool(self):
        with pytest.raises(ConfigurationError):
            check_positive_int(True, "x")

    def test_positive_int_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            check_positive_int(0, "x")

    def test_positive_int_rejects_float(self):
        with pytest.raises(ConfigurationError):
            check_positive_int(2.5, "x")

    def test_non_negative_accepts_zero(self):
        assert check_non_negative_int(0, "x") == 0

    def test_in_range_inclusive(self):
        assert check_in_range(1.0, "x", 0.0, 1.0) == 1.0

    def test_in_range_exclusive(self):
        with pytest.raises(ConfigurationError):
            check_in_range(1.0, "x", 0.0, 1.0, high_inclusive=False)

    def test_in_range_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            check_in_range(float("nan"), "x")

    def test_one_of(self):
        assert check_one_of("a", "x", ("a", "b")) == "a"
        with pytest.raises(ConfigurationError):
            check_one_of("c", "x", ("a", "b"))

    def test_error_message_names_argument(self):
        with pytest.raises(ConfigurationError, match="widgets"):
            check_positive_int(-1, "widgets")


class TestRng:
    def test_derive_from_int_deterministic(self):
        assert derive_rng(3).random() == derive_rng(3).random()

    def test_derive_passes_generator_through(self):
        gen = np.random.default_rng(0)
        assert derive_rng(gen) is gen

    def test_spawn_independent(self):
        children = spawn_rngs(0, 3)
        draws = {c.random() for c in children}
        assert len(draws) == 3

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_sample_unit_queries_normalised(self):
        queries = sample_unit_queries(derive_rng(0), 4, 32)
        assert queries.shape == (4, 32)
        assert np.allclose(np.linalg.norm(queries, axis=1), 1.0)
        assert (queries >= 0).all()

    def test_sample_unit_queries_signed(self):
        queries = sample_unit_queries(derive_rng(0), 4, 32, non_negative=False)
        assert (queries < 0).any()


class TestErrors:
    def test_all_errors_derive_from_repro_error(self):
        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, ReproError)

    def test_layout_error_is_format_error(self):
        assert issubclass(errors.LayoutError, errors.FormatError)

    def test_packet_decode_error_is_format_error(self):
        assert issubclass(errors.PacketDecodeError, errors.FormatError)
