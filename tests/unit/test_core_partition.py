"""Unit tests for the row partitioner."""

import numpy as np
import pytest

from repro.core.partition import RowPartition, partition_matrix, partition_rows
from repro.errors import ConfigurationError


class TestPartitionRows:
    def test_even_split(self):
        parts = partition_rows(100, 4)
        assert [p.n_rows for p in parts] == [25, 25, 25, 25]

    def test_remainder_spread_over_first_blocks(self):
        parts = partition_rows(10, 3)
        assert [p.n_rows for p in parts] == [4, 3, 3]

    def test_blocks_are_contiguous_and_cover(self):
        parts = partition_rows(101, 7)
        assert parts[0].start == 0
        assert parts[-1].stop == 101
        for a, b in zip(parts, parts[1:]):
            assert a.stop == b.start

    def test_sizes_differ_by_at_most_one(self):
        parts = partition_rows(1234, 32)
        sizes = {p.n_rows for p in parts}
        assert max(sizes) - min(sizes) <= 1

    def test_more_partitions_than_rows(self):
        parts = partition_rows(3, 8)
        assert sum(p.n_rows for p in parts) == 3
        assert sum(1 for p in parts if p.n_rows == 0) == 5

    def test_zero_rows(self):
        parts = partition_rows(0, 4)
        assert all(p.n_rows == 0 for p in parts)

    def test_invalid_partition_count_rejected(self):
        with pytest.raises(ConfigurationError):
            partition_rows(10, 0)


class TestRowPartition:
    def test_invalid_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            RowPartition(start=5, stop=3)


class TestPartitionMatrix:
    def test_partitions_stack_back(self, small_matrix):
        parts = partition_matrix(small_matrix, 8)
        assert sum(p.n_rows for p in parts) == small_matrix.n_rows
        stacked = np.vstack([p.to_dense() for p in parts])
        assert np.array_equal(stacked, small_matrix.to_dense())

    def test_nnz_conserved(self, gamma_matrix):
        parts = partition_matrix(gamma_matrix, 5)
        assert sum(p.nnz for p in parts) == gamma_matrix.nnz
